"""Entangled and deterministic strategies with exact Born-rule evaluation.

An entangled strategy is a shared pure state on C^d (x) C^d plus one POVM per
question tuple on each side.  Joint answer statistics are computed through the
matrix form of the state: for psi with matrix m, <psi| A (x) B |psi> equals
tr(m+ A m B^T), so no d^2 x d^2 operator is ever formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matcore
from .games import (Game, a_names, b_names, question_weights, tuple_digits,
                    x_names, y_names)
from .prob import FiniteDistribution, MAX_TABLE_ENTRIES

POVM_COMPLETENESS_ATOL = 1e-8   # largest Frobenius |sum_a E_a - 1| of a POVM
BORN_CHUNK = 2 ** 16     # table cells one born_joint kernel call fills
WIN_BLOCK = 2 ** 15      # POVM entries one win_probability block holds


class POVMFamily:
    """One POVM per question tuple, as one dense array.

    ops has shape (Q,)*n + (A,)*n + (d, d): ops[q] with a question tuple q
    is that question's POVM, its elements indexed by answer tuples, and
    summing over the answer axes gives the identity.
    """

    def __init__(self, n: int, ops):
        self.n = int(n)
        self.ops = np.asarray(ops, dtype=np.complex128)
        shape = self.ops.shape
        if self.n < 1 or self.ops.ndim != 2 * self.n + 2:
            raise ValueError(f"POVM array of shape {shape} is not "
                             f"(Q,)*n + (A,)*n + (d, d) for n={n} >= 1")
        if len(set(shape[:self.n])) > 1:
            raise ValueError(f"POVM array of shape {shape} has unequal "
                             "question axes")
        if len(set(shape[self.n:-2])) > 1:
            raise ValueError(f"POVM array of shape {shape} has unequal "
                             "answer axes")
        if shape[-1] != shape[-2]:
            raise ValueError(f"POVM array of shape {shape} has non-square "
                             "elements")
        self.question_size, self.answer_size = shape[0], shape[self.n]
        self.d = shape[-1]
        self._validate()

    def _validate(self) -> None:
        """Completeness, Hermiticity and positivity, one question at a time:
        a whole-array check would hold several temporaries of its size."""
        d = self.d
        rows = self.ops.reshape(self.question_size ** self.n,
                                self.answer_size ** self.n, d, d)
        eye = np.eye(d)
        for q, flat in zip(np.ndindex(self.ops.shape[:self.n]), rows):
            if matcore.frobenius(flat.sum(axis=0) - eye) > POVM_COMPLETENESS_ATOL:
                raise ValueError(f"POVM at question {q} does not sum to identity")
            herm_dev = np.abs(flat - flat.conj().transpose(0, 2, 1)).max(initial=0.0)
            if herm_dev > matcore.HERMITIAN_ATOL:
                raise ValueError(f"POVM element at question {q} is not Hermitian")
            w = np.linalg.eigvalsh(flat)
            if w.size and float(w.min()) < matcore.PSD_EIG_FLOOR:
                raise ValueError(
                    f"POVM element at question {q} has eigenvalue {w.min():.3e}")


def _povm_zeros(n: int, q_size: int, a_size: int, d: int) -> np.ndarray:
    """Zeroed POVM array of shape (q_size,)*n + (a_size,)*n + (d, d).

    Refused before allocating when it would hold more than
    MAX_TABLE_ENTRIES entries.  n is bounded first: every round at least
    doubles a side with two or more (question, answer) pairs, so a huge n
    never forms the integer (q_size * a_size)**n.
    """
    if (not 0 < n <= MAX_TABLE_ENTRIES.bit_length()
            or (q_size * a_size) ** n * d * d > MAX_TABLE_ENTRIES):
        raise ValueError(
            f"no POVM array for n={n} rounds of {q_size} questions and "
            f"{a_size} answers at d={d}: n must be in "
            f"1..{MAX_TABLE_ENTRIES.bit_length()} and the array hold at most "
            f"{MAX_TABLE_ENTRIES} entries")
    return np.zeros((q_size,) * n + (a_size,) * n + (d, d), dtype=np.complex128)


@dataclass
class EntangledStrategy:
    d: int
    n: int
    psi: np.ndarray
    alice: POVMFamily
    bob: POVMFamily
    name: str = "custom"

    def __post_init__(self):
        self.psi = matcore.check_pure(self.psi)
        if self.psi.size != self.d * self.d:
            raise ValueError(f"state length {self.psi.size} != d^2 = {self.d * self.d}")
        for fam, side in ((self.alice, "alice"), (self.bob, "bob")):
            if fam.d != self.d or fam.n != self.n:
                raise ValueError(f"{side} POVM family does not match (d={self.d}, n={self.n})")

    @property
    def psi_matrix(self) -> np.ndarray:
        return self.psi.reshape(self.d, self.d)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Answer functions: a_map[x_tuple] and b_map[y_tuple] are answer tuples."""

    n: int
    a_map: np.ndarray  # shape (x_size,)*n + (n,)
    b_map: np.ndarray  # shape (y_size,)*n + (n,)


def symmetrize(s: EntangledStrategy):
    """Rotate Bob's side so the shared state is coefficient-diagonal.

    Returns (strategy, basis): the rotated strategy shares the state
    sum_k c_k |u_k>|u_k> with u_k the columns of basis; every joint answer
    statistic is unchanged.
    """
    sd = matcore.schmidt(s.psi, (s.d, s.d))
    # Bob's Schmidt vectors are conj(right_basis[:, k]); rot maps them to u_k
    rot = sd.left_basis @ sd.right_basis.T
    m2 = (sd.left_basis * sd.coefficients) @ sd.left_basis.T
    psi2 = m2.reshape(-1)
    psi2 = psi2 / np.linalg.norm(psi2)
    bob2 = POVMFamily(s.n, rot @ s.bob.ops @ rot.conj().T)
    out = EntangledStrategy(s.d, s.n, psi2, s.alice, bob2, name=s.name)
    return out, sd.left_basis


def pure_born_table(state: np.ndarray, fa: np.ndarray,
                    fb: np.ndarray) -> np.ndarray:
    """Joint answer table <state| F_a (x) G_b |state> of two POVM families.

    state is a vector on C^d (x) C^d with Alice's index first, or a
    `(..., d * d)` stack; fa and fb are `(..., k, d, d)` operator stacks.
    Returns `(..., ka, kb)`.
    """
    d = fa.shape[-1]
    m = state.reshape(state.shape[:-1] + (1, d, d))
    inner = (matcore.dagger(m) @ fa @ m).astype(np.complex128, copy=False)
    # Re sum_ij z_ij w_ij is the real dot product of conj(z) and w read as
    # interleaved (re, im) pairs, so one real GEMM does the contraction
    np.conjugate(inner, out=inner)
    rows = inner.reshape(inner.shape[:-2] + (d * d,)).view(np.float64)
    cols = np.ascontiguousarray(fb, dtype=np.complex128)
    cols = cols.reshape(cols.shape[:-2] + (d * d,)).view(np.float64)
    return rows @ np.swapaxes(cols, -1, -2)


def _hermitian_rows(ops: np.ndarray, paired: bool = False) -> np.ndarray:
    """Twice the Hermitian part H of each operator of a `(..., d, d)` stack,
    as `(..., d * d)` real rows: Re H on and above the diagonal, Im H below.

    With paired=True a row is weighted 1/4 on the diagonal, 1/2 above it
    and -1/2 below, so that for Hermitian X and Y the dot product of
    _hermitian_rows(X) and _hermitian_rows(Y, paired=True) is
    Re sum_ij X_ij Y_ij, the pairing of `pure_born_table`, read from d * d
    reals a side instead of 2 d * d.  On near-Hermitian X and Y the two
    pairings differ only to second order in the anti-Hermitian parts, since
    Re sum_ij H_ij K_ij is zero for Hermitian H and anti-Hermitian K.
    """
    d = ops.shape[-1]
    below = np.tri(d, k=-1, dtype=bool)
    re, im = ops.real, ops.imag
    rows = re + re.swapaxes(-1, -2)
    np.copyto(rows, im - im.swapaxes(-1, -2), where=below)
    if paired:
        weight = np.where(below, -0.5, 0.5)
        np.fill_diagonal(weight, 0.25)
        rows *= weight
    return rows.reshape(ops.shape[:-2] + (d * d,))


def _check_alphabets(g: Game, n: int, s: EntangledStrategy) -> None:
    if s.n != n:
        raise ValueError(f"strategy is for n={s.n}, requested n={n}")
    if s.alice.question_size != g.x_size or s.bob.question_size != g.y_size:
        raise ValueError("strategy question alphabets do not match the game")
    if s.alice.answer_size != g.a_size or s.bob.answer_size != g.b_size:
        raise ValueError("strategy answer alphabets do not match the game")


def born_joint(g: Game, n: int, s: EntangledStrategy) -> FiniteDistribution:
    """Exact joint distribution of questions and answers for the n-fold game.

    Both POVM arrays are read as flat (question, answer) stacks and paired
    as `pure_born_table` pairs them, through Hermitian-packed rows
    (`_hermitian_rows`), so the real GEMM's inner dimension is d * d, not
    2 d * d.  Bob's rows are packed once, in blocks of BORN_CHUNK entries;
    Alice's question tuples are walked in chunks of at most BORN_CHUNK
    table cells, each chunk's rows of m+ A m packed and multiplied against
    every Bob row.
    """
    _check_alphabets(g, n, s)
    entries = (g.x_size * g.y_size * g.a_size * g.b_size) ** n
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"joint table of {entries} entries exceeds the cap")
    d, m = s.d, s.psi_matrix
    nx, ny = g.x_size ** n, g.y_size ** n
    ka, kb = g.a_size ** n, g.b_size ** n
    alice = s.alice.ops.reshape(nx * ka, d, d)
    bob = s.bob.ops.reshape(ny * kb, d, d)
    cols = np.empty((bob.shape[0], d * d))
    ops_step = max(1, BORN_CHUNK // (d * d))
    for lo in range(0, bob.shape[0], ops_step):
        cols[lo:lo + ops_step] = _hermitian_rows(bob[lo:lo + ops_step],
                                                 paired=True)
    weights = question_weights(g, n)[:, :, None, None]
    table = np.empty((nx, ny, ka, kb))
    step = max(1, BORN_CHUNK // (ka * bob.shape[0]))
    for lo in range(0, nx, step):
        block = table[lo:lo + step]
        inner = matcore.dagger(m) @ alice[lo * ka:(lo + step) * ka] @ m
        p = (_hermitian_rows(inner) @ cols.T).reshape(block.shape[0], ka, ny, kb)
        np.multiply(p.transpose(0, 2, 1, 3), weights[lo:lo + step], out=block)
        np.clip(block, 0.0, None, out=block)
    del cols     # not held beside the normalized copy of the table
    shape = ((g.x_size,) * n + (g.y_size,) * n + (g.a_size,) * n + (g.b_size,) * n)
    names = x_names(n) + y_names(n) + a_names(n) + b_names(n)
    return FiniteDistribution(names, table.reshape(shape), normalize=True)


def _kernel_mass(m: np.ndarray, alice: np.ndarray, bob: np.ndarray,
                 kernel: np.ndarray) -> float:
    """sum K[(xt, at), (yt, bt)] <psi| A_{xt, at} (x) B_{yt, bt} |psi>.

    alice and bob are POVM arrays `(X,)*n + (A,)*n + (d, d)` and
    `(Y,)*n + (B,)*n + (d, d)`, m the state's matrix, and K the n-fold
    Kronecker power of one round's kernel (X, A, Y, B).  Bob's array is
    read in blocks of rows of its d x d elements, at most WIN_BLOCK entries
    each.  A block is contracted with the kernel one round at a time, as a
    real matrix (the kernel is real), and paired with the same rows of
    m+ A m, as `pure_born_table` pairs them.  Those rows are
    ((A m[:, rows])+) m for Hermitian A, one product over all of Alice's
    elements; POVMFamily holds both sides Hermitian to HERMITIAN_ATOL, and
    the real pairing differs from that of m+ A m only to second order in
    the two sides' anti-Hermitian parts.
    """
    n, d = (alice.ndim - 2) // 2, m.shape[0]
    x, a, y, b = kernel.shape
    k1 = kernel.reshape(x * a, y * b)
    flat_a = alice.reshape(-1, d)
    # Bob's block with round-interleaved axes (y1, b1, ..., yn, bn, rows, d)
    perm = [ax for i in range(n) for ax in (i, n + i)] + [2 * n, 2 * n + 1]
    # the contracted block's (x1, a1, ..., xn, an, cols) in Alice's order
    back = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)] + [2 * n]
    step = max(1, WIN_BLOCK // (max(x * a, y * b) ** n * d))
    total = 0.0
    for lo in range(0, d, step):
        rows = slice(lo, lo + step)
        cols = np.ascontiguousarray(m[:, rows])
        am = (flat_a @ cols).reshape(-1, d, cols.shape[1])
        # conj(m+ A m) on the block's rows, Alice's elements in flat order
        fa = np.ascontiguousarray(am.swapaxes(1, 2)).reshape(-1, d) @ m.conj()
        t = np.ascontiguousarray(bob[..., rows, :].transpose(perm))
        t = t.reshape(y * b, -1).view(np.float64)
        for i in range(n):
            # rounds before i are contracted: (x a)^i, round i, the rest
            t = np.matmul(k1, t.reshape((x * a) ** i, y * b, -1))
        t = t.reshape((x, a) * n + (-1,)).transpose(back)
        total += float(fa.reshape(-1).view(np.float64) @ t.reshape(-1))
    return total


def win_probability(g: Game, n: int, s) -> float:
    """Probability of winning every round, for either strategy type.

    For an entangled strategy no table is built: the all-win mass pairs the
    POVM arrays through the n-fold power of the kernel mu(x, y) V(x, y, a, b),
    and the total mass, by which `born_joint` normalizes, through that of
    mu(x, y) on the answer-summed POVMs.
    """
    if isinstance(s, DeterministicStrategy):
        xd, yd = tuple_digits(g.x_size, n), tuple_digits(g.y_size, n)
        ad = s.a_map.reshape(-1, n)
        bd = s.b_map.reshape(-1, n)
        won = np.ones((xd.shape[0], yd.shape[0]), dtype=bool)
        for i in range(n):
            won &= g.predicate[xd[:, None, i], yd[None, :, i],
                               ad[:, None, i], bd[None, :, i]]
        return float(question_weights(g, n)[won].sum())
    _check_alphabets(g, n, s)
    m = s.psi_matrix
    kernel = (g.mu[:, :, None, None] * g.predicate).transpose(0, 2, 1, 3)
    won = _kernel_mass(m, s.alice.ops, s.bob.ops, kernel)
    answers = tuple(range(n, 2 * n))
    total = _kernel_mass(m, s.alice.ops.sum(axis=answers, keepdims=True),
                         s.bob.ops.sum(axis=answers, keepdims=True),
                         g.mu[:, None, :, None])
    return won / total


def as_entangled(det: DeterministicStrategy, g: Game, d: int = 2,
                 name: str = "deterministic") -> EntangledStrategy:
    """Embed answer functions as answer-independent projective measurements."""
    m = np.eye(d, dtype=np.complex128) / math.sqrt(d)
    psi = m.reshape(-1)

    def fam(size, answer_size, amap):
        ops = _povm_zeros(det.n, size, answer_size, d)
        # every question tuple, row-major, with the answer tuple it maps to
        questions = np.indices((size,) * det.n).reshape(det.n, -1)
        answers = amap.reshape(-1, det.n).T
        ops[tuple(questions) + tuple(answers)] = np.eye(d)
        return POVMFamily(det.n, ops)

    return EntangledStrategy(d, det.n, psi, fam(g.x_size, g.a_size, det.a_map),
                             fam(g.y_size, g.b_size, det.b_map), name=name)


# ---------------------------------------------------------------------------
# fixtures (CHSH-shaped: binary questions and answers per round)

ALICE_ANGLES = (0.0, math.pi / 2)
BOB_ANGLES = (math.pi / 4, -math.pi / 4)
PRINTING_TWIST = 0.4


def _proj_pair(theta: float):
    """Projectors of the +/-1 observable cos(theta) Z + sin(theta) X."""
    o = np.array([[math.cos(theta), math.sin(theta)],
                  [math.sin(theta), -math.cos(theta)]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    return ((eye + o) / 2, (eye - o) / 2)


def _product_family(n: int, d: int, angle_for) -> np.ndarray:
    """angle_for(q_tuple, i) -> measurement angle in round i.

    Each question's POVM is the Kronecker product of the rounds' projector
    pairs, built one round at a time by broadcasting: answers so far times
    the new round's answer on the leading axis.
    """
    ops = _povm_zeros(n, 2, 2, d)
    for q in itertools.product(range(2), repeat=n):
        block = np.ones((1, 1, 1), dtype=np.complex128)
        for i in range(n):
            proj = np.stack(_proj_pair(angle_for(q, i)))
            k, side = block.shape[0], block.shape[1]
            block = (block[:, None, :, None, :, None]
                     * proj[None, :, None, :, None, :]).reshape(
                         2 * k, 2 * side, 2 * side)
        ops[q] = block.reshape((2,) * n + (d, d))
    return ops


def tsirelson(n: int) -> EntangledStrategy:
    """Round-wise optimal CHSH measurements on n maximally entangled pairs."""
    d = 2 ** n
    m = np.eye(d, dtype=np.complex128) / math.sqrt(d)
    alice = POVMFamily(n, _product_family(
        n, d, lambda q, i: ALICE_ANGLES[q[i]]))
    bob = POVMFamily(n, _product_family(
        n, d, lambda q, i: BOB_ANGLES[q[i]]))
    return EntangledStrategy(d, n, m.reshape(-1), alice, bob, name="tsirelson")


def printing(n: int) -> EntangledStrategy:
    """Correlated variant: the parity of Bob's whole question tuple twists the
    measurement basis he uses in every round, so his round-i behavior encodes
    global information about his inputs."""
    d = 2 ** n
    m = np.eye(d, dtype=np.complex128) / math.sqrt(d)
    alice = POVMFamily(n, _product_family(
        n, d, lambda q, i: ALICE_ANGLES[q[i]]))

    def bob_angle(q, i):
        return BOB_ANGLES[q[i]] + PRINTING_TWIST * (sum(q) % 2)

    bob = POVMFamily(n, _product_family(n, d, bob_angle))
    return EntangledStrategy(d, n, m.reshape(-1), alice, bob, name="printing")


def detprod(n: int) -> EntangledStrategy:
    """Best deterministic CHSH strategy (answer 0 everywhere), played per round."""
    a_map = np.zeros((2,) * n + (n,), dtype=np.int64)
    b_map = np.zeros((2,) * n + (n,), dtype=np.int64)
    det = DeterministicStrategy(n, a_map, b_map)
    from .games import chsh
    out = as_entangled(det, chsh(), d=2, name="detprod")
    return out


_FIXTURES = {"tsirelson": tsirelson, "printing": printing, "detprod": detprod}


def strategy_fixture(name: str, n: int) -> EntangledStrategy:
    try:
        return _FIXTURES[name](n)
    except KeyError:
        raise ValueError(f"unknown strategy fixture {name!r}; have {sorted(_FIXTURES)}") from None


# ---------------------------------------------------------------------------
# text round-trip

def _fmt(v: float) -> str:
    return repr(float(v))


def _fmt_complex_block(m: np.ndarray):
    return " ".join(f"{_fmt(v.real)} {_fmt(v.imag)}" for v in m.reshape(-1))


def save_strategy(s: EntangledStrategy, path) -> None:
    lines = [
        f"name {s.name}",
        f"d {s.d}",
        f"n {s.n}",
        f"x_size {s.alice.question_size}",
        f"y_size {s.bob.question_size}",
        f"a_size {s.alice.answer_size}",
        f"b_size {s.bob.answer_size}",
        "psi " + _fmt_complex_block(s.psi),
    ]
    for side, fam in (("alice", s.alice), ("bob", s.bob)):
        for q in itertools.product(range(fam.question_size), repeat=fam.n):
            for a in itertools.product(range(fam.answer_size), repeat=fam.n):
                lines.append(
                    f"povm {side} {','.join(map(str, q))} {','.join(map(str, a))} "
                    + _fmt_complex_block(fam.ops[q + a]))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_complex_block(tokens, d: int) -> np.ndarray:
    vals = np.array([float(t) for t in tokens], dtype=np.float64)
    if vals.size != 2 * d * d:
        raise ValueError(f"expected {2 * d * d} floats, got {vals.size}")
    return (vals[0::2] + 1j * vals[1::2]).reshape(d, d)


def _index_tuple(token: str, n: int, size: int, line: str) -> tuple:
    """Comma list of n indices in 0..size-1, as on a povm line."""
    try:
        idx = tuple(int(v) for v in token.split(","))
    except ValueError:
        idx = ()
    if len(idx) != n or not all(0 <= v < size for v in idx):
        raise ValueError(f"povm line {line!r}: {token!r} is not {n} "
                         f"comma-separated indices in 0..{size - 1}")
    return idx


def load_strategy(path) -> EntangledStrategy:
    head = {}
    psi = None
    povm_lines = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "povm":
            povm_lines.append(rest.split())
        elif key == "psi":
            psi = rest.split()
        else:
            head[key] = rest.strip()
    try:
        d, n = int(head["d"]), int(head["n"])
        sizes = {k: int(head[k]) for k in ("x_size", "y_size", "a_size", "b_size")}
    except KeyError as e:
        raise ValueError(f"strategy file missing field {e.args[0]!r}") from None
    if psi is None:
        raise ValueError("strategy file missing field 'psi'")
    vals = np.array([float(t) for t in psi])
    state = vals[0::2] + 1j * vals[1::2]

    alphabets = {"alice": (sizes["x_size"], sizes["a_size"]),
                 "bob": (sizes["y_size"], sizes["b_size"])}
    ops = {side: _povm_zeros(n, q_size, a_size, d)
           for side, (q_size, a_size) in alphabets.items()}
    for parts in povm_lines:
        line = " ".join(["povm"] + parts[:3])
        if len(parts) < 3:
            raise ValueError(f"povm line {line!r} needs a side, a question "
                             "tuple and an answer tuple")
        side = parts[0]
        if side not in ops:
            raise ValueError(f"povm line {line!r} names side {side!r}, "
                             "not alice or bob")
        q_size, a_size = alphabets[side]
        q = _index_tuple(parts[1], n, q_size, line)
        a = _index_tuple(parts[2], n, a_size, line)
        ops[side][q + a] = _parse_complex_block(parts[3:], d)

    return EntangledStrategy(
        d, n, state, POVMFamily(n, ops["alice"]), POVMFamily(n, ops["bob"]),
        name=head.get("name", "custom"))
