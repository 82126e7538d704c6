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
                    win_set, x_names, y_names)
from .prob import FiniteDistribution, MAX_TABLE_ENTRIES

POVM_EIG_FLOOR = -1e-9
POVM_COMPLETENESS_ATOL = 1e-8
BORN_CHUNK = 2 ** 16     # table cells one born_joint kernel call fills


class POVMFamily:
    """One POVM per question tuple, elements indexed by answer tuples.

    ops[q] is a complex array of shape (answer_size,)*n + (d, d); summing over
    the answer axes gives the identity.
    """

    def __init__(self, n: int, question_size: int, answer_size: int, d: int,
                 ops: dict, validate: bool = True):
        self.n = int(n)
        self.question_size = int(question_size)
        self.answer_size = int(answer_size)
        self.d = int(d)
        self.ops = {tuple(int(v) for v in q): np.asarray(m, dtype=np.complex128)
                    for q, m in ops.items()}
        if validate:
            self.validate()

    def validate(self) -> None:
        expect = set(itertools.product(range(self.question_size), repeat=self.n))
        if set(self.ops) != expect:
            raise ValueError("POVM family does not cover the question tuple space")
        shape = (self.answer_size,) * self.n + (self.d, self.d)
        eye = np.eye(self.d)
        for q in sorted(self.ops):
            m = self.ops[q]
            if m.shape != shape:
                raise ValueError(f"ops[{q}] has shape {m.shape}, expected {shape}")
            total = m.reshape(-1, self.d, self.d).sum(axis=0)
            if matcore.frobenius(total - eye) > POVM_COMPLETENESS_ATOL:
                raise ValueError(f"POVM at question {q} does not sum to identity")
            flat = m.reshape(-1, self.d, self.d)
            herm_dev = np.abs(flat - flat.conj().transpose(0, 2, 1)).max(initial=0.0)
            if herm_dev > matcore.HERMITIAN_ATOL:
                raise ValueError(f"POVM element at question {q} is not Hermitian")
            w = np.linalg.eigvalsh(flat)
            if w.size and float(w.min()) < POVM_EIG_FLOOR:
                raise ValueError(
                    f"POVM element at question {q} has eigenvalue {w.min():.3e}")

    def element(self, q, a) -> np.ndarray:
        return self.ops[tuple(q)][tuple(a)]

    def questions(self):
        return sorted(self.ops)


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

    def answers(self, xt, yt):
        return tuple(self.a_map[tuple(xt)]), tuple(self.b_map[tuple(yt)])


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
    bob_ops = {q: rot @ m @ rot.conj().T for q, m in s.bob.ops.items()}
    bob2 = POVMFamily(s.bob.n, s.bob.question_size, s.bob.answer_size, s.bob.d,
                      bob_ops)
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


def born_joint(g: Game, n: int, s: EntangledStrategy) -> FiniteDistribution:
    """Exact joint distribution of questions and answers for the n-fold game.

    Bob's operators are stacked once; Alice's question tuples are walked in
    chunks of at most BORN_CHUNK table cells, each one `pure_born_table`
    call against every Bob row.
    """
    if s.n != n:
        raise ValueError(f"strategy is for n={s.n}, requested n={n}")
    if s.alice.question_size != g.x_size or s.bob.question_size != g.y_size:
        raise ValueError("strategy question alphabets do not match the game")
    if s.alice.answer_size != g.a_size or s.bob.answer_size != g.b_size:
        raise ValueError("strategy answer alphabets do not match the game")
    entries = (g.x_size * g.y_size * g.a_size * g.b_size) ** n
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"joint table of {entries} entries exceeds the cap")
    d = s.d
    xs = list(itertools.product(range(g.x_size), repeat=n))
    ys = list(itertools.product(range(g.y_size), repeat=n))
    ka, kb = g.a_size ** n, g.b_size ** n
    bob = np.stack([s.bob.ops[yt] for yt in ys]).reshape(-1, d, d)
    weights = question_weights(g, n)[:, :, None, None]
    table = np.empty((len(xs), len(ys), ka, kb))
    step = max(1, BORN_CHUNK // (ka * bob.shape[0]))
    for lo in range(0, len(xs), step):
        part = slice(lo, lo + step)
        fa = np.stack([s.alice.ops[xt] for xt in xs[part]]).reshape(-1, d, d)
        block = table[part]
        p = pure_born_table(s.psi, fa, bob).reshape(
            block.shape[0], ka, len(ys), kb)
        np.multiply(p.transpose(0, 2, 1, 3), weights[part], out=block)
        np.clip(block, 0.0, None, out=block)
    del bob   # FiniteDistribution copies the table; do not hold both
    shape = ((g.x_size,) * n + (g.y_size,) * n + (g.a_size,) * n + (g.b_size,) * n)
    names = x_names(n) + y_names(n) + a_names(n) + b_names(n)
    return FiniteDistribution(names, table.reshape(shape), normalize=True)


def win_probability(g: Game, n: int, s) -> float:
    """Probability of winning every round, for either strategy type."""
    if isinstance(s, DeterministicStrategy):
        xd, yd = tuple_digits(g.x_size, n), tuple_digits(g.y_size, n)
        ad = s.a_map.reshape(-1, n)
        bd = s.b_map.reshape(-1, n)
        won = np.ones((xd.shape[0], yd.shape[0]), dtype=bool)
        for i in range(n):
            won &= g.predicate[xd[:, None, i], yd[None, :, i],
                               ad[:, None, i], bd[None, :, i]]
        return float(question_weights(g, n)[won].sum())
    joint = born_joint(g, n, s)
    return joint.prob(win_set(g, n, range(n)))


def as_entangled(det: DeterministicStrategy, g: Game, d: int = 2,
                 name: str = "deterministic") -> EntangledStrategy:
    """Embed answer functions as answer-independent projective measurements."""
    m = np.eye(d, dtype=np.complex128) / math.sqrt(d)
    psi = m.reshape(-1)
    eye = np.eye(d, dtype=np.complex128)

    def fam(size, answer_size, amap):
        ops = {}
        for q in itertools.product(range(size), repeat=det.n):
            block = np.zeros((answer_size,) * det.n + (d, d), dtype=np.complex128)
            block[tuple(amap[q])] = eye
            ops[q] = block
        return POVMFamily(det.n, size, answer_size, d, ops)

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


def _product_family(n: int, d: int, angle_for) -> dict:
    """angle_for(q_tuple, i) -> measurement angle in round i.

    Each block is the Kronecker product of the rounds' projector pairs,
    built one round at a time by broadcasting: answers so far times the
    new round's answer on the leading axis.
    """
    ops = {}
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
    alice = POVMFamily(n, 2, 2, d, _product_family(
        n, d, lambda q, i: ALICE_ANGLES[q[i]]))
    bob = POVMFamily(n, 2, 2, d, _product_family(
        n, d, lambda q, i: BOB_ANGLES[q[i]]))
    return EntangledStrategy(d, n, m.reshape(-1), alice, bob, name="tsirelson")


def printing(n: int, twist: float = PRINTING_TWIST) -> EntangledStrategy:
    """Correlated variant: the parity of Bob's whole question tuple twists the
    measurement basis he uses in every round, so his round-i behavior encodes
    global information about his inputs."""
    d = 2 ** n
    m = np.eye(d, dtype=np.complex128) / math.sqrt(d)
    alice = POVMFamily(n, 2, 2, d, _product_family(
        n, d, lambda q, i: ALICE_ANGLES[q[i]]))

    def bob_angle(q, i):
        return BOB_ANGLES[q[i]] + twist * (sum(q) % 2)

    bob = POVMFamily(n, 2, 2, d, _product_family(n, d, bob_angle))
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
        for q in fam.questions():
            block = fam.ops[q]
            for a in itertools.product(range(fam.answer_size), repeat=fam.n):
                lines.append(
                    f"povm {side} {','.join(map(str, q))} {','.join(map(str, a))} "
                    + _fmt_complex_block(block[a]))
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

    blocks = {"alice": {}, "bob": {}}
    alphabets = {"alice": (sizes["x_size"], sizes["a_size"]),
                 "bob": (sizes["y_size"], sizes["b_size"])}
    for parts in povm_lines:
        line = " ".join(["povm"] + parts[:3])
        if len(parts) < 3:
            raise ValueError(f"povm line {line!r} needs a side, a question "
                             "tuple and an answer tuple")
        side = parts[0]
        if side not in blocks:
            raise ValueError(f"povm line {line!r} names side {side!r}, "
                             "not alice or bob")
        q_size, a_size = alphabets[side]
        q = _index_tuple(parts[1], n, q_size, line)
        a = _index_tuple(parts[2], n, a_size, line)
        blocks[side].setdefault(q, {})[a] = _parse_complex_block(parts[3:], d)

    def fam(side, q_size, a_size):
        ops = {}
        for q, by_answer in blocks[side].items():
            block = np.zeros((a_size,) * n + (d, d), dtype=np.complex128)
            for a, mat in by_answer.items():
                block[a] = mat
            ops[q] = block
        return POVMFamily(n, q_size, a_size, d, ops)

    return EntangledStrategy(
        d, n, state,
        fam("alice", sizes["x_size"], sizes["a_size"]),
        fam("bob", sizes["y_size"], sizes["b_size"]),
        name=head.get("name", "custom"))
