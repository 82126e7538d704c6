"""Dependency-breaking machinery for repeated two-player games.

A held-out coordinate set C and, per free coordinate, a uniform pointer
(d_j, m_j) to one player's question, together break the correlation between
the two players' question tuples.  The pointer is a fixed product kernel
P(d_j, m_j | x_j, y_j), so this module never materializes the joint table
of questions, answers and pointers: each free coordinate's context table is
contracted from the Born table with that kernel, and the question law the
operators read is a product over the rounds of mu times it.  From these it
builds the coarse and fine measurement operators conditioned on partial
information, the conditional bipartite states with their weights, and the
distance and mutual-information diagnostics that certify the construction
on explicit strategies.  `extended_joint` builds the full table as a reference.

The dependency-breaking value r = (omega, a_C, b_C) of a free coordinate
is one finite variable: it is passed as a flat index into that coordinate's
`ContextTable`.  The table's `given_won` is the one law given W_C, the event
that every held round is won, over the one P(W_C) read off the Born table:
the laws of r, the skew report and the reduction's question skew read it.
Every aligned factor and fine POVM of a free coordinate is kept as a stack
over its contexts, and one gather reads those stacks with flat arrays of
contexts, each player from their own part of r; the kernels take
`(..., d, d)` stacks, a 2-D input being a stack of one.  Each stack is the
product of a dense question law with the per-question POVM sums.  The
stacks are built, and the walks gathered, in blocks of at most
CHUNK_ENTRIES d x d entries (`chunks`); the kernels work per matrix, so a
stack does not depend on the block size.  `fine_povm` builds a context's
aligned factor S = U A^(1/2) and its fine POVM, conjugated by U, from one
decomposition of the coarse operator A, on A's support only
(COARSE_SUPPORT).
One-assignment pointer constraints are {name: value} dicts ("d2", ...).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .games import Game, a_names, b_names, win_set
from .infotheory import CQState, cq_mutual_information
from .prob import (MAX_TABLE_ENTRIES, ZERO_MASS, FiniteDistribution,
                   ZeroProbabilityEvent)
from .strategy import (EntangledStrategy, born_joint, pure_born_table,
                       symmetrize)

ALICE = 0
BOB = 1

ZERO_WEIGHT = 1e-12     # a conditional state's weight at most this: no state
SUPPORT_MASS = 1e-12    # a context's probability at most this: not visited
COARSE_SUPPORT = 1e-12  # relative eigenvalue cut of a coarse operator's support
CHECK_ATOL = 1e-8       # residual a usefulness or weight check passes at
XI_SLACK = 1e-6         # slack of the xi information bound
TRIANGLE_SLACK = 1e-9   # slack of the sampleability triangle inequality
SCORE_TIE = 1e-15       # a holdout must beat the best score by more to replace it
CHUNK_ENTRIES = 2 ** 14  # d x d entries one block builds or gathers per stack
AUTO_TMAX = 2           # C="auto" searches holdouts of at most this many rounds


def d_name(j: int) -> str:
    return f"d{j + 1}"


def m_name(j: int) -> str:
    return f"m{j + 1}"


def x_names_at(j: int) -> str:
    return f"x{j + 1}"


def y_names_at(j: int) -> str:
    return f"y{j + 1}"


def _pointer_kernel(g: Game) -> np.ndarray:
    """P(d_j, m_j | x_j, y_j) as an (X, Y, 2, max(X, Y)) array: a uniform
    side d_j, and m_j that side's question copied."""
    pointer = np.zeros((g.x_size, g.y_size, 2, max(g.x_size, g.y_size)))
    x, y = np.ogrid[:g.x_size, :g.y_size]
    pointer[x, y, ALICE, x] = 0.5
    pointer[x, y, BOB, y] = 0.5
    return pointer


def _check_cells(what: str, cells: int) -> None:
    """Refuse a table of more than MAX_TABLE_ENTRIES cells before it is
    allocated."""
    if cells > MAX_TABLE_ENTRIES:
        raise ValueError(f"{what} would need {cells} cells, above the "
                         f"{MAX_TABLE_ENTRIES} entry cap")


def extended_joint(g: Game, n: int, s: EntangledStrategy,
                   C) -> FiniteDistribution:
    """Joint table over questions, answers, and per-coordinate pointers.

    Free coordinates (those outside C) each get a uniform side indicator d_j
    and the copied question m_j; coordinates in C keep only (x_j, y_j).
    The (x, y, a, b) marginal is exactly the strategy's output distribution.
    `DepBreakComputer` never builds it: it is the reference its context
    and question tables are checked against.
    """
    C = frozenset(int(c) for c in C)
    if any(c < 0 or c >= n for c in C):
        raise ValueError("C must be a subset of range(n)")
    free = [j for j in range(n) if j not in C]
    _check_cells("extended joint",
                 (g.x_size * g.y_size * g.a_size * g.b_size) ** n
                 * (2 * max(g.x_size, g.y_size)) ** len(free))
    dist = born_joint(g, n, s)
    names, table = dist.names, dist.table
    pointer = _pointer_kernel(g)
    for j in free:
        shape = [1] * table.ndim
        shape[j], shape[n + j] = g.x_size, g.y_size
        table = table[..., None, None] * pointer.reshape(shape + [2, -1])
        names += (d_name(j), m_name(j))
    return FiniteDistribution(names, table, normalize=True)


def _require_held_won(p_win_c: float) -> float:
    """P(W_C), refused at most ZERO_MASS: no law conditions on W_C."""
    if p_win_c <= ZERO_MASS:
        raise ZeroProbabilityEvent("holdout rounds are never all won")
    return p_win_c


@dataclass(frozen=True)
class CSelection:
    C: tuple
    score: float
    evaluated: int
    skipped: int


def choose_C(joint: FiniteDistribution, g: Game, n: int,
             t_max: int) -> CSelection:
    """Search all coordinate subsets of size <= t_max for the best holdout.

    The score of C is the average over free coordinates i of the win
    probability in round i conditioned on winning every round of C.
    Candidates of P(win C) at most ZERO_MASS are skipped.  Ties, scores
    within SCORE_TIE, keep the earliest candidate in (size, lexicographic)
    order, so the empty set wins when conditioning is inert.
    """
    if not 0 < t_max <= n:
        raise ValueError("t_max must be in [1, n]")
    best = None
    evaluated = 0
    skipped = 0
    for size in range(0, min(t_max, n - 1) + 1):
        for C in itertools.combinations(range(n), size):
            p_c = joint.prob(win_set(g, n, C))
            if p_c <= ZERO_MASS:
                skipped += 1
                continue
            free = [i for i in range(n) if i not in C]
            score = 0.0
            for i in free:
                score += joint.prob(win_set(g, n, tuple(sorted(C + (i,))))) / p_c
            score /= len(free)
            evaluated += 1
            if best is None or score > best[0] + SCORE_TIE:
                best = (score, C)
    if best is None:
        raise ZeroProbabilityEvent("every candidate subset has zero win mass")
    score, C = best
    return CSelection(C, float(score), evaluated, skipped)


@dataclass(frozen=True)
class SkewReport:
    """Per-coordinate and averaged conditioning-skew distances.

    item1: tv between the (pointer, x_i, y_i) law with and without the
           holdout-win conditioning; the pointer is a channel on
           (x_i, y_i), so this is the tv of the (x_i, y_i) laws.
    item2: tv between the conditioned (x_i, y_i, rest) law and the product
           of the one-round question law with P(rest | x_i, conditioned).
    item3: same with the roles of x_i and y_i exchanged.
    """
    free: tuple
    item1: tuple
    item2: tuple
    item3: tuple
    avg1: float
    avg2: float
    avg3: float
    delta: float
    p_win_c: float

    def ok(self) -> bool:
        """Each averaged distance is a total variation, so lies in [0, 1]."""
        return all(0.0 <= v <= 1.0 for v in (self.avg1, self.avg2, self.avg3))


def _product_distance(won: np.ndarray, mu: np.ndarray, anchor: int) -> float:
    """tv(won(r, x, y), mu(x, y) P(r | anchor question, won)) for a law
    won over (r, x_i, y_i); anchor 1 is x_i, 2 is y_i.  Zero-mass anchor
    rows contribute their full one-round mass to the distance."""
    anchored = won.sum(axis=3 - anchor, keepdims=True)
    row_mass = anchored.sum(axis=0, keepdims=True)
    ok = row_mass > SUPPORT_MASS
    kernel = np.where(ok, anchored / np.where(ok, row_mass, 1.0), 0.0)
    return 0.5 * float(np.abs(won - mu * kernel).sum())


def _coarse_support(coarse: np.ndarray) -> tuple:
    """Ascending eigenpairs (w, v) of a coarse operator or stack and its
    support mask, eigenvalues above COARSE_SUPPORT times the largest;
    refused as `matcore.mat_sqrt` refuses (`matcore.psd_eigh`)."""
    w, v = matcore.psd_eigh(coarse, "coarse operator")
    return w, v, w > COARSE_SUPPORT * np.maximum(w[..., -1:], 0.0)


def aligned_operators(coarse: np.ndarray, rho: np.ndarray) -> tuple:
    """Factor S = U A^(1/2) with U unitary chosen so S sqrt(rho) is PSD.

    coarse is one operator or a `(..., d, d)` stack of them; returns
    (S, U, support), S and U of the same shape and support the
    `_coarse_support` triple (w, v, keep) the root was taken on, so
    S-dagger-S is the coarse operator projected on that support.  The PSD
    alignment makes states built from S comparable across contexts without
    a floating phase.
    """
    w, v, keep = _coarse_support(coarse)
    root = np.sqrt(np.where(keep, w, 0.0))
    a_half = (v * root[..., None, :]) @ matcore.dagger(v)
    a_half = (a_half + matcore.dagger(a_half)) / 2
    sqrt_rho = matcore.mat_sqrt(rho, "reduced state")
    u = matcore.polar_psd_factor(a_half @ sqrt_rho)
    return u @ a_half, u, (w, v, keep)


def fine_povm(fine_coarse: np.ndarray, rho: np.ndarray) -> tuple:
    """Aligned factor and answer measurements of one coarse operator.

    fine_coarse `(..., k, d, d)` sums over its answers to A.  Returns
    (S, F) from one `aligned_operators` call on A: S = U A^(1/2), and F
    `(..., k + 1, d, d)`, the k elements U A^(+1/2) F_a A^(+1/2) U-dagger
    on the support S was cut on, and a null outcome completing each family
    to the identity.

    The inverse roots are applied in A's eigenbasis, where each element is
    dominated: entry (j, l) divided by sqrt(w_j w_l) stays bounded by one,
    so the result is accurate even when A is ill conditioned.  A per-matrix
    keep mask zeroes the columns outside the support.
    """
    k, d = fine_coarse.shape[-3], fine_coarse.shape[-1]
    s, u, (w, v, keep) = aligned_operators(fine_coarse.sum(axis=-3), rho)
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    vs = v * keep[..., None, :]
    q = (u @ vs)[..., None, :, :]
    scale = inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    vs = vs[..., None, :, :]
    # contiguous conjugate transposes: a strided operand makes every
    # product of the stack slower, with the same result
    g = np.ascontiguousarray(matcore.dagger(vs)) @ fine_coarse @ vs
    e = q @ (g * scale[..., None, :, :]) @ np.ascontiguousarray(
        matcore.dagger(q))
    out = np.empty(e.shape[:-3] + (k + 1, d, d), dtype=np.complex128)
    elements, null = out[..., :k, :, :], out[..., k, :, :]
    np.add(e, matcore.dagger(e), out=elements)
    elements /= 2
    rest = np.eye(d) - elements.sum(axis=-3)
    np.add(rest, matcore.dagger(rest), out=null)
    null /= 2
    return s, out


def dep_state(s_op: np.ndarray, t_op: np.ndarray, psi: np.ndarray) -> tuple:
    """Conditional bipartite state (S (x) T) psi with its weight.

    For one pair of `(d, d)` factors returns (state_vector, weight); the
    state is None when the weight is at most ZERO_WEIGHT, marking the
    context absent.  For `(..., d, d)` stacks returns (states, weights) of
    shapes `(..., d * d)` and `(...)`, an absent context's row all zero.
    """
    d = s_op.shape[-1]
    out = (s_op @ psi.reshape(d, d) @ np.swapaxes(t_op, -1, -2))
    out = out.reshape(out.shape[:-2] + (d * d,))
    weight = (out.real[..., None, :] @ out.real[..., :, None]
              + out.imag[..., None, :] @ out.imag[..., :, None])[..., 0, 0]
    present = weight > ZERO_WEIGHT
    if out.ndim == 1:
        return (out / math.sqrt(weight) if present else None), float(weight)
    norm = np.sqrt(np.where(present, weight, 1.0))
    return np.where(present[..., None], out / norm[..., None], 0.0), weight


@dataclass(frozen=True)
class SideOperators:
    """One side's operators for one free coordinate, as stacks over contexts.

    Indexed [omega, q, held] with omega the flat index of the coordinate's
    `omega_names`, q the side's own round-i question and held the flat
    index of its held answers: own[omega, q, held] is the aligned factor
    S = U A^(1/2), and fine[omega, q, held] the `(k + 1, d, d)` fine POVM
    conjugated by its unitary U.
    """
    own: np.ndarray
    fine: np.ndarray


@dataclass
class UsefulnessReport:
    coords: tuple
    contexts: int
    skipped: int
    max_residual: float
    max_null_mass: float

    def ok(self) -> bool:
        return (self.max_residual <= CHECK_ATOL
                and self.max_null_mass <= CHECK_ATOL)


@dataclass
class WeightReport:
    coords: tuple
    contexts: int
    max_abs_error: float
    max_sum_error: float

    def ok(self) -> bool:
        return (self.max_abs_error <= CHECK_ATOL
                and self.max_sum_error <= CHECK_ATOL)


@dataclass
class SampleabilityReport:
    coords: tuple
    d_alice: float
    d_bob: float
    d_cross: float
    per_coord: dict
    skipped_mass: float
    max_triangle_slack: float

    def ok(self) -> bool:
        return self.max_triangle_slack <= TRIANGLE_SLACK


@dataclass(frozen=True)
class XiRazReport:
    side: str
    avg_mi: float
    delta: float
    tight_bound: float
    per_coord: tuple

    def ok(self) -> bool:
        return self.avg_mi <= self.delta + XI_SLACK


@dataclass(frozen=True)
class ContextTable:
    """Law of one free coordinate's dependency-breaking value r.

    r = (omega, a_C, b_C) is indexed flat over the variables `names` with
    sizes `sizes`: omega (the other free coordinates' pointers, then the
    held questions x_C and y_C), then the held answers a_C and b_C, with
    `held` = |C|.  joint[r, x_i, y_i, a_i, b_i] is the probability of that
    assignment (contracted from the Born table), held_won[r] marks the
    contexts that win every held round, and p_win_c is P(W_C).
    """
    names: tuple
    sizes: tuple
    held: int
    joint: np.ndarray
    held_won: np.ndarray
    p_win_c: float

    def split(self, flat: int) -> tuple:
        """(omega as a {name: value} dict, a_C, b_C) of a flat r."""
        vals = tuple(int(v) for v in np.unravel_index(flat, self.sizes))
        k = len(vals) - 2 * self.held
        return (dict(zip(self.names[:k], vals[:k])),
                vals[k:k + self.held], vals[k + self.held:])

    @functools.cached_property
    def given_won(self) -> np.ndarray:
        """P(r, x_i, y_i, a_i, b_i | W_C): the held-won cells of `joint`
        over `p_win_c`, formed on first read (the usefulness and weight
        walks never read it) and refused by `_require_held_won`."""
        return (self.joint * self.held_won[:, None, None, None, None]
                / _require_held_won(self.p_win_c))

    def law(self, x: int | None = None,
            y: int | None = None) -> np.ndarray | None:
        """Flat law of r given W_C and, when set, x_i = x and y_i = y: a
        marginal of `given_won`, or None when that evidence has conditional
        mass at most ZERO_MASS, the cut `FiniteDistribution.given` makes."""
        xs = slice(None) if x is None else slice(x, x + 1)
        ys = slice(None) if y is None else slice(y, y + 1)
        p = self.given_won[:, xs, ys].sum(axis=(1, 2, 3, 4))
        mass = float(p.sum())
        return p / mass if mass > ZERO_MASS else None

    def question_skew(self) -> float:
        """Total variation between P(x_i, y_i) and P(x_i, y_i | W_C), the
        skew report's item1 of this coordinate."""
        drift = (self.given_won.sum(axis=(3, 4)).sum(axis=0)
                 - self.joint.sum(axis=(3, 4)).sum(axis=0))
        return 0.5 * float(np.abs(drift).sum())


def _contract(law: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """law @ ops for a complex (Q, ...) stack, as one real einsum over its
    float view.  The einsum sums each row in the same order however many
    rows law holds, so a walk's rows are bit-identical at every block
    budget, and the one-context `fine_family` equals the stacks; a BLAS
    product gives other bits for a one-row block than for a many-row one."""
    ops = np.ascontiguousarray(ops, dtype=np.complex128)
    return np.einsum("nq,q...->n...", law,
                     ops.view(np.float64)).view(np.complex128)


def chunks(total: int, entries: int) -> list:
    """Slices covering range(total) rows, each row holding `entries` matrix
    entries (its contexts times d * d), so that a slice builds or gathers at
    most CHUNK_ENTRIES entries per stack, and at least one row: at d = 8 a
    walk's block is 256 contexts, at d = 16 it is 64."""
    step = max(1, CHUNK_ENTRIES // entries)
    return [slice(lo, min(total, lo + step)) for lo in range(0, total, step)]


def conditioned_contexts(g: Game, table: ContextTable) -> tuple:
    """The contexts a conditioned walk visits, with their weights.

    For each (x, y) with mu(x, y) > 0, in row-major order, the flat r of
    P(r | x, y, every held round won) above SUPPORT_MASS, weighted by
    mu(x, y) times that probability.  Returns flat arrays (r, x, y, weight)
    plus the mu mass and the number of question pairs whose law does not
    exist (`ContextTable.law` returns None).
    """
    parts = []
    lost_mass, lost_pairs = 0.0, 0
    for x, y in np.argwhere(g.mu > 0.0).tolist():
        w_q = float(g.mu[x, y])
        law = table.law(x, y)
        if law is None:
            lost_mass += w_q
            lost_pairs += 1
            continue
        r = np.flatnonzero(law > SUPPORT_MASS)
        parts.append((r, np.full(r.size, x), np.full(r.size, y), w_q * law[r]))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(0), lost_mass, lost_pairs
    r, x, y, w = (np.concatenate(col) for col in zip(*parts))
    return r, x, y, w, lost_mass, lost_pairs


class DepBreakComputer:
    """Builds and checks every object tied to one (game, strategy, C) triple.

    The input strategy is symmetrized once so the shared state has equal
    reduced density matrices on both sides; this leaves the output
    distribution unchanged and is required by the aligned factors.  C is a
    coordinate tuple, or "auto" for `choose_C`'s pick on the Born table.  It
    holds the Born table `born` of the symmetrized strategy, P(win C)
    `p_win_c` read from it; each context table and each question law is
    refused before allocating when it would exceed MAX_TABLE_ENTRIES.
    """

    def __init__(self, g: Game, n: int, s: EntangledStrategy, C):
        if s.n != n:
            raise ValueError("strategy round count does not match n")
        self.game = g
        self.n = int(n)
        self.strategy, _ = symmetrize(s)
        self.d = self.strategy.d
        self.born = None
        if isinstance(C, str):
            if C != "auto":
                raise ValueError("C must be a tuple or 'auto'")
            # the symmetrized strategy has the input's output distribution
            self.born = born_joint(g, self.n, self.strategy)
            C = choose_C(self.born, g, self.n, min(AUTO_TMAX, self.n)).C
        self.C = tuple(sorted({int(c) for c in C}))
        if any(c < 0 or c >= n for c in self.C):
            raise ValueError("C must be a subset of range(n)")
        self.free = tuple(j for j in range(n) if j not in self.C)
        if not self.free:
            raise ValueError("C leaves no free coordinates")
        # the values of every question and pointer variable a law may name
        self._sizes = dict(
            [(x_names_at(j), g.x_size) for j in range(n)]
            + [(y_names_at(j), g.y_size) for j in range(n)]
            + [(nm, k) for j in self.free for nm, k in (
                (d_name(j), 2), (m_name(j), max(g.x_size, g.y_size)))])
        if self.born is None:
            self.born = born_joint(g, self.n, self.strategy)
        self.p_win_c = self.born.prob(win_set(g, self.n, self.C))

        # the symmetrized state gives both players this reduced state
        m = self.strategy.psi_matrix
        rho = m @ m.conj().T
        self.rho = (rho + rho.conj().T) / 2
        self._contexts = {}
        self._operators = {}
        self._via = {}

    @property
    def delta(self) -> float:
        """(log2 1/P(W_C) + |C| log2(A B)) / m, the information budget of
        the m free rounds; refused by `_require_held_won`."""
        ab = self.game.a_size * self.game.b_size
        return (math.log2(1.0 / _require_held_won(self.p_win_c))
                + len(self.C) * math.log2(ab)) / len(self.free)

    def win_given_held(self, i: int) -> float:
        """P(win round i | W_C) off the Born table, as `p_win_c` is, so a
        round that is always won reads exactly 1."""
        both = win_set(self.game, self.n, tuple(sorted(self.C + (i,))))
        return self.born.prob(both) / _require_held_won(self.p_win_c)

    @functools.cached_property
    def ext(self) -> FiniteDistribution:
        """The extended joint table of this (game, strategy, C), built on
        first read: a reference for tests and the benchmark harness.
        Nothing in the package reads it."""
        return extended_joint(self.game, self.n, self.strategy, self.C)

    # ---- variable bookkeeping -------------------------------------------

    def omega_names(self, exclude: int | None = None) -> tuple:
        """The pointers of the free rounds but exclude, then the held
        questions; an exclude that is not free is refused, naming it."""
        if exclude is not None and exclude not in self.free:
            raise ValueError(f"coordinate {exclude} is not free; the free "
                             f"coordinates are {self.free}")
        names = []
        for j in self.free:
            if j != exclude:
                names.extend((d_name(j), m_name(j)))
        names.extend(x_names_at(c) for c in self.C)
        names.extend(y_names_at(c) for c in self.C)
        return tuple(names)

    def r_names(self, exclude: int) -> tuple:
        names = list(self.omega_names(exclude))
        names.extend(a_names(self.n)[c] for c in self.C)
        names.extend(b_names(self.n)[c] for c in self.C)
        return tuple(names)

    def contexts(self, i: int) -> ContextTable:
        """The context table of free coordinate i, built once.

        Contracted from the Born table: the answers of the other free
        rounds are summed out, and each other free round's (x_j, y_j) is
        contracted with the pointer kernel P(d_j, m_j | x_j, y_j); the held
        rounds and round i keep their questions and answers.  Refused
        before allocating when it would exceed MAX_TABLE_ENTRIES.
        """
        if i not in self._contexts:
            g, n = self.game, self.n
            names = self.r_names(i)
            others = [j for j in self.free if j != i]
            _check_cells(f"context table of coordinate {i}",
                         (2 * max(g.x_size, g.y_size)) ** len(others)
                         * (g.x_size * g.y_size * g.a_size * g.b_size)
                         ** (len(self.C) + 1))
            born = self.born
            drop = tuple(born.axis(nm) for j in others
                         for nm in (a_names(n)[j], b_names(n)[j]))
            t = born.table.sum(axis=drop)
            axes = [nm for k, nm in enumerate(born.names) if k not in drop]
            pointer = _pointer_kernel(g)
            for j in others:
                xy = (axes.index(x_names_at(j)), axes.index(y_names_at(j)))
                t = np.einsum("...xy,xydm->...dm",
                              np.moveaxis(t, xy, (-2, -1)), pointer)
                axes = [nm for nm in axes if nm not in (x_names_at(j),
                                                        y_names_at(j))]
                axes += [d_name(j), m_name(j)]
            order = names + (x_names_at(i), y_names_at(i), a_names(n)[i],
                             b_names(n)[i])
            t = np.transpose(t, [axes.index(nm) for nm in order])
            sizes = t.shape[:len(names)]
            # the held variables are r's trailing axes, in win_set's order
            won = np.broadcast_to(win_set(g, n, self.C).mask, sizes).ravel()
            self._contexts[i] = ContextTable(
                names, sizes, len(self.C),
                t.reshape((-1,) + t.shape[len(names):]), won, self.p_win_c)
        return self._contexts[i]

    # ---- measurement operators ------------------------------------------

    def _op_tensor(self, side: str, kept: tuple) -> np.ndarray:
        """The side's POVMs summed over answers outside the kept coordinates,
        stacked over flat own-question tuples: (Q^n, answers of kept in the
        order of kept..., d, d)."""
        fam = self.strategy.alice if side == "alice" else self.strategy.bob
        n, held = self.n, sorted(kept)
        drop = tuple(n + j for j in range(n) if j not in kept)
        ops = fam.ops.sum(axis=drop) if drop else fam.ops
        # contiguous once here, not on each block's contraction
        ops = np.ascontiguousarray(np.moveaxis(
            ops, [n + held.index(j) for j in kept], range(n, n + len(kept))))
        return ops.reshape((-1,) + ops.shape[n:])

    def _question_law(self, side: str, names: tuple) -> tuple:
        """P(own question tuple | names) for every assignment of names.

        Returns (law, mass): law[k, q] is the conditional weight of the flat
        own-question tuple q given the k-th flat assignment of names
        (row-major), and mass[k] that assignment's probability.  Given the
        pointers and the held questions the rounds are independent, so the
        joint is an outer product of one factor per round: mu(x_j, y_j),
        times the pointer kernel where round j's pointer is named, summed
        over what is neither named nor the side's own question; a named own
        question pins its digit of q.  Weights at most SUPPORT_MASS are cut
        to zero, and an assignment of mass at most ZERO_MASS gets an
        all-zero row.  Refused before allocating when the law would exceed
        MAX_TABLE_ENTRIES.
        """
        g, n = self.game, self.n
        own_at = x_names_at if side == "alice" else y_names_at
        rows = math.prod(self._sizes[nm] for nm in names)
        q = self._sizes[own_at(0)]
        _check_cells("question law", rows * q ** n)
        pointer = _pointer_kernel(g)
        joint, axes = np.ones(()), []   # q's digit of round j: axis named j
        for j in range(n):
            vars_j, f = [x_names_at(j), y_names_at(j)], g.mu
            if d_name(j) in names:
                vars_j += [d_name(j), m_name(j)]
                f = f[:, :, None, None] * pointer
            keep = [k for k, nm in enumerate(vars_j)
                    if nm in names or nm == own_at(j)]
            f = f.sum(axis=tuple(k for k in range(f.ndim) if k not in keep))
            vars_j = [vars_j[k] for k in keep]
            if own_at(j) in names:
                f = f[..., None] * np.eye(q).reshape(
                    [q if nm == own_at(j) else 1 for nm in vars_j] + [q])
                vars_j.append(j)
            else:
                vars_j[vars_j.index(own_at(j))] = j
            joint = np.multiply.outer(joint, f)
            axes += vars_j
        joint = np.transpose(joint, [axes.index(nm) for nm in names]
                             + [axes.index(j) for j in range(n)])
        joint = joint.reshape(rows, -1)
        mass = joint.sum(axis=1)
        ok = mass > ZERO_MASS
        law = np.where(ok[:, None], joint / np.where(ok, mass, 1.0)[:, None],
                       0.0)
        law[law <= SUPPORT_MASS] = 0.0
        return law, mass

    def _one_assignment(self, side: str, kept: tuple,
                        constraints: dict) -> np.ndarray:
        names = tuple(constraints)
        row = np.ravel_multi_index(
            tuple(int(constraints[nm]) for nm in names),
            tuple(self._sizes[nm] for nm in names))
        law, mass = self._question_law(side, names)
        if mass[row] <= ZERO_MASS:
            raise ZeroProbabilityEvent(
                f"assignment {dict(constraints)} has mass {mass[row]:.3e}")
        return _contract(law[row:row + 1], self._op_tensor(side, kept))[0]

    def coarse_family(self, side: str, constraints: dict) -> np.ndarray:
        """Held-round answer POVM averaged over the unknown questions.

        constraints pins pointer variables plus optionally one question of
        the given side; the result has one leading axis per held coordinate.
        """
        return self._one_assignment(side, self.C, constraints)

    def aligned(self, side: str, constraints: dict, held) -> tuple:
        """Aligned factor (S, U) for one held-answer value in one context."""
        held = tuple(int(v) for v in held)
        return aligned_operators(self.coarse_family(side, constraints)[held],
                                 self.rho)[:2]

    def fine_family(self, side: str, i: int, constraints: dict,
                    held) -> np.ndarray:
        """Fine POVM of round i for one held-answer value in one context:
        the construction of `operators(i)` on a stack of one."""
        held = tuple(int(v) for v in held)
        fine = self._one_assignment(side, self.C + (i,), constraints)[held]
        return fine_povm(fine, self.rho)[1]

    def operators(self, i: int) -> dict:
        """The aligned factors and fine POVMs of free coordinate i, per
        side, built once as stacks over the coordinate's contexts and kept
        until `release(i)`."""
        if i not in self._operators:
            self._operators[i] = {side: self._side_operators(side, i)
                                  for side in ("alice", "bob")}
        return self._operators[i]

    def release(self, i: int) -> None:
        """Drop the operator stacks and via factors of free coordinate i;
        a later walk over i builds them again."""
        self._operators.pop(i, None)
        self._via.pop(i, None)

    def _side_operators(self, side: str, i: int) -> SideOperators:
        omega = self.omega_names(i)
        own_q, k = ((x_names_at(i), self.game.a_size) if side == "alice"
                    else (y_names_at(i), self.game.b_size))
        n_omega, d = math.prod(self._sizes[nm] for nm in omega), self.d
        n_held = k ** len(self.C)
        law, _ = self._question_law(side, omega + (own_q,))
        ops = self._op_tensor(side, self.C + (i,))
        own = np.empty((len(law), n_held, d, d), dtype=np.complex128)
        fam = np.empty((len(law), n_held, k + 1, d, d), dtype=np.complex128)
        for part in chunks(len(law), n_held * d * d):
            fine = _contract(law[part], ops).reshape(-1, k, d, d)
            # no result stays bound into the next block, beside its temporaries
            own[part], fam[part] = (a.reshape((-1, n_held) + a.shape[1:])
                                    for a in fine_povm(fine, self.rho))
        return SideOperators(own.reshape(n_omega, -1, n_held, d, d),
                             fam.reshape(n_omega, -1, n_held, k + 1, d, d))

    def via_factors(self, i: int) -> dict:
        """Per side, the aligned factors of free coordinate i when round i's
        pointer names the other player, built once: [omega, m, held] is the
        factor for that player's question m."""
        if i not in self._via:
            omega = self.omega_names(i)
            n_omega, d = math.prod(self._sizes[nm] for nm in omega), self.d
            m_size = self._sizes[m_name(i)]
            out = {}
            for side, other in (("alice", BOB), ("bob", ALICE)):
                law, _ = self._question_law(
                    side, omega + (d_name(i), m_name(i)))
                law = law.reshape(n_omega, 2, m_size, -1)[:, other]
                law = law.reshape(-1, law.shape[-1])
                ops = self._op_tensor(side, self.C)
                n_held = math.prod(ops.shape[1:-2])
                via = np.empty((len(law), n_held, d, d), dtype=np.complex128)
                for part in chunks(len(law), n_held * d * d):
                    s_via, *_ = aligned_operators(
                        _contract(law[part], ops).reshape(-1, d, d), self.rho)
                    via[part] = s_via.reshape(-1, n_held, d, d)
                out[side] = via.reshape(n_omega, m_size, -1, d, d)
            self._via[i] = out
        return self._via[i]

    def _gather(self, i: int, side: str, stack: str, r, q) -> np.ndarray:
        """The one reader of free coordinate i's stacks: Alice reads flat
        r's (omega, a_C), Bob (omega, b_C).  stack "own" is the side's
        aligned factor and "fine" its fine POVM at its own question q;
        "via" is its aligned factor when round i's pointer names the other
        player with question q.  r and q broadcast as arrays of contexts."""
        n_b = self.game.b_size ** len(self.C)
        omega, held = divmod(r, self.game.a_size ** len(self.C) * n_b)
        held = held // n_b if side == "alice" else held % n_b
        ops = (self.via_factors(i)[side] if stack == "via"
               else getattr(self.operators(i)[side], stack))
        return ops[omega, q, held]

    def fine_families(self, i: int, r_a, r_b, x_i, y_i) -> tuple:
        """Alice's fine family from her flat r_a, Bob's from his r_b;
        arrays of contexts give `(..., k + 1, d, d)` stacks."""
        return (self._gather(i, "alice", "fine", r_a, x_i),
                self._gather(i, "bob", "fine", r_b, y_i))

    # ---- states ----------------------------------------------------------

    def state_for(self, i: int, r, x_i, y_i) -> tuple:
        """Dependency-breaking state and weight for (flat r, x_i, y_i);
        arrays of contexts give `dep_state`'s stacked form."""
        return dep_state(self._gather(i, "alice", "own", r, x_i),
                         self._gather(i, "bob", "own", r, y_i),
                         self.strategy.psi)

    def description(self, i: int, side: str, r, q) -> tuple:
        """One player's description of the conditional state, from their
        own context (flat r, own round-i question q): the player's own
        factor at q with the other's via factor at q, round i's pointer
        naming the player.  `dep_state`'s (state, weight), stacked for
        arrays."""
        return dep_state(*(self._gather(i, p, "own" if p == side else "via",
                                        r, q) for p in ("alice", "bob")),
                         self.strategy.psi)

    # ---- checks ----------------------------------------------------------

    def _contexts_by_pair(self, rows: np.ndarray) -> tuple:
        """Every (row, x, y) for row in rows and (x, y) with mu(x, y) > 0,
        row by row and the pairs row-major, as three flat arrays."""
        pairs = np.argwhere(self.game.mu > 0.0)
        return (np.repeat(rows, len(pairs)), np.tile(pairs[:, 0], rows.size),
                np.tile(pairs[:, 1], rows.size))

    def usefulness_check(self, coords=None) -> UsefulnessReport:
        """Compare fine-measurement statistics on the conditional states
        against the round-i answer distribution of the context table.

        Contexts r of probability at most SUPPORT_MASS are not visited; a
        visited (r, x_i, y_i) with no state or with mass at most ZERO_MASS
        counts as skipped.
        """
        coords = tuple(coords) if coords is not None else self.free
        ka, kb = self.game.a_size, self.game.b_size
        max_res = 0.0
        max_null = 0.0
        contexts = 0
        skipped = 0
        for i in coords:
            joint = self.contexts(i).joint
            support = joint.sum(axis=(1, 2, 3, 4)) > SUPPORT_MASS
            r, x, y = self._contexts_by_pair(np.flatnonzero(support))
            for part in chunks(r.size, self.d ** 2):
                rc, xc, yc = r[part], x[part], y[part]
                cell = joint[rc, xc, yc]
                mass = cell.sum(axis=(1, 2))
                states, weights = self.state_for(i, rc, xc, yc)
                ok = (weights > ZERO_WEIGHT) & (mass > ZERO_MASS)
                skipped += int(ok.size - ok.sum())
                if not ok.any():
                    continue
                rc, xc, yc = rc[ok], xc[ok], yc[ok]
                fa, fb = self.fine_families(i, rc, rc, xc, yc)
                born = pure_born_table(states[ok], fa, fb)
                res = np.abs(born[:, :ka, :kb]
                             - cell[ok] / mass[ok, None, None])
                null = (np.abs(born[:, ka, :].sum(axis=1))
                        + np.abs(born[:, :ka, kb].sum(axis=1)))
                max_res = max(max_res, float(res.max()))
                max_null = max(max_null, float(null.max()))
                contexts += int(ok.sum())
        return UsefulnessReport(coords, contexts, skipped, max_res, max_null)

    def weight_check(self, coords=None) -> WeightReport:
        """Compare every state weight against the table conditional, and
        check the weights over held answers sum to one per context."""
        coords = tuple(coords) if coords is not None else self.free
        n_a = self.game.a_size ** len(self.C)
        n_b = self.game.b_size ** len(self.C)
        max_err = 0.0
        max_sum = 0.0
        contexts = 0
        for i in coords:
            full = self.contexts(i).joint
            # axes: omega, a_C, b_C, x_i, y_i, a_i, b_i
            joint = full.reshape((-1, n_a, n_b) + full.shape[1:])
            support = joint.sum(axis=(1, 2, 3, 4, 5, 6)) > SUPPORT_MASS
            omega, x, y = self._contexts_by_pair(np.flatnonzero(support))
            cell = joint[omega, :, :, x, y]       # (N, a_C, b_C, a_i, b_i)
            mass = cell.sum(axis=(1, 2, 3, 4))
            ok = mass > ZERO_MASS
            omega, x, y, cell, mass = omega[ok], x[ok], y[ok], cell[ok], mass[ok]
            held = cell.sum(axis=(3, 4)).reshape(len(mass), -1) / mass[:, None]
            r = omega[:, None] * (n_a * n_b) + np.arange(n_a * n_b)
            for part in chunks(len(mass), n_a * n_b * self.d ** 2):
                _st, w = self.state_for(i, r[part], x[part, None],
                                        y[part, None])
                max_err = max(max_err, float(np.abs(w - held[part]).max()))
                max_sum = max(max_sum,
                              float(np.abs(w.sum(axis=1) - 1.0).max()))
            contexts += int(ok.sum())
        return WeightReport(coords, contexts, max_err, max_sum)

    def sampleability_distances(self, coords=None) -> SampleabilityReport:
        """Average Euclidean distances between the target states and their
        one-sided approximations, weighted by the conditioned context law
        mu(x_i, y_i) P(r | x_i, y_i, every held round won).  As in the
        exact reduction, r of conditional probability at most SUPPORT_MASS
        is left out."""
        coords = tuple(coords) if coords is not None else self.free
        per = {}
        skipped_mass = 0.0
        max_tri = 0.0
        for i in coords:
            r, x, y, w, lost, _ = conditioned_contexts(self.game,
                                                       self.contexts(i))
            skipped_mass += lost
            acc = np.zeros(3)
            mass = 0.0
            for part in chunks(r.size, self.d ** 2):
                rc, xc, yc = r[part], x[part], y[part]
                states = (self.state_for(i, rc, xc, yc),
                          self.description(i, "alice", rc, xc),
                          self.description(i, "bob", rc, yc))
                present = np.logical_and.reduce(
                    [weight > ZERO_WEIGHT for _st, weight in states])
                wp = w[part]
                skipped_mass += float(wp[~present].sum())
                s_xy, s_x, s_y = (st[present] for st, _w in states)
                dist = np.stack([np.linalg.norm(s_xy - s_y, axis=1),
                                 np.linalg.norm(s_xy - s_x, axis=1),
                                 np.linalg.norm(s_x - s_y, axis=1)], axis=1)
                if dist.size:
                    max_tri = max(max_tri, float(
                        (dist[:, 2] - dist[:, 0] - dist[:, 1]).max()))
                acc += wp[present] @ dist
                mass += float(wp[present].sum())
            if mass <= 0.0:
                raise ZeroProbabilityEvent(
                    "no context with positive weight survives conditioning")
            per[i] = tuple(acc / mass)
        avg = np.mean([per[i] for i in coords], axis=0)
        return SampleabilityReport(coords, float(avg[0]), float(avg[1]),
                                   float(avg[2]), per, skipped_mass, max_tri)

    def xi_raz_check(self, side: str = "alice") -> XiRazReport:
        """Average conditional mutual information between one round's
        question and the opposite player's quantum register, measured on
        the post-measurement ensemble, against the answer-volume budget.

        For every omega (all pointers and held questions) of mass above
        SUPPORT_MASS and every held-answer value of weight above
        ZERO_WEIGHT, the ensemble over the side's question tuples (weighted
        by the question law) is bucketed by round i's question; a block of
        trace at most ZERO_WEIGHT is left out."""
        if side not in ("alice", "bob"):
            raise ValueError("side must be 'alice' or 'bob'")
        g, d = self.game, self.d
        k = g.a_size if side == "alice" else g.b_size
        size = g.x_size if side == "alice" else g.y_size
        delta = self.delta
        tight = len(self.C) * math.log2(k) / len(self.free)

        # opposite-register blocks [question tuple, held answers]
        ops = self._op_tensor(side, self.C)
        n_q = ops.shape[0]
        ops = ops.reshape(n_q, -1, d, d)
        m_psi = self.strategy.psi_matrix
        if side == "alice":
            blocks = np.conj(matcore.dagger(m_psi) @ ops @ m_psi)
        else:
            blocks = m_psi @ np.conj(ops) @ matcore.dagger(m_psi)
        tr = np.trace(blocks, axis1=-2, axis2=-1).real
        present = tr > ZERO_WEIGHT
        tr = np.where(present, tr, 0.0)
        blocks = (blocks * present[..., None, None]).reshape(n_q, -1)
        # P(question tuple | omega) as dense rows; (omega, held) masses
        q_law, mass = self._question_law(side, self.omega_names(None))
        weight = q_law @ tr
        rows, held = np.nonzero((mass > SUPPORT_MASS)[:, None]
                                & (weight > ZERO_WEIGHT))
        digits = np.unravel_index(np.arange(n_q), (size,) * self.n)
        per_coord = []
        for i in self.free:
            # split each omega's law by round i's question, one row per value
            coef = (q_law[:, None, :] * (digits[i] == np.arange(size)[:, None])
                    ).reshape(-1, n_q)
            probs = (coef @ tr).reshape(-1, size, tr.shape[1])[rows, :, held]
            states = _contract(coef, blocks).reshape(
                -1, size, tr.shape[1], d, d)[rows, :, held]
            states /= np.where(probs > 0.0, probs, 1.0)[..., None, None]
            mi = cq_mutual_information(CQState(
                probs / probs.sum(axis=1, keepdims=True), states))
            per_coord.append(float((mass[rows] * weight[rows, held]) @ mi))
        avg_mi = float(np.mean(per_coord))
        return XiRazReport(side, avg_mi, delta, tight, tuple(per_coord))

    def skew_report(self) -> SkewReport:
        """Exact conditioning-skew distances for every free coordinate,
        read from the context tables.

        The pointer (d_i, m_i) is a channel on (x_i, y_i), so item1 is the
        distance between P(x_i, y_i) and P(x_i, y_i | every held round
        won).  item2 and item3 compare the law of (r, x_i, y_i) given W_C,
        `ContextTable.given_won`, with its product references.
        """
        g, delta = self.game, self.delta
        item1, item2, item3 = [], [], []
        for i in self.free:
            table = self.contexts(i)
            won = table.given_won.sum(axis=(3, 4))      # (r, x_i, y_i)
            item1.append(table.question_skew())
            item2.append(_product_distance(won, g.mu, 1))
            item3.append(_product_distance(won, g.mu, 2))
        return SkewReport(self.free, tuple(item1), tuple(item2), tuple(item3),
                          float(np.mean(item1)), float(np.mean(item2)),
                          float(np.mean(item3)), delta, self.p_win_c)
