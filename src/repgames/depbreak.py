"""Dependency-breaking machinery for repeated two-player games.

A held-out coordinate set C and, per free coordinate, a uniform pointer
(d_j, m_j) to one player's question, together break the correlation between
the two players' question tuples.  This module builds the extended joint
table carrying those variables, the coarse and fine measurement operators
conditioned on partial information, the conditional bipartite states with
their weights, and the distance and mutual-information diagnostics that
certify the construction on explicit strategies.

Assignments of the auxiliary variables are passed as {name: value} dicts
using the same variable names as the joint tables ("d2", "m2", "x3", ...).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .games import Game, a_names, b_names, win_set, x_names, y_names
from .infotheory import CQState, cq_mutual_information
from .prob import (MAX_TABLE_ENTRIES, FiniteDistribution, Kernel,
                   ZeroProbabilityEvent, product_extend)
from .strategy import EntangledStrategy, born_joint, symmetrize

ALICE = 0
BOB = 1

ZERO_WEIGHT = 1e-12
SUPPORT_MASS = 1e-12


def d_name(j: int) -> str:
    return f"d{j + 1}"


def m_name(j: int) -> str:
    return f"m{j + 1}"


def _pointer_kernel(g: Game, j: int) -> Kernel:
    """Kernel (x_j, y_j) -> (d_j, m_j): uniform side, question copied."""
    m_size = max(g.x_size, g.y_size)
    table = np.zeros((g.x_size, g.y_size, 2, m_size))
    for x in range(g.x_size):
        for y in range(g.y_size):
            table[x, y, ALICE, x] += 0.5
            table[x, y, BOB, y] += 0.5
    return Kernel((x_names_at(j), y_names_at(j)), (d_name(j), m_name(j)),
                  table, np.ones((g.x_size, g.y_size), dtype=bool))


def x_names_at(j: int) -> str:
    return f"x{j + 1}"


def y_names_at(j: int) -> str:
    return f"y{j + 1}"


def extended_joint(g: Game, n: int, s: EntangledStrategy,
                   C) -> FiniteDistribution:
    """Joint table over questions, answers, and per-coordinate pointers.

    Free coordinates (those outside C) each get a uniform side indicator d_j
    and the copied question m_j; coordinates in C keep only (x_j, y_j).
    The (x, y, a, b) marginal is exactly the strategy's output distribution.
    """
    C = frozenset(int(c) for c in C)
    if any(c < 0 or c >= n for c in C):
        raise ValueError("C must be a subset of range(n)")
    free = [j for j in range(n) if j not in C]
    m_size = max(g.x_size, g.y_size)
    cells = ((g.x_size * g.y_size * g.a_size * g.b_size) ** n
             * (2 * m_size) ** len(free))
    if cells > MAX_TABLE_ENTRIES:
        raise ValueError(f"extended joint would need {cells} cells")
    dist = born_joint(g, n, s)
    for j in free:
        dist = product_extend(dist, _pointer_kernel(g, j))
    return dist


@dataclass(frozen=True)
class CSelection:
    C: tuple
    score: float
    threshold_met: bool
    evaluated: int
    skipped: int


def choose_C(joint: FiniteDistribution, g: Game, n: int, eps: float,
             t_max: int) -> CSelection:
    """Search all coordinate subsets of size <= t_max for the best holdout.

    The score of C is the average over free coordinates i of the win
    probability in round i conditioned on winning every round of C.
    Candidates with zero probability of winning C are skipped.  Ties keep
    the earliest candidate in (size, lexicographic) order, so the empty
    set wins when conditioning is inert.
    """
    if not 0 < t_max <= n:
        raise ValueError("t_max must be in [1, n]")
    best = None
    evaluated = 0
    skipped = 0
    for size in range(0, min(t_max, n - 1) + 1):
        for C in itertools.combinations(range(n), size):
            p_c = joint.prob(win_set(g, n, C))
            if p_c <= 0.0:
                skipped += 1
                continue
            free = [i for i in range(n) if i not in C]
            score = 0.0
            for i in free:
                score += joint.prob(win_set(g, n, tuple(sorted(C + (i,))))) / p_c
            score /= len(free)
            evaluated += 1
            if best is None or score > best[0] + 1e-15:
                best = (score, C)
    if best is None:
        raise ZeroProbabilityEvent("every candidate subset has zero win mass")
    score, C = best
    return CSelection(C, float(score), bool(score >= 1.0 - eps / 2.0),
                      evaluated, skipped)


@dataclass(frozen=True)
class SkewReport:
    """Per-coordinate and averaged conditioning-skew distances.

    item1: tv between the (pointer, x_i, y_i) law with and without the
           holdout-win conditioning.
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

    def ratios(self) -> tuple:
        """Each average divided by sqrt(delta); None when delta is zero."""
        if self.delta <= 0.0:
            return (None, None, None)
        root = math.sqrt(self.delta)
        return (self.avg1 / root, self.avg2 / root, self.avg3 / root)


def _product_reference(cond: FiniteDistribution, mu: np.ndarray,
                       xn: str, yn: str, rest: tuple, anchor: str) -> float:
    """tv(cond(x,y,rest), mu(x,y) * P(rest | anchor, cond)); zero-mass
    anchor rows contribute their full one-round mass to the distance."""
    order = (xn, yn) + rest
    p = cond.marginal(order).table
    anchored = cond.marginal((anchor,) + rest)
    anchor_marg = anchored.table.reshape(anchored.table.shape[0], -1)
    row_mass = anchor_marg.sum(axis=1)
    kernel = np.zeros_like(anchor_marg)
    ok = row_mass > SUPPORT_MASS
    kernel[ok] = anchor_marg[ok] / row_mass[ok, None]
    if anchor == xn:
        ref = mu[:, :, None] * kernel[:, None, :]
    else:
        ref = mu[:, :, None] * kernel[None, :, :]
    return 0.5 * float(np.abs(p - ref.reshape(p.shape)).sum())


def skew_distances(ext: FiniteDistribution, g: Game, n: int, C) -> SkewReport:
    """Exact conditioning-skew distances for every free coordinate."""
    C = tuple(sorted(int(c) for c in C))
    free = [j for j in range(n) if j not in C]
    if not free:
        raise ValueError("C leaves no free coordinates")
    event = win_set(g, n, C)
    p_win_c = ext.prob(event)
    if p_win_c <= 0.0:
        raise ZeroProbabilityEvent("holdout rounds are never all won")
    cond = ext.condition(event)
    m = len(free)
    delta = (math.log2(1.0 / p_win_c)
             + len(C) * math.log2(g.a_size * g.b_size)) / m

    item1, item2, item3 = [], [], []
    for i in free:
        v1 = (d_name(i), m_name(i), x_names_at(i), y_names_at(i))
        before = ext.marginal(v1).table
        after = cond.marginal(v1).table
        item1.append(0.5 * float(np.abs(after - before).sum()))

        rest = tuple(name for j in free if j != i
                     for name in (d_name(j), m_name(j)))
        rest += tuple(x_names_at(c) for c in C)
        rest += tuple(y_names_at(c) for c in C)
        rest += tuple(a_names(n)[c] for c in C)
        rest += tuple(b_names(n)[c] for c in C)
        xn, yn = x_names_at(i), y_names_at(i)
        item2.append(_product_reference(cond, g.mu, xn, yn, rest, xn))
        item3.append(_product_reference(cond, g.mu, xn, yn, rest, yn))

    return SkewReport(tuple(free), tuple(item1), tuple(item2), tuple(item3),
                      float(np.mean(item1)), float(np.mean(item2)),
                      float(np.mean(item3)), delta, p_win_c)


def aligned_operators(coarse: np.ndarray, rho: np.ndarray) -> tuple:
    """Factor S = U A^(1/2) with U unitary chosen so S sqrt(rho) is PSD.

    Returns (S, U).  S-dagger-S recovers the coarse operator exactly, and
    the PSD alignment makes states built from S comparable across contexts
    without a floating phase.
    """
    a_half = matcore.mat_sqrt(coarse, "coarse operator")
    sqrt_rho = matcore.mat_sqrt(rho, "reduced state")
    u = matcore.polar_psd_factor(a_half @ sqrt_rho)
    return u @ a_half, u


def fine_povm(s_op: np.ndarray, fine_coarse: np.ndarray,
              support_tol: float = 1e-12) -> np.ndarray:
    """Answer measurements for the target round from one aligned factor.

    fine_coarse has shape (k, d, d) and sums to the coarse operator that
    produced s_op.  Returns (k + 1, d, d): the k conjugated elements plus a
    reserved null outcome completing the family to the identity.

    The conjugation by the inverse factor is evaluated in the eigenbasis of
    the coarse operator: each element is dominated there, so dividing entry
    (j, l) by sqrt(w_j w_l) keeps every intermediate bounded by one and the
    result stays accurate even when the coarse operator is ill conditioned.
    """
    k, d = fine_coarse.shape[0], fine_coarse.shape[-1]
    coarse = fine_coarse.sum(axis=0)
    coarse = (coarse + coarse.conj().T) / 2
    w, v = np.linalg.eigh(coarse)
    cutoff = support_tol * max(float(w[-1]), 0.0)
    keep = w > cutoff
    out = np.zeros((k + 1, d, d), dtype=np.complex128)
    if not keep.any():
        out[k] = np.eye(d)
        return out
    vs = v[:, keep]
    inv_sqrt = 1.0 / np.sqrt(w[keep])
    # s_op restricted to the support equals an isometry times sqrt(coarse);
    # renormalizing its image columns and polishing recovers that isometry
    # without ever forming an explicit inverse.
    q = s_op @ (vs * inv_sqrt)
    uu, _, vv = np.linalg.svd(q, full_matrices=False)
    q = uu @ vv
    scale = np.outer(inv_sqrt, inv_sqrt)
    for a in range(k):
        g = vs.conj().T @ fine_coarse[a] @ vs
        e = q @ (g * scale) @ q.conj().T
        out[a] = (e + e.conj().T) / 2
    out[k] = np.eye(d) - out[:k].sum(axis=0)
    out[k] = (out[k] + out[k].conj().T) / 2
    return out


def dep_state(s_op: np.ndarray, t_op: np.ndarray, psi: np.ndarray) -> tuple:
    """Conditional bipartite state (S (x) T) psi with its weight.

    Returns (state_vector, weight); the state is None when the weight is
    at most ZERO_WEIGHT, marking the context absent.
    """
    d = s_op.shape[0]
    m = psi.reshape(d, -1)
    out = s_op @ m @ t_op.T
    weight = float(np.linalg.norm(out) ** 2)
    if weight <= ZERO_WEIGHT:
        return None, weight
    return (out / math.sqrt(weight)).reshape(-1), weight


def pure_born_table(state: np.ndarray, fa: np.ndarray,
                    fb: np.ndarray) -> np.ndarray:
    """Joint answer table <state| F_a (x) G_b |state> of two POVM families.

    state is a vector on C^d (x) C^d with Alice's index first; fa and fb
    are (k, d, d) operator stacks.
    """
    d = fa.shape[-1]
    m = state.reshape(d, d)
    inner = m.conj().T @ fa @ m
    return (inner.reshape(fa.shape[0], -1)
            @ fb.reshape(fb.shape[0], -1).T).real


@dataclass
class UsefulnessReport:
    coords: tuple
    contexts: int
    skipped: int
    max_residual: float
    max_null_mass: float
    rows: list = field(default_factory=list, repr=False)

    def ok(self, atol: float = 1e-8) -> bool:
        return self.max_residual <= atol and self.max_null_mass <= atol


@dataclass
class WeightReport:
    coords: tuple
    contexts: int
    max_abs_error: float
    max_sum_error: float
    rows: list = field(default_factory=list, repr=False)

    def ok(self, atol: float = 1e-8) -> bool:
        return self.max_abs_error <= atol and self.max_sum_error <= atol


@dataclass
class SampleabilityReport:
    coords: tuple
    d_alice: float
    d_bob: float
    d_cross: float
    per_coord: dict
    skipped_mass: float
    max_triangle_slack: float
    rows: list = field(default_factory=list, repr=False)


@dataclass(frozen=True)
class XiRazReport:
    side: str
    avg_mi: float
    delta: float
    tight_bound: float
    ok: bool
    per_coord: tuple


class DepBreakComputer:
    """Builds and checks every object tied to one (game, strategy, C) triple.

    The input strategy is symmetrized once so the shared state has equal
    reduced density matrices on both sides; this leaves the output
    distribution unchanged and is required by the aligned factors.
    """

    def __init__(self, g: Game, n: int, s: EntangledStrategy, C):
        if s.n != n:
            raise ValueError("strategy round count does not match n")
        self.game = g
        self.n = int(n)
        self.C = tuple(sorted(int(c) for c in C))
        if any(c < 0 or c >= n for c in self.C):
            raise ValueError("C must be a subset of range(n)")
        self.free = tuple(j for j in range(n) if j not in self.C)
        if not self.free:
            raise ValueError("C leaves no free coordinates")
        self.strategy, _ = symmetrize(s)
        self.d = self.strategy.d
        self.ext = extended_joint(g, n, self.strategy, self.C)
        q_vars = tuple(x_names(n)) + tuple(y_names(n)) + tuple(
            name for j in self.free for name in (d_name(j), m_name(j)))
        self.qext = self.ext.marginal(q_vars)

        m = self.strategy.psi_matrix
        rho_a = m @ m.conj().T
        rho_b = np.conj(m.conj().T @ m)
        self.rho = {"alice": (rho_a + rho_a.conj().T) / 2,
                    "bob": (rho_b + rho_b.conj().T) / 2}
        self._coarse_cache = {}
        self._aligned_cache = {}
        self._held_sums = {"alice": self._sum_ops("alice", self.C),
                           "bob": self._sum_ops("bob", self.C)}
        self._fine_sums = {}

    # ---- variable bookkeeping -------------------------------------------

    def omega_names(self, exclude: int | None = None) -> tuple:
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

    def _support(self, names: tuple):
        """Assignments of the named variables with positive probability."""
        if not names:
            yield {}, 1.0
            return
        marg = self.qext.marginal(names) if all(
            n_ in self.qext.names for n_ in names) else self.ext.marginal(names)
        table = marg.table
        for idx in np.argwhere(table > SUPPORT_MASS):
            yield dict(zip(names, (int(v) for v in idx))), float(table[tuple(idx)])

    def r_support(self, i: int):
        names = self.r_names(i)
        marg = self.ext.marginal(names)
        for idx in np.argwhere(marg.table > SUPPORT_MASS):
            yield dict(zip(names, (int(v) for v in idx))), float(
                marg.table[tuple(idx)])

    # ---- measurement operators ------------------------------------------

    def _sum_ops(self, side: str, kept) -> dict:
        """Per-question operators summed over answers outside kept coords."""
        fam = self.strategy.alice if side == "alice" else self.strategy.bob
        drop = tuple(j for j in range(self.n) if j not in kept)
        return {q: fam.ops[q].sum(axis=drop) if drop else fam.ops[q]
                for q in fam.ops}

    def _fine_sum_ops(self, side: str, i: int) -> dict:
        key = (side, i)
        if key not in self._fine_sums:
            self._fine_sums[key] = self._sum_ops(
                side, tuple(sorted(self.C + (i,))))
        return self._fine_sums[key]

    def _question_support(self, side: str, constraints: dict):
        """Full own-question tuples and weights given pointer constraints."""
        names = x_names(self.n) if side == "alice" else y_names(self.n)
        cond = self.qext.given(constraints)
        remaining = [nm for nm in names if nm in cond.names]
        fixed = {nm: constraints[nm] for nm in names if nm in constraints}
        if remaining:
            marg = cond.marginal(tuple(remaining))
            for idx in np.argwhere(marg.table > SUPPORT_MASS):
                assign = dict(fixed)
                assign.update(zip(remaining, (int(v) for v in idx)))
                q = tuple(assign[nm] for nm in names)
                yield q, float(marg.table[tuple(idx)])
        else:
            yield tuple(fixed[nm] for nm in names), 1.0

    def coarse_family(self, side: str, constraints: dict) -> np.ndarray:
        """Held-round answer POVM averaged over the unknown questions.

        constraints pins pointer variables plus optionally one question of
        the given side; the result has one leading axis per held coordinate.
        """
        key = (side, tuple(sorted(constraints.items())))
        if key not in self._coarse_cache:
            sums = self._held_sums[side]
            shape = (self.game.a_size if side == "alice"
                     else self.game.b_size,) * len(self.C) + (self.d, self.d)
            out = np.zeros(shape, dtype=np.complex128)
            for q, w in self._question_support(side, constraints):
                out += w * sums[q]
            self._coarse_cache[key] = out
        return self._coarse_cache[key]

    def fine_coarse_family(self, side: str, i: int,
                           constraints: dict) -> np.ndarray:
        """Like coarse_family but also resolving the answer of round i.

        Output axes: held coordinates in ascending order, then round i.
        """
        sums = self._fine_sum_ops(side, i)
        kept = tuple(sorted(self.C + (i,)))
        k = self.game.a_size if side == "alice" else self.game.b_size
        out = np.zeros((k,) * len(kept) + (self.d, self.d), dtype=np.complex128)
        for q, w in self._question_support(side, constraints):
            out += w * sums[q]
        perm = [kept.index(c) for c in self.C] + [kept.index(i)]
        out = np.transpose(out, perm + [len(kept), len(kept) + 1])
        return out

    def aligned(self, side: str, constraints: dict, held) -> tuple:
        """Aligned factor (S, U) for one held-answer value in one context."""
        held = tuple(int(v) for v in held)
        key = (side, tuple(sorted(constraints.items())), held)
        if key not in self._aligned_cache:
            family = self.coarse_family(side, constraints)
            self._aligned_cache[key] = aligned_operators(
                family[held], self.rho[side])
        return self._aligned_cache[key]

    def fine_family(self, side: str, i: int, constraints: dict,
                    held) -> np.ndarray:
        held = tuple(int(v) for v in held)
        s_op, _ = self.aligned(side, constraints, held)
        fam = self.fine_coarse_family(side, i, constraints)
        return fine_povm(s_op, fam[held])

    # ---- states ----------------------------------------------------------

    def _split_r(self, i: int, r: dict) -> tuple:
        omega = {k: v for k, v in r.items()
                 if not (k.startswith("a") or k.startswith("b"))}
        a_c = tuple(r[a_names(self.n)[c]] for c in self.C)
        b_c = tuple(r[b_names(self.n)[c]] for c in self.C)
        return omega, a_c, b_c

    def state_for(self, i: int, r: dict, x_i: int, y_i: int) -> tuple:
        """Dependency-breaking state and weight for (r, x_i, y_i)."""
        omega, a_c, b_c = self._split_r(i, r)
        s_op, _ = self.aligned("alice", {**omega, x_names_at(i): x_i}, a_c)
        t_op, _ = self.aligned("bob", {**omega, y_names_at(i): y_i}, b_c)
        return dep_state(s_op, t_op, self.strategy.psi)

    def state_variants(self, i: int, r: dict, x_i: int, y_i: int) -> dict:
        """The target state plus the two one-sided approximations.

        "xy": both players pin their own question of round i.
        "x":  round i's pointer set to Alice's question; Bob averages y_i.
        "y":  round i's pointer set to Bob's question; Alice averages x_i.
        Values are (state, weight) pairs.
        """
        omega, a_c, b_c = self._split_r(i, r)
        own_x = {**omega, x_names_at(i): x_i}
        own_y = {**omega, y_names_at(i): y_i}
        via_x = {**omega, d_name(i): ALICE, m_name(i): x_i}
        via_y = {**omega, d_name(i): BOB, m_name(i): y_i}
        s_own, _ = self.aligned("alice", own_x, a_c)
        t_own, _ = self.aligned("bob", own_y, b_c)
        s_avg, _ = self.aligned("alice", via_y, a_c)
        t_avg, _ = self.aligned("bob", via_x, b_c)
        psi = self.strategy.psi
        return {"xy": dep_state(s_own, t_own, psi),
                "x": dep_state(s_own, t_avg, psi),
                "y": dep_state(s_avg, t_own, psi)}

    # ---- checks ----------------------------------------------------------

    def _question_pairs(self):
        for x in range(self.game.x_size):
            for y in range(self.game.y_size):
                if self.game.mu[x, y] > 0.0:
                    yield x, y

    def usefulness_check(self, coords=None, atol: float = 1e-8,
                         keep_rows: bool = False) -> UsefulnessReport:
        """Compare fine-measurement statistics on the conditional states
        against the answer distribution of the extended table."""
        coords = tuple(coords) if coords is not None else self.free
        an, bn = a_names(self.n), b_names(self.n)
        ka, kb = self.game.a_size, self.game.b_size
        max_res = 0.0
        max_null = 0.0
        contexts = 0
        skipped = 0
        rows = []
        for i in coords:
            for r, _pr in self.r_support(i):
                omega, a_c, b_c = self._split_r(i, r)
                for x_i, y_i in self._question_pairs():
                    state, weight = self.state_for(i, r, x_i, y_i)
                    if state is None:
                        skipped += 1
                        continue
                    try:
                        cond = self.ext.given(
                            {**r, x_names_at(i): x_i, y_names_at(i): y_i})
                    except ZeroProbabilityEvent:
                        skipped += 1
                        continue
                    table = cond.marginal((an[i], bn[i])).table
                    fa = self.fine_family(
                        "alice", i, {**omega, x_names_at(i): x_i}, a_c)
                    fb = self.fine_family(
                        "bob", i, {**omega, y_names_at(i): y_i}, b_c)
                    born = pure_born_table(state, fa, fb)
                    res = float(np.abs(born[:ka, :kb] - table).max())
                    null = float(abs(born[ka, :].sum())
                                 + abs(born[:ka, kb].sum()))
                    max_res = max(max_res, res)
                    max_null = max(max_null, null)
                    contexts += 1
                    if keep_rows:
                        rows.append({
                            "i": i,
                            "omega": _format_assign(omega),
                            "a_c": ",".join(str(v) for v in a_c),
                            "b_c": ",".join(str(v) for v in b_c),
                            "x_i": x_i, "y_i": y_i,
                            "weight": weight, "residual": res})
        return UsefulnessReport(coords, contexts, skipped, max_res, max_null,
                                rows)

    def weight_check(self, coords=None, keep_rows: bool = False) -> WeightReport:
        """Compare every state weight against the table conditional, and
        check the weights over held answers sum to one per context."""
        coords = tuple(coords) if coords is not None else self.free
        an, bn = a_names(self.n), b_names(self.n)
        held_a = tuple(an[c] for c in self.C)
        held_b = tuple(bn[c] for c in self.C)
        max_err = 0.0
        max_sum = 0.0
        contexts = 0
        rows = []
        for i in coords:
            names = self.omega_names(i)
            for omega, _pw in self._support(names):
                for x_i, y_i in self._question_pairs():
                    try:
                        cond = self.ext.given(
                            {**omega, x_names_at(i): x_i, y_names_at(i): y_i})
                    except ZeroProbabilityEvent:
                        continue
                    table = cond.marginal(held_a + held_b).table
                    total = 0.0
                    for a_c in itertools.product(range(self.game.a_size),
                                                 repeat=len(self.C)):
                        for b_c in itertools.product(range(self.game.b_size),
                                                     repeat=len(self.C)):
                            r = dict(omega)
                            r.update(zip(held_a, a_c))
                            r.update(zip(held_b, b_c))
                            _st, w = self.state_for(i, r, x_i, y_i)
                            err = abs(w - float(table[a_c + b_c]))
                            max_err = max(max_err, err)
                            total += w
                            if keep_rows:
                                rows.append({
                                    "i": i, "omega": _format_assign(omega),
                                    "a_c": ",".join(map(str, a_c)),
                                    "b_c": ",".join(map(str, b_c)),
                                    "x_i": x_i, "y_i": y_i,
                                    "weight": w, "residual": err})
                    max_sum = max(max_sum, abs(total - 1.0))
                    contexts += 1
        return WeightReport(coords, contexts, max_err, max_sum, rows)

    def sampleability_distances(self, coords=None,
                                keep_rows: bool = False) -> SampleabilityReport:
        """Average Euclidean distances between the target states and their
        one-sided approximations, weighted by the conditioned context law."""
        coords = tuple(coords) if coords is not None else self.free
        event = win_set(self.game, self.n, self.C)
        cond = self.ext.condition(event)
        per = {}
        rows = []
        skipped_mass = 0.0
        max_tri = 0.0
        for i in coords:
            names = self.r_names(i)
            acc = np.zeros(3)
            mass = 0.0
            for x_i, y_i in self._question_pairs():
                w_q = float(self.game.mu[x_i, y_i])
                try:
                    ctx = cond.given({x_names_at(i): x_i,
                                      y_names_at(i): y_i})
                except ZeroProbabilityEvent:
                    skipped_mass += w_q
                    continue
                marg = ctx.marginal(names)
                for idx in np.argwhere(marg.table > SUPPORT_MASS):
                    w = w_q * float(marg.table[tuple(idx)])
                    assign = dict(zip(names, (int(v) for v in idx)))
                    variants = self.state_variants(i, assign, x_i, y_i)
                    if any(v[0] is None for v in variants.values()):
                        skipped_mass += w
                        continue
                    s_xy, s_x, s_y = (variants["xy"][0], variants["x"][0],
                                      variants["y"][0])
                    d_a = float(np.linalg.norm(s_xy - s_y))
                    d_b = float(np.linalg.norm(s_xy - s_x))
                    d_x = float(np.linalg.norm(s_x - s_y))
                    max_tri = max(max_tri, d_x - d_a - d_b)
                    acc += w * np.array([d_a, d_b, d_x])
                    mass += w
                    if keep_rows:
                        rows.append({"i": i, "omega": _format_assign(assign),
                                     "x_i": x_i, "y_i": y_i, "weight": w,
                                     "d_alice": d_a, "d_bob": d_b,
                                     "d_cross": d_x})
            if mass <= 0.0:
                raise ZeroProbabilityEvent(
                    "no context with positive weight survives conditioning")
            per[i] = tuple(acc / mass)
        avg = np.mean([per[i] for i in coords], axis=0)
        return SampleabilityReport(coords, float(avg[0]), float(avg[1]),
                                   float(avg[2]), per, skipped_mass, max_tri,
                                   rows)

    def xi_raz_check(self, side: str = "alice",
                     tol: float = 1e-6) -> XiRazReport:
        """Average conditional mutual information between one round's
        question and the opposite player's quantum register, measured on
        the post-measurement ensemble, against the answer-volume budget."""
        if side not in ("alice", "bob"):
            raise ValueError("side must be 'alice' or 'bob'")
        g = self.game
        own_names = x_names(self.n) if side == "alice" else y_names(self.n)
        own_at = x_names_at if side == "alice" else y_names_at
        k = g.a_size if side == "alice" else g.b_size
        held = self._held_sums[side]
        m_psi = self.strategy.psi_matrix
        omega_full = self.omega_names(None)
        event = win_set(g, self.n, self.C)
        p_win_c = self.ext.prob(event)
        if p_win_c <= 0.0:
            raise ZeroProbabilityEvent("holdout rounds are never all won")
        m = len(self.free)
        delta = (math.log2(1.0 / p_win_c)
                 + len(self.C) * math.log2(g.a_size * g.b_size)) / m
        tight = len(self.C) * math.log2(k) / m

        per_terms = {i: 0.0 for i in self.free}
        for omega, p_omega in self._support(omega_full):
            cond = self.qext.given(omega)
            remaining = [nm for nm in own_names if nm in cond.names]
            if remaining:
                marg = cond.marginal(tuple(remaining))
                entries = [(dict(zip(remaining, map(int, idx))),
                            float(marg.table[tuple(idx)]))
                           for idx in np.argwhere(marg.table > SUPPORT_MASS)]
            else:
                entries = [({}, 1.0)]
            # blocks on the opposite quantum register, per question tuple
            per_q = []
            for partial, wq in entries:
                assign = dict(partial)
                assign.update({nm: omega[nm] for nm in own_names
                               if nm in omega})
                q = tuple(assign[nm] for nm in own_names)
                ops = held[q]
                for held_ans in itertools.product(range(k),
                                                  repeat=len(self.C)):
                    op = ops[held_ans]
                    if side == "alice":
                        block = np.conj(m_psi.conj().T @ op @ m_psi)
                    else:
                        block = m_psi @ np.conj(op) @ m_psi.conj().T
                    tr = float(np.real(np.trace(block)))
                    if tr <= ZERO_WEIGHT:
                        continue
                    per_q.append((q, held_ans, wq * tr, block / tr))
            for held_ans in itertools.product(range(k), repeat=len(self.C)):
                group = [(q, w, b) for q, h, w, b in per_q if h == held_ans]
                w_ha = sum(w for _q, w, _b in group)
                if w_ha <= ZERO_WEIGHT:
                    continue
                for i in self.free:
                    buckets = {}
                    for q, w, b in group:
                        buckets.setdefault(q[i], [0.0, None])
                        entry = buckets[q[i]]
                        entry[0] += w
                        entry[1] = b * w if entry[1] is None else entry[1] + b * w
                    probs = np.array([v[0] for v in buckets.values()])
                    states = np.stack([v[1] / v[0] for v in buckets.values()])
                    mi = cq_mutual_information(
                        CQState(probs / probs.sum(), states))
                    per_terms[i] += p_omega * w_ha * mi
        per_coord = tuple(per_terms[i] for i in self.free)
        avg_mi = float(np.mean(per_coord))
        return XiRazReport(side, avg_mi, delta, tight,
                           bool(avg_mi <= delta + tol), per_coord)

    def skew_report(self) -> SkewReport:
        return skew_distances(self.ext, self.game, self.n, self.C)


def _format_assign(assign: dict) -> str:
    return ",".join(f"{k}={assign[k]}" for k in sorted(assign))
