"""Dependency-breaking machinery for repeated two-player games.

A held-out coordinate set C and, per free coordinate, a uniform pointer
(d_j, m_j) to one player's question, together break the correlation between
the two players' question tuples.  This module builds the extended joint
table carrying those variables, the coarse and fine measurement operators
conditioned on partial information, the conditional bipartite states with
their weights, and the distance and mutual-information diagnostics that
certify the construction on explicit strategies.

The dependency-breaking value r = (omega, a_C, b_C) of a free coordinate
is one finite variable: it is passed as a flat index into that coordinate's
`ContextTable`.  Pointer constraints of the operator families are
{name: value} dicts using the same variable names as the joint tables
("d2", "m2", "x3", ...).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .games import Game, a_names, b_names, win_set, x_names, y_names
from .infotheory import CQState, cq_mutual_information
from .prob import (MAX_TABLE_ENTRIES, ZERO_MASS, FiniteDistribution, Kernel,
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

    def ok(self, atol: float = 1e-8) -> bool:
        return self.max_residual <= atol and self.max_null_mass <= atol


@dataclass
class WeightReport:
    coords: tuple
    contexts: int
    max_abs_error: float
    max_sum_error: float

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


@dataclass(frozen=True)
class XiRazReport:
    side: str
    avg_mi: float
    delta: float
    tight_bound: float
    ok: bool
    per_coord: tuple


@dataclass(frozen=True)
class ContextTable:
    """Law of one free coordinate's dependency-breaking value r.

    r = (omega, a_C, b_C) is indexed flat over the variables `names` with
    sizes `sizes`: omega (the other free coordinates' pointers, then the
    held questions x_C and y_C), then the held answers a_C and b_C, with
    `held` = |C|.  joint[r, x_i, y_i, a_i, b_i] is the extended table's
    marginal, and held_won[r] marks the contexts that win every held round.
    """
    names: tuple
    sizes: tuple
    held: int
    joint: np.ndarray
    held_won: np.ndarray

    def split(self, flat: int) -> tuple:
        """(omega as a {name: value} dict, a_C, b_C) of a flat r."""
        vals = tuple(int(v) for v in np.unravel_index(flat, self.sizes))
        k = len(vals) - 2 * self.held
        return (dict(zip(self.names[:k], vals[:k])),
                vals[k:k + self.held], vals[k + self.held:])

    def law(self, x: int | None = None,
            y: int | None = None) -> np.ndarray | None:
        """Flat law of r given that every held round is won and, when set,
        x_i = x and y_i = y.

        Returns None when that evidence has conditional mass at most
        ZERO_MASS, the cut `FiniteDistribution.given` makes; raises
        ZeroProbabilityEvent when the held rounds are never all won.
        """
        won = self.joint.sum(axis=(3, 4)) * self.held_won[:, None, None]
        total = float(won.sum())
        if total <= ZERO_MASS:
            raise ZeroProbabilityEvent("holdout rounds are never all won")
        won = won / total
        if x is not None:
            won = won[:, x:x + 1]
        if y is not None:
            won = won[:, :, y:y + 1]
        p = won.sum(axis=(1, 2))
        mass = float(p.sum())
        return p / mass if mass > ZERO_MASS else None


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
        self._fine_cache = {}
        self._contexts = {}
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

    def contexts(self, i: int) -> ContextTable:
        """The context table of free coordinate i, built once."""
        if i not in self._contexts:
            names = self.r_names(i)
            marg = self.ext.marginal(names + (
                x_names_at(i), y_names_at(i), a_names(self.n)[i],
                b_names(self.n)[i]))
            sizes = marg.sizes[:len(names)]
            # the held variables are r's trailing axes, grouped by kind
            held = win_set(self.game, self.n, self.C)
            perm = [4 * t + v for v in range(4) for t in range(len(self.C))]
            won = np.broadcast_to(held.mask.transpose(perm), sizes).ravel()
            self._contexts[i] = ContextTable(
                names, sizes, len(self.C),
                marg.table.reshape((-1,) + marg.sizes[len(names):]), won)
        return self._contexts[i]

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

    def _question_average(self, side: str, sums: dict,
                          constraints: dict) -> np.ndarray:
        """Per-question operators averaged over the side's question law."""
        return sum(w * sums[q]
                   for q, w in self._question_support(side, constraints))

    def coarse_family(self, side: str, constraints: dict) -> np.ndarray:
        """Held-round answer POVM averaged over the unknown questions.

        constraints pins pointer variables plus optionally one question of
        the given side; the result has one leading axis per held coordinate.
        """
        key = (side, tuple(sorted(constraints.items())))
        if key not in self._coarse_cache:
            self._coarse_cache[key] = self._question_average(
                side, self._held_sums[side], constraints)
        return self._coarse_cache[key]

    def fine_coarse_family(self, side: str, i: int,
                           constraints: dict) -> np.ndarray:
        """Like coarse_family but also resolving the answer of round i.

        Output axes: held coordinates in ascending order, then round i.
        """
        out = self._question_average(side, self._fine_sum_ops(side, i),
                                     constraints)
        kept = tuple(sorted(self.C + (i,)))
        perm = [kept.index(c) for c in self.C] + [kept.index(i)]
        return np.transpose(out, perm + [len(kept), len(kept) + 1])

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
        key = (side, i, tuple(sorted(constraints.items())), held)
        if key not in self._fine_cache:
            s_op, _ = self.aligned(side, constraints, held)
            fam = self.fine_coarse_family(side, i, constraints)
            self._fine_cache[key] = fine_povm(s_op, fam[held])
        return self._fine_cache[key]

    def fine_families(self, i: int, r_a: int, r_b: int, x_i: int,
                      y_i: int) -> tuple:
        """Alice's fine family from her flat r_a, Bob's from his r_b."""
        table = self.contexts(i)
        omega_a, a_c, _ = table.split(r_a)
        omega_b, _, b_c = table.split(r_b)
        return (self.fine_family(
                    "alice", i, {**omega_a, x_names_at(i): x_i}, a_c),
                self.fine_family(
                    "bob", i, {**omega_b, y_names_at(i): y_i}, b_c))

    # ---- states ----------------------------------------------------------

    def state_for(self, i: int, r: int, x_i: int, y_i: int) -> tuple:
        """Dependency-breaking state and weight for (flat r, x_i, y_i)."""
        omega, a_c, b_c = self.contexts(i).split(r)
        s_op, _ = self.aligned("alice", {**omega, x_names_at(i): x_i}, a_c)
        t_op, _ = self.aligned("bob", {**omega, y_names_at(i): y_i}, b_c)
        return dep_state(s_op, t_op, self.strategy.psi)

    def state_variants(self, i: int, r: int, x_i: int, y_i: int) -> dict:
        """The target state plus the two one-sided approximations.

        "xy": both players pin their own question of round i.
        "x":  round i's pointer set to Alice's question; Bob averages y_i.
        "y":  round i's pointer set to Bob's question; Alice averages x_i.
        Values are (state, weight) pairs; r is a flat index.
        """
        omega, a_c, b_c = self.contexts(i).split(r)
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

    def usefulness_check(self, coords=None) -> UsefulnessReport:
        """Compare fine-measurement statistics on the conditional states
        against the answer distribution of the extended table.

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
            for r in np.flatnonzero(support).tolist():
                for x_i, y_i in self._question_pairs():
                    state, _weight = self.state_for(i, r, x_i, y_i)
                    cell = joint[r, x_i, y_i]
                    mass = float(cell.sum())
                    if state is None or mass <= ZERO_MASS:
                        skipped += 1
                        continue
                    fa, fb = self.fine_families(i, r, r, x_i, y_i)
                    born = pure_born_table(state, fa, fb)
                    res = float(np.abs(born[:ka, :kb] - cell / mass).max())
                    null = float(abs(born[ka, :].sum())
                                 + abs(born[:ka, kb].sum()))
                    max_res = max(max_res, res)
                    max_null = max(max_null, null)
                    contexts += 1
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
            for omega in np.flatnonzero(support).tolist():
                for x_i, y_i in self._question_pairs():
                    cell = joint[omega, :, :, x_i, y_i]
                    mass = float(cell.sum())
                    if mass <= ZERO_MASS:
                        continue
                    held = (cell.sum(axis=(2, 3)) / mass).ravel().tolist()
                    total = 0.0
                    for r, want in enumerate(held, start=omega * n_a * n_b):
                        _st, w = self.state_for(i, r, x_i, y_i)
                        max_err = max(max_err, abs(w - want))
                        total += w
                    max_sum = max(max_sum, abs(total - 1.0))
                    contexts += 1
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
            table = self.contexts(i)
            acc = np.zeros(3)
            mass = 0.0
            for x_i, y_i in self._question_pairs():
                w_q = float(self.game.mu[x_i, y_i])
                law = table.law(x_i, y_i)
                if law is None:
                    skipped_mass += w_q
                    continue
                for r in np.flatnonzero(law > SUPPORT_MASS).tolist():
                    w = w_q * float(law[r])
                    variants = self.state_variants(i, r, x_i, y_i)
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
            if mass <= 0.0:
                raise ZeroProbabilityEvent(
                    "no context with positive weight survives conditioning")
            per[i] = tuple(acc / mass)
        avg = np.mean([per[i] for i in coords], axis=0)
        return SampleabilityReport(coords, float(avg[0]), float(avg[1]),
                                   float(avg[2]), per, skipped_mass, max_tri)

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
        omega_marg = self.qext.marginal(omega_full).table
        for idx in np.argwhere(omega_marg > SUPPORT_MASS):
            omega = dict(zip(omega_full, (int(v) for v in idx)))
            p_omega = float(omega_marg[tuple(idx)])
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

