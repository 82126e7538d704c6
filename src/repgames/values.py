"""Game values: exact classical optimum, seesaw ascent, and the decay bound.

classical_value enumerates Alice's answer functions and solves Bob's side
exactly per question tuple, which equals the full double enumeration.  The
seesaw alternates three exact coordinate maximizations (state, Alice, Bob),
each of which cannot decrease the objective.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .games import Game, question_weights, tuple_digits
from .strategy import EntangledStrategy, POVMFamily, pure_born_table

MAX_STRATEGY_PAIRS = 100_000_000
MAX_PREDICATE_TABLE = 10_000_000


def classical_value(g: Game, n: int) -> float:
    """Exact optimum over deterministic strategies of the n-fold game."""
    qx, qy = g.x_size ** n, g.y_size ** n
    ra, rb = g.a_size ** n, g.b_size ** n
    pairs = math.log10(ra) * qx + math.log10(rb) * qy
    if pairs > math.log10(MAX_STRATEGY_PAIRS):
        raise ValueError("deterministic strategy pair count exceeds the cap")
    if qx * qy * ra * rb > MAX_PREDICATE_TABLE:
        raise ValueError("n-fold predicate table exceeds the cap")

    w = question_weights(g, n)
    xd, yd = tuple_digits(g.x_size, n), tuple_digits(g.y_size, n)
    ad, bd = tuple_digits(g.a_size, n), tuple_digits(g.b_size, n)
    vn = np.ones((qx, qy, ra, rb), dtype=bool)
    for i in range(n):
        vn &= g.predicate[np.ix_(xd[:, i], yd[:, i], ad[:, i], bd[:, i])]

    best = 0.0
    for fa in itertools.product(range(ra), repeat=qx):
        # value given Alice's function: Bob optimizes independently per y tuple
        v_fa = vn[np.arange(qx), :, list(fa), :]          # (qx, qy, rb)
        score = np.einsum("xy,xyb->yb", w, v_fa)           # (qy, rb)
        best = max(best, float(score.max(axis=1).sum()))
    return best


@dataclass
class SeesawConfig:
    d: int = 2
    max_iters: int = 500
    seed: int = 0
    convergence_tol: float = 1e-10


@dataclass
class SeesawResult:
    value: float
    strategy: EntangledStrategy
    iterations: int
    objective_trace: list = field(default_factory=list)


def _random_povm(d: int, outcomes: int, rng) -> list:
    gs = [matcore.random_psd(d, rng=rng) + 1e-6 * np.eye(d) for _ in range(outcomes)]
    total = sum(gs)
    w, v = matcore.eigh_desc(total, "povm normalizer")
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_sqrt @ gmat @ inv_sqrt for gmat in gs]


def _value(w: np.ndarray, psi: np.ndarray, alice: np.ndarray,
           bob: np.ndarray) -> float:
    """Winning probability sum W[x, y, a, b] <psi| A_xa (x) B_yb |psi>."""
    (xs, ka, d), (ys, kb) = alice.shape[:3], bob.shape[:2]
    p = pure_born_table(psi, alice.reshape(-1, d, d), bob.reshape(-1, d, d))
    return float(np.einsum("xyab,xayb->", w, p.reshape(xs, ka, ys, kb)))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + matcore.dagger(m)) / 2


def _improve_side(effectives: np.ndarray, elements: np.ndarray,
                  tol: float) -> np.ndarray:
    """Exact pairwise exchange ascent for one POVM under linear effectives.

    For answers (a1, a2) with combined element c, the optimal split is
    c^(1/2) P c^(1/2) where P projects on the positive eigenspace of
    c^(1/2) (n1 - n2) c^(1/2).  Sweeps in a fixed order, at most 4k of
    them, until no pair raises sum_a tr(E_a N_a) by more than tol.
    """
    k = elements.shape[0]
    elems = elements.copy()
    if k == 1:
        return elems

    def objective():
        return float(np.einsum("aij,aji->", elems, effectives).real)

    current = objective()
    for _ in range(4 * k):
        improved = False
        for a1, a2 in itertools.combinations(range(k), 2):
            c = elems[a1] + elems[a2]
            csq = matcore.mat_sqrt(c, "combined element")
            h = csq @ (effectives[a1] - effectives[a2]) @ csq
            w, v = matcore.eigh_desc(h, "exchange operator")
            pos = v[:, w > 0.0]
            x = pos @ pos.conj().T
            e1 = _hermitian_part(csq @ x @ csq)
            elems[a1], elems[a2] = e1, c - e1
            new = objective()
            if new > current + tol:
                improved = True
            current = new
        if not improved:
            break
    return elems


def _bell_operator(w: np.ndarray, alice: np.ndarray,
                   bob: np.ndarray) -> np.ndarray:
    """sum_xyab W[x, y, a, b] A_xa (x) B_yb on C^d (x) C^d, Hermitian part."""
    d = alice.shape[-1]
    op = np.einsum("xyab,xaij,ybkl->ikjl", w, alice, bob)
    return _hermitian_part(op.reshape(d * d, d * d))


def _alice_effectives(w: np.ndarray, psi: np.ndarray,
                      bob: np.ndarray) -> np.ndarray:
    """N[x, a] = sum_yb W[x, y, a, b] m B_yb^T m+, so that the value is
    sum_xa tr(A_xa N[x, a]); m is psi as a d x d matrix."""
    d = bob.shape[-1]
    m = psi.reshape(d, d)
    bm = m @ np.swapaxes(bob, -1, -2) @ m.conj().T
    return _hermitian_part(np.einsum("xyab,ybij->xaij", w, bm))


def _bob_effectives(w: np.ndarray, psi: np.ndarray,
                    alice: np.ndarray) -> np.ndarray:
    """N[y, b] = sum_xa W[x, y, a, b] (m+ A_xa m)^T."""
    d = alice.shape[-1]
    m = psi.reshape(d, d)
    am = m.conj().T @ alice @ m
    return _hermitian_part(np.einsum("xyab,xaji->ybij", w, am))


def seesaw(g: Game, cfg: SeesawConfig) -> SeesawResult:
    """Alternating ascent over state and measurements for the one-round game.

    Every update is an exact maximization of its coordinate, so the objective
    trace is nondecreasing up to rounding.  The POVMs are `(X, A, d, d)` and
    `(Y, B, d, d)` stacks, and every contraction against the predicate
    weights W = mu * V is one einsum over all (x, y, a, b).
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d
    alice = np.stack([_random_povm(d, g.a_size, rng) for _ in range(g.x_size)])
    bob = np.stack([_random_povm(d, g.b_size, rng) for _ in range(g.y_size)])
    psi = matcore.random_pure(d * d, rng)
    w = g.mu[:, :, None, None] * g.predicate

    trace = [_value(w, psi, alice, bob)]
    iterations = 0
    for it in range(cfg.max_iters):
        iterations = it + 1
        # state: top eigenvector of the current bell operator
        _, v = matcore.eigh_desc(_bell_operator(w, alice, bob),
                                 "bell operator")
        psi = v[:, 0]
        trace.append(_value(w, psi, alice, bob))

        eff = _alice_effectives(w, psi, bob)
        for x in range(g.x_size):
            alice[x] = _improve_side(eff[x], alice[x], cfg.convergence_tol)
        trace.append(_value(w, psi, alice, bob))

        eff = _bob_effectives(w, psi, alice)
        for y in range(g.y_size):
            bob[y] = _improve_side(eff[y], bob[y], cfg.convergence_tol)
        trace.append(_value(w, psi, alice, bob))

        if trace[-1] - trace[-4] < cfg.convergence_tol:
            break

    strat = EntangledStrategy(d, 1, psi, POVMFamily(1, alice),
                              POVMFamily(1, bob), name="seesaw")
    return SeesawResult(trace[-1], strat, iterations, trace)


def seesaw_best(g: Game, d: int, seeds, max_iters: int = 500) -> SeesawResult:
    """Best seesaw run over several seeds; deterministic given the seed list."""
    results = [seesaw(g, SeesawConfig(d=d, max_iters=max_iters, seed=int(s)))
               for s in seeds]
    return max(results, key=lambda r: r.value)


@dataclass(frozen=True)
class BoundReport:
    epsilon: float
    s_bits: float
    n: int
    c: float
    log_base: float
    raw_value: float
    bound_value: float
    vacuous: bool


def theorem1_bound(epsilon: float, s_bits: float, n: int, c: float = 1.0,
                   log_base: float = 2.0) -> BoundReport:
    """Decay bound c * s * log(n) / (eps^17 * n^(1/4)), clamped at 1.

    The bound is vacuous whenever the unclamped value is >= 1, which is the
    case for every desk-scale n; the calculator exists to show exactly where
    the crossover sits.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    if s_bits <= 0 or c <= 0 or log_base <= 1:
        raise ValueError("s_bits and c must be positive, log_base > 1")
    raw = c * s_bits * (math.log(n) / math.log(log_base)) / (epsilon ** 17 * n ** 0.25)
    return BoundReport(epsilon, s_bits, int(n), c, log_base, raw,
                       min(1.0, raw), raw >= 1.0)
