"""Game values: exact classical optimum, seesaw ascent, and the decay bound.

classical_value enumerates Alice's answer functions and solves Bob's side
exactly per question tuple, which equals the full double enumeration.  The
seesaw alternates three exact coordinate maximizations (state, Alice, Bob),
each of which cannot decrease the objective.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .games import Game
from .strategy import EntangledStrategy, POVMFamily

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

    w = np.zeros((qx, qy))
    vn = np.zeros((qx, qy, ra, rb), dtype=bool)
    xs = list(itertools.product(range(g.x_size), repeat=n))
    ys = list(itertools.product(range(g.y_size), repeat=n))
    for ix, xt in enumerate(xs):
        for iy, yt in enumerate(ys):
            wt = 1.0
            for i in range(n):
                wt *= g.mu[xt[i], yt[i]]
            w[ix, iy] = wt
            for ia, at in enumerate(itertools.product(range(g.a_size), repeat=n)):
                for ib, bt in enumerate(itertools.product(range(g.b_size), repeat=n)):
                    ok = True
                    for i in range(n):
                        ok = ok and bool(g.predicate[xt[i], yt[i], at[i], bt[i]])
                    vn[ix, iy, ia, ib] = ok

    best = 0.0
    for fa in itertools.product(range(ra), repeat=qx):
        # value given Alice's function: Bob optimizes independently per y tuple
        v_fa = vn[np.arange(qx), :, list(fa), :]          # (qx, qy, rb)
        score = np.einsum("xy,xyb->yb", w, v_fa)           # (qy, rb)
        best = max(best, float(score.max(axis=1).sum()))
    return best


def bell_operator(g: Game, alice: POVMFamily, bob: POVMFamily) -> np.ndarray:
    """Question-weighted sum of winning A (x) B pairs for the one-round game."""
    if alice.n != 1 or bob.n != 1:
        raise ValueError("bell_operator expects one-round POVM families")
    d = alice.d * bob.d
    op = np.zeros((d, d), dtype=np.complex128)
    for x in range(g.x_size):
        for y in range(g.y_size):
            if g.mu[x, y] == 0.0:
                continue
            for a in range(g.a_size):
                for b in range(g.b_size):
                    if g.predicate[x, y, a, b]:
                        op += g.mu[x, y] * np.kron(alice.ops[(x,)][a], bob.ops[(y,)][b])
    return (op + op.conj().T) / 2


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


def _value(g: Game, psi: np.ndarray, alice: dict, bob: dict, d: int) -> float:
    m = psi.reshape(d, d)
    total = 0.0
    for x in range(g.x_size):
        for y in range(g.y_size):
            if g.mu[x, y] == 0.0:
                continue
            for a in range(g.a_size):
                ca = m.conj().T @ alice[x][a] @ m
                for b in range(g.b_size):
                    if g.predicate[x, y, a, b]:
                        total += g.mu[x, y] * float(np.tensordot(
                            ca, bob[y][b], axes=([0, 1], [0, 1])).real)
    return total


def _improve_side(effectives: list, elements: list, tol: float) -> list:
    """Exact pairwise exchange ascent for one POVM under linear effectives.

    For answers (a1, a2) with combined element c, the optimal split is
    c^(1/2) P c^(1/2) where P projects on the positive eigenspace of
    c^(1/2) (n1 - n2) c^(1/2).  Sweeps in a fixed order until no pair
    improves.
    """
    k = len(elements)
    elems = [e.copy() for e in elements]
    if k == 1:
        return elems

    def objective():
        return sum(float(np.tensordot(e, nmat, axes=([0, 1], [0, 1])).real)
                   for e, nmat in zip(elems, effectives))

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
            e1 = csq @ x @ csq
            e1 = (e1 + e1.conj().T) / 2
            e2 = c - e1
            elems[a1], elems[a2] = e1, e2
            new = objective()
            if new > current + tol:
                improved = True
            current = new
        if not improved:
            break
    return elems


def seesaw(g: Game, cfg: SeesawConfig) -> SeesawResult:
    """Alternating ascent over state and measurements for the one-round game.

    Every update is an exact maximization of its coordinate, so the objective
    trace is nondecreasing up to rounding.
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d
    alice = {x: _random_povm(d, g.a_size, rng) for x in range(g.x_size)}
    bob = {y: _random_povm(d, g.b_size, rng) for y in range(g.y_size)}
    psi = matcore.random_pure(d * d, rng)

    trace = [_value(g, psi, alice, bob, d)]
    iterations = 0
    for it in range(cfg.max_iters):
        iterations = it + 1
        # state: top eigenvector of the current bell operator
        fam_a = POVMFamily(1, g.x_size, g.a_size, d,
                           {(x,): np.stack(alice[x]) for x in range(g.x_size)},
                           validate=False)
        fam_b = POVMFamily(1, g.y_size, g.b_size, d,
                           {(y,): np.stack(bob[y]) for y in range(g.y_size)},
                           validate=False)
        op = bell_operator(g, fam_a, fam_b)
        w, v = matcore.eigh_desc(op, "bell operator")
        psi = v[:, 0]
        trace.append(_value(g, psi, alice, bob, d))

        m = psi.reshape(d, d)
        # Alice: effective operator of (x, a) is sum_y mu V m B^T m+
        for x in range(g.x_size):
            effectives = []
            for a in range(g.a_size):
                nmat = np.zeros((d, d), dtype=np.complex128)
                for y in range(g.y_size):
                    if g.mu[x, y] == 0.0:
                        continue
                    for b in range(g.b_size):
                        if g.predicate[x, y, a, b]:
                            nmat += g.mu[x, y] * (m @ bob[y][b].T @ m.conj().T)
                effectives.append((nmat + nmat.conj().T) / 2)
            alice[x] = _improve_side(effectives, alice[x], cfg.convergence_tol)
        trace.append(_value(g, psi, alice, bob, d))

        for y in range(g.y_size):
            effectives = []
            for b in range(g.b_size):
                nmat = np.zeros((d, d), dtype=np.complex128)
                for x in range(g.x_size):
                    if g.mu[x, y] == 0.0:
                        continue
                    for a in range(g.a_size):
                        if g.predicate[x, y, a, b]:
                            nmat += g.mu[x, y] * (m.conj().T @ alice[x][a] @ m).T
                effectives.append((nmat + nmat.conj().T) / 2)
            bob[y] = _improve_side(effectives, bob[y], cfg.convergence_tol)
        trace.append(_value(g, psi, alice, bob, d))

        if trace[-1] - trace[-4] < cfg.convergence_tol:
            break

    fam_a = POVMFamily(1, g.x_size, g.a_size, d,
                       {(x,): np.stack(alice[x]) for x in range(g.x_size)})
    fam_b = POVMFamily(1, g.y_size, g.b_size, d,
                       {(y,): np.stack(bob[y]) for y in range(g.y_size)})
    strat = EntangledStrategy(d, 1, psi, fam_a, fam_b, name="seesaw")
    return SeesawResult(trace[-1], strat, iterations, trace)


def seesaw_best(g: Game, d: int, seeds, max_iters: int = 500,
                workers: int = 1) -> SeesawResult:
    """Best seesaw run over several seeds; deterministic given the seed list."""
    cfgs = [SeesawConfig(d=d, max_iters=max_iters, seed=int(s)) for s in seeds]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: seesaw(g, c), cfgs))
    else:
        results = [seesaw(g, c) for c in cfgs]
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
