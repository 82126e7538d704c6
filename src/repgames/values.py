"""Game values: exact classical optimum, seesaw ascent, and the decay bound.

classical_value enumerates Alice's answer functions and solves Bob's side
exactly per question tuple, which equals the full double enumeration.  The
seesaw alternates three exact coordinate maximizations (state, Alice, Bob),
each of which cannot decrease the objective.  Its kernels take leading
stack axes: `seesaw_best` ascends every restart as one stack, and each
pairwise exchange step runs over every (restart, question) POVM still
improving.  Every restart and every POVM keeps its own stopping rule, so a
seed's trajectory and iteration count are those of a run alone; `seesaw`
is a stack of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .games import Game, question_weights, win_set
from .prob import MAX_TABLE_ENTRIES
from .strategy import EntangledStrategy, POVMFamily, pure_born_table

MAX_STRATEGY_PAIRS = 100_000_000
SEESAW_STOP = 1e-10     # an ascent stops once an iteration gains less than this
POVM_RIDGE = 1e-6       # added to each random POVM seed, so their sum is invertible


def _classical_cap_error(g: Game, n: int) -> str | None:
    """Why classical_value refuses the n-fold game, or None if it fits."""
    qx, qy = g.x_size ** n, g.y_size ** n
    ra, rb = g.a_size ** n, g.b_size ** n
    pairs = math.log10(ra) * qx + math.log10(rb) * qy
    if pairs > math.log10(MAX_STRATEGY_PAIRS):
        return "deterministic strategy pair count exceeds the cap"
    if qx * qy * ra * rb > MAX_TABLE_ENTRIES:
        return "n-fold predicate table exceeds the cap"
    return None


def max_classical_rounds(g: Game, limit: int) -> int:
    """The largest n <= limit that classical_value accepts (0 if none)."""
    n = 0
    while n < limit and _classical_cap_error(g, n + 1) is None:
        n += 1
    return n


def classical_value(g: Game, n: int) -> float:
    """Exact optimum over deterministic strategies of the n-fold game."""
    error = _classical_cap_error(g, n)
    if error:
        raise ValueError(error)
    qx, qy = g.x_size ** n, g.y_size ** n
    ra, rb = g.a_size ** n, g.b_size ** n
    w = question_weights(g, n)
    vn = win_set(g, n, range(n)).mask.reshape(qx, qy, ra, rb)

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


@dataclass
class SeesawResult:
    value: float
    strategy: EntangledStrategy
    iterations: int
    objective_trace: list = field(default_factory=list)


def _random_povm(d: int, outcomes: int, rng) -> list:
    gs = [matcore.random_psd(d, rng=rng) + POVM_RIDGE * np.eye(d) for _ in range(outcomes)]
    total = sum(gs)
    w, v = matcore.eigh_desc(total, "povm normalizer")
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_sqrt @ gmat @ inv_sqrt for gmat in gs]


def _value(w: np.ndarray, psi: np.ndarray, alice: np.ndarray,
           bob: np.ndarray):
    """Winning probability sum W[x, y, a, b] <psi| A_xa (x) B_yb |psi>.

    psi is `(..., d * d)`, alice `(..., X, A, d, d)` and bob
    `(..., Y, B, d, d)` with shared leading stack axes; one value per stack
    entry, a Python float for a single strategy.
    """
    (xs, ka, d), (ys, kb) = alice.shape[-4:-1], bob.shape[-4:-2]
    lead = alice.shape[:-4]
    p = pure_born_table(psi, alice.reshape(lead + (xs * ka, d, d)),
                        bob.reshape(lead + (ys * kb, d, d)))
    p = p.reshape(lead + (xs, ka, ys, kb))
    return matcore.collapse(np.einsum("xyab,...xayb->...", w, p))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + matcore.dagger(m)) / 2


def _objective(elems: np.ndarray, effectives: np.ndarray) -> np.ndarray:
    """sum_a tr(E_a N_a) of every POVM in a `(N, k, d, d)` stack."""
    return np.einsum("naij,naji->n", elems, effectives).real


def _improve_side(effectives: np.ndarray, elements: np.ndarray,
                  tol: float) -> np.ndarray:
    """Exact pairwise exchange ascent for POVMs under linear effectives.

    elements and effectives are `(..., k, d, d)`: every POVM of the leading
    stack axes ascends on its own, and a single POVM is a stack of one.  For
    answers (a1, a2) with combined element c, the optimal split is
    c^(1/2) P c^(1/2) where P projects on the positive eigenspace of
    c^(1/2) (n1 - n2) c^(1/2).  Each POVM sweeps the pairs in a fixed
    order, at most 4k times, until no pair raises its sum_a tr(E_a N_a) by
    more than tol; each step is one stacked `mat_sqrt` and one stacked
    `eigh_desc` over the POVMs still improving.  P is the product of the
    leading (positive) canonical columns, formed for all POVMs with the
    same number of them at once, so every step rounds as it does for a
    POVM alone: a plain LAPACK basis gives the same P up to rounding, but
    near-degenerate optima turn that rounding into a different ascent.
    """
    shape = elements.shape
    k, d = shape[-3], shape[-1]
    elems = elements.reshape((-1, k, d, d)).copy()
    if k == 1:
        return elems.reshape(shape)
    effs = np.broadcast_to(effectives, shape).reshape(elems.shape)
    current = _objective(elems, effs)
    rows = np.arange(len(elems))
    for _ in range(4 * k):
        e, n, cur = elems[rows], effs[rows], current[rows]
        improved = np.zeros(rows.size, dtype=bool)
        for a1, a2 in itertools.combinations(range(k), 2):
            c = e[:, a1] + e[:, a2]
            csq = matcore.mat_sqrt(c, "combined element")
            h = csq @ (n[:, a1] - n[:, a2]) @ csq
            w, v = matcore.eigh_desc(h, "exchange operator")
            x = np.zeros_like(h)
            count = np.count_nonzero(w > 0.0, axis=-1)
            # the positive ranks present, ascending (np.unique would
            # import numpy.ma)
            for r in np.flatnonzero(np.bincount(count)[1:]) + 1:
                pos = v[count == r, :, :r]
                x[count == r] = pos @ matcore.dagger(pos)
            e1 = _hermitian_part(csq @ x @ csq)
            e[:, a1], e[:, a2] = e1, c - e1
            new = _objective(e, n)
            improved |= new > cur + tol
            cur = new
        elems[rows], current[rows] = e, cur
        rows = rows[improved]
        if not rows.size:
            break
    return elems.reshape(shape)


def _bell_operator(w: np.ndarray, alice: np.ndarray,
                   bob: np.ndarray) -> np.ndarray:
    """sum_xyab W[x, y, a, b] A_xa (x) B_yb on C^d (x) C^d, Hermitian part,
    per entry of the leading stack axes."""
    d = alice.shape[-1]
    op = np.einsum("xyab,...xaij,...ybkl->...ikjl", w, alice, bob)
    return _hermitian_part(op.reshape(op.shape[:-4] + (d * d, d * d)))


def _state_matrix(psi: np.ndarray) -> np.ndarray:
    """psi `(..., d * d)` as `(..., 1, 1, d, d)` matrices, broadcasting
    against `(..., Q, K, d, d)` POVM stacks."""
    d = math.isqrt(psi.shape[-1])
    return psi.reshape(psi.shape[:-1] + (1, 1, d, d))


def _alice_effectives(w: np.ndarray, psi: np.ndarray,
                      bob: np.ndarray) -> np.ndarray:
    """N[x, a] = sum_yb W[x, y, a, b] m B_yb^T m+, so that the value is
    sum_xa tr(A_xa N[x, a]); m is psi as a d x d matrix.  Leading stack
    axes of psi and bob are kept."""
    m = _state_matrix(psi)
    bm = m @ np.swapaxes(bob, -1, -2) @ matcore.dagger(m)
    return _hermitian_part(np.einsum("xyab,...ybij->...xaij", w, bm))


def _bob_effectives(w: np.ndarray, psi: np.ndarray,
                    alice: np.ndarray) -> np.ndarray:
    """N[y, b] = sum_xa W[x, y, a, b] (m+ A_xa m)^T, per stack entry."""
    m = _state_matrix(psi)
    am = matcore.dagger(m) @ alice @ m
    return _hermitian_part(np.einsum("xyab,...xaji->...ybij", w, am))


def _ascend(g: Game, d: int, seeds, max_iters: int,
            tol: float) -> list:
    """One seesaw ascent per seed, run as one stack over the restarts.

    Each iteration makes one stacked Bell-operator decomposition, value and
    set of effectives over the restarts still running, and each side's
    exchange steps run over every (restart, question) still improving.  A
    restart stops on its own rule, so its trajectory and iteration count
    are those of a run alone.  Returns (psi, alice, bob, iterations, trace)
    per seed.
    """
    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        alice = np.stack([_random_povm(d, g.a_size, rng)
                          for _ in range(g.x_size)])
        bob = np.stack([_random_povm(d, g.b_size, rng)
                        for _ in range(g.y_size)])
        starts.append((alice, bob, matcore.random_pure(d * d, rng)))
    alice, bob, psi = (np.stack(part) for part in zip(*starts))
    w = g.mu[:, :, None, None] * g.predicate

    traces = [[float(v)] for v in _value(w, psi, alice, bob)]
    iterations = np.zeros(len(traces), dtype=int)
    live = np.arange(len(traces))
    for it in range(max_iters):
        if not live.size:
            break
        iterations[live] = it + 1
        a, b = alice[live], bob[live]
        # state: top eigenvector of each current bell operator
        _, v = matcore.eigh_desc(_bell_operator(w, a, b), "bell operator")
        p = v[:, :, 0]
        values = [_value(w, p, a, b)]
        a = _improve_side(_alice_effectives(w, p, b), a, tol)
        values.append(_value(w, p, a, b))
        b = _improve_side(_bob_effectives(w, p, a), b, tol)
        values.append(_value(w, p, a, b))
        alice[live], bob[live], psi[live] = a, b, p
        running = []
        for row, step in zip(live, zip(*values)):
            trace = traces[row]
            trace.extend(float(v) for v in step)
            running.append(trace[-1] - trace[-4] >= tol)
        live = live[np.array(running, dtype=bool)]
    return [(psi[r], alice[r], bob[r], int(iterations[r]), traces[r])
            for r in range(len(traces))]


def _result(d: int, run) -> SeesawResult:
    psi, alice, bob, iterations, trace = run
    strat = EntangledStrategy(d, 1, psi, POVMFamily(1, alice),
                              POVMFamily(1, bob), name="seesaw")
    return SeesawResult(trace[-1], strat, iterations, trace)


def seesaw(g: Game, cfg: SeesawConfig) -> SeesawResult:
    """Alternating ascent over state and measurements for the one-round game.

    Every update is an exact maximization of its coordinate, so the objective
    trace is nondecreasing up to rounding.  The POVMs are `(X, A, d, d)` and
    `(Y, B, d, d)` stacks, and every contraction against the predicate
    weights W = mu * V is one einsum over all (x, y, a, b).  One run is a
    stack of one restart.
    """
    (run,) = _ascend(g, cfg.d, [cfg.seed], cfg.max_iters, SEESAW_STOP)
    return _result(cfg.d, run)


def seesaw_best(g: Game, d: int, seeds, max_iters: int = 500) -> SeesawResult:
    """Best seesaw run over several seeds; deterministic given the seed list.

    All restarts ascend as one stack; each keeps the trajectory it has when
    run alone, and the first of the best values wins.  A Bell stack of
    restarts x d^4 entries above MAX_TABLE_ENTRIES is refused first.
    """
    if len(seeds) * d ** 4 > MAX_TABLE_ENTRIES:
        raise ValueError(f"a Bell stack of {len(seeds)} restarts at d={d} is "
                         f"above the {MAX_TABLE_ENTRIES} entry cap")
    runs = _ascend(g, d, [int(s) for s in seeds], max_iters, SEESAW_STOP)
    return _result(d, max(runs, key=lambda run: run[-1][-1]))


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
    the crossover sits.  The raw value is formed from logarithms, so every
    n >= 2 runs, and refused when it is above the largest double.
    """
    if not all(map(math.isfinite, (epsilon, s_bits, c, log_base))):
        raise ValueError("epsilon, s_bits, c and log_base must be finite, got "
                         f"{epsilon!r}, {s_bits!r}, {c!r} and {log_base!r}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    if s_bits <= 0 or c <= 0 or log_base <= 1:
        raise ValueError("s_bits and c must be positive, log_base > 1")
    log_n = math.log(n)
    try:
        raw = math.exp(math.log(c) + math.log(s_bits) - 17 * math.log(epsilon)
                       + math.log(log_n / math.log(log_base)) - log_n / 4)
    except OverflowError:
        raise ValueError(f"the raw bound at n={n} is above the largest "
                         "double") from None
    return BoundReport(epsilon, s_bits, int(n), c, log_base, raw,
                       min(1.0, raw), raw >= 1.0)
