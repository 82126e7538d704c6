"""Correlated sampling: shared-randomness rejection and embezzlement.

The classical protocol lets two players holding nearby distributions accept
a common sample from a shared stream without communication; one batched
kernel runs many independent streams at once.  The quantum analogue aligns
a large embezzlement state against each player's own description of a
target state (van Dam and Hayden).  The outcome is read from one table of
the shared state's slots, indexed by where Alice sends each slot, by
weighted sums with no dense vector and no sort, so junk dimensions up to
2^20 stay cheap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import matcore
from .prob import FiniteDistribution

MAX_EMBEZZLE_DIM = 2 ** 24
GRID_FLOOR = 1e-12
MAX_STREAM_CELLS = 2 ** 18     # (u, t) pairs held by one sampling pass


def shared_stream_sample(p: np.ndarray, q: np.ndarray, m: int,
                         rng: np.random.Generator,
                         max_draws: int = 10_000) -> tuple:
    """m independent runs of Holenstein's shared-stream rejection protocol.

    Each run reads its own stream of pairs (u, t), u uniform over the
    support and t uniform in [0, 1).  Alice accepts the first pair with
    t < p[u], Bob the first with t < q[u]; they agree when both accept the
    same pair.  Every pass draws a block of pairs for each run still open
    and finds each side's first accepting pair with argmax, so its cost is
    a few numpy calls whatever m is.  Runs that closed are dropped, and a
    pass holds at most MAX_STREAM_CELLS pairs.

    Returns (a, b, agreed, failed): the flat element each side accepted
    (-1 where a side accepted nothing within max_draws) and the masks of
    agreeing runs and of runs where either side ran out of draws.
    """
    if m < 1:
        raise ValueError("correlated sampling needs at least one run")
    if max_draws < 1:
        raise ValueError("correlated sampling needs max_draws of at least 1")
    laws = np.stack([np.asarray(p, dtype=np.float64).ravel(),
                     np.asarray(q, dtype=np.float64).ravel()])
    size = laws.shape[1]
    # a side accepts a pair with probability sum(p) / size = 1 / size, so a
    # block of two support sizes closes most runs in the first pass
    block = max(16, 2 * size)
    elem = np.full((2, m), -1, dtype=np.int64)   # accepted element per side
    pos = np.full((2, m), -1, dtype=np.int64)    # its position in the stream
    for lo in range(0, m, MAX_STREAM_CELLS):
        rows = np.arange(lo, min(m, lo + MAX_STREAM_CELLS))
        drawn = 0
        while rows.size and drawn < max_draws:
            width = min(block, max_draws - drawn,
                        max(1, MAX_STREAM_CELLS // rows.size))
            u = rng.integers(0, size, size=(rows.size, width))
            t = rng.random((rows.size, width))
            for side in (0, 1):
                hits = t < laws[side][u]
                first = hits.argmax(axis=1)
                new = (pos[side, rows] < 0) & hits[np.arange(rows.size),
                                                   first]
                pos[side, rows[new]] = drawn + first[new]
                elem[side, rows[new]] = u[new, first[new]]
            drawn += width
            rows = rows[(pos[:, rows] < 0).any(axis=0)]
    failed = (pos < 0).any(axis=0)
    agreed = ~failed & (pos[0] == pos[1])
    return elem[0], elem[1], agreed, failed


def _aligned_tables(p: FiniteDistribution, q: FiniteDistribution) -> tuple:
    if set(p.names) != set(q.names):
        raise ValueError("distributions must share the same variables")
    q = q.reordered(p.names)
    return p.table.ravel(), q.table.ravel()


@dataclass
class CorrSampleStats:
    n_runs: int
    agree_rate: float
    fail_rate: float
    tv_a: float
    tv_b: float
    chi2_pvalue_a: float | None     # None when side A accepted nothing
    counts_a: np.ndarray = field(repr=False, default=None)
    counts_b: np.ndarray = field(repr=False, default=None)


def corr_sample_experiment(p: FiniteDistribution, q: FiniteDistribution,
                           n_runs: int, seed: int,
                           max_draws: int = 10_000) -> CorrSampleStats:
    """Agreement and marginal statistics of n_runs independent runs."""
    pt, qt = _aligned_tables(p, q)
    size = pt.size
    a, b, agreed, failed = shared_stream_sample(
        pt, qt, n_runs, np.random.default_rng([int(seed)]), max_draws)
    counts_a = np.bincount(a[a >= 0], minlength=size).astype(float)
    counts_b = np.bincount(b[b >= 0], minlength=size).astype(float)
    tot_a = counts_a.sum()
    tot_b = counts_b.sum()
    tv_a = 0.5 * float(np.abs(counts_a / tot_a - pt).sum()) if tot_a else 1.0
    tv_b = 0.5 * float(np.abs(counts_b / tot_b - qt).sum()) if tot_b else 1.0
    keep = pt > 0
    pval = None if not tot_a else float(stats.chisquare(
        counts_a[keep], tot_a * pt[keep] / pt[keep].sum()).pvalue)
    return CorrSampleStats(n_runs, float(agreed.mean()),
                           float(failed.mean()), tv_a, tv_b, pval,
                           counts_a, counts_b)


@dataclass(frozen=True)
class EmbezzlementVector:
    """Coefficients (1/sqrt(j)) / sqrt(H_N), j = 1..N, stored once."""

    dim: int
    coefficients: np.ndarray = field(repr=False)

    def norm_error(self) -> float:
        return abs(float(self.coefficients @ self.coefficients) - 1.0)


@functools.lru_cache(maxsize=16)
def _embezzlement_cached(n: int) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=np.float64)
    h_n = float(np.sum(1.0 / j))
    c = 1.0 / np.sqrt(j * h_n)
    c.flags.writeable = False
    return c


def embezzlement(n: int) -> EmbezzlementVector:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n > MAX_EMBEZZLE_DIM:
        raise ValueError("dimension exceeds the structural cap")
    return EmbezzlementVector(int(n), _embezzlement_cached(int(n)))


@dataclass(frozen=True, eq=False)
class AlignmentIsometry:
    """Local alignment of an embezzlement state toward one player's target.

    perm[j] is the flat (target k, junk l) slot that the j-th largest
    embezzlement coefficient is routed to.  rot_left and rot_right are the
    target state's two local Schmidt bases; the player acting on the left
    factor applies rot_left on the target register, the right player
    rot_right.  coeffs_exact holds the unrounded Schmidt coefficients.
    """

    d: int
    d_prime: int
    alpha: float
    perm: np.ndarray = field(repr=False)
    rot_left: np.ndarray = field(repr=False)
    rot_right: np.ndarray = field(repr=False)
    coeffs_exact: np.ndarray = field(repr=False)
    coeffs_grid: np.ndarray = field(repr=False)


def _grid_round(s: np.ndarray, alpha: float) -> np.ndarray:
    out = np.zeros_like(s)
    pos = s > GRID_FLOOR
    g = np.rint(-np.log(s[pos]) / math.log1p(alpha))
    g = np.maximum(g, 0.0)
    out[pos] = np.exp(-g * math.log1p(alpha))
    norm = np.linalg.norm(out)
    if norm > 0.0:
        out /= norm
    return out


def _canonical_degenerate_blocks(u: np.ndarray, s: np.ndarray,
                                 vh: np.ndarray,
                                 rel_tol: float = 1e-4) -> tuple:
    """Pin the factorization basis inside repeated-singular-value blocks.

    Within such a block the decomposition is free up to a unitary mixing,
    and two parties whose inputs differ by rounding noise would otherwise
    land on unrelated bases.  Diagonalizing a fixed reference observable
    (the coordinate index operator) inside each block makes the choice a
    continuous deterministic function of the input whenever the reference
    spectrum inside the block is simple.  The grouping tolerance sits far
    below the coefficient rounding grid, so merging near-ties perturbs the
    factorization by less than the rounding step itself.
    """
    d = s.size
    if d < 2:
        return u, vh
    u = u.copy()
    vh = vh.copy()
    tol = rel_tol * float(s[0]) if float(s[0]) > 0.0 else 0.0
    ref = np.arange(u.shape[0], dtype=np.float64)
    start = 0
    for stop in range(1, d + 1):
        if stop < d and s[stop - 1] - s[stop] <= tol:
            continue
        if stop - start > 1:
            blk = u[:, start:stop]
            g = (blk.conj().T * ref) @ blk
            g = (g + g.conj().T) / 2
            _vals, z = np.linalg.eigh(g)
            w = blk @ z
            for c in range(w.shape[1]):
                nz = np.flatnonzero(np.abs(w[:, c]) > 1e-12)
                if nz.size:
                    ph = w[nz[0], c] / abs(w[nz[0], c])
                    w[:, c] = w[:, c] / ph
                    z[:, c] = z[:, c] / ph
            u[:, start:stop] = w
            vh[start:stop, :] = z.conj().T @ vh[start:stop, :]
        start = stop
    return u, vh


def qcs_isometry(own_state: np.ndarray, d_prime: int,
                 alpha: float = 0.01) -> AlignmentIsometry:
    """Alignment isometry for one player's description of the target.

    Schmidt coefficients are rounded to the grid (1+alpha)^-g, multiplied
    into the junk embezzlement coefficients, and the resulting slot values
    are matched in sorted order (ties broken by slot index) against the
    big embezzlement coefficients.
    """
    own_state = np.asarray(own_state, dtype=np.complex128).ravel()
    d2 = own_state.size
    d = int(round(math.sqrt(d2)))
    if d * d != d2:
        raise ValueError("state length must be a perfect square")
    if abs(np.linalg.norm(own_state) - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    if d * d_prime > MAX_EMBEZZLE_DIM:
        raise ValueError("d * d_prime exceeds the structural cap")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be a positive finite number")
    u, s, vh = matcore.svd_canonical(own_state.reshape(d, d))
    s = np.clip(s, 0.0, None)
    u, vh = _canonical_degenerate_blocks(u, s, vh)
    s_grid = _grid_round(s, alpha)
    junk = embezzlement(d_prime).coefficients
    tau = np.multiply.outer(s_grid, junk).ravel()
    # slot k * d_prime + l is tau's flat index, so a stable sort breaks
    # ties by (k, l)
    order = np.argsort(-tau, kind="stable")
    return AlignmentIsometry(d, int(d_prime), float(alpha),
                             order.astype(np.int64, copy=False), u, vh.T,
                             s.copy(), s_grid)


@dataclass
class QCSResult:
    produced_target: np.ndarray
    err: float
    overlap: float


def _slot_table(iso_a: AlignmentIsometry, iso_b: AlignmentIsometry) -> tuple:
    """Bob's destination and the coefficient of each slot, by Alice's.

    Slot j of the shared state goes to (k_a, l_a) = divmod(iso_a.perm[j],
    d') on Alice's side and to (k_b, l_b) on Bob's.  Entry [k_a, l_a] of
    the (d, d') arrays k_b, l_b, vals describes the slot Alice sends there.
    """
    d, dp = iso_a.d, iso_a.d_prime
    if (d, dp) != (iso_b.d, iso_b.d_prime):
        raise ValueError("isometry dimensions do not match")
    src = np.empty(d * dp, dtype=np.int64)
    src[iso_a.perm] = np.arange(d * dp)
    k_b, l_b = np.divmod(iso_b.perm[src].reshape(d, dp), dp)
    vals = embezzlement(d * dp).coefficients[src].reshape(d, dp)
    return k_b, l_b, vals


def _junk_overlap(table: tuple, g: np.ndarray) -> float:
    """Re sum(vals * junk[l_a] * g[k_a, k_b]) over the slots with l_b == l_a.

    The overlap with a target paired with a fresh junk embezzlement state;
    g holds the target's conjugated amplitudes in the players' bases.
    """
    k_b, l_b, vals = table
    d, dp = vals.shape
    w = vals * embezzlement(dp).coefficients
    w *= l_b == np.arange(dp)
    return float(np.sum(w * g.real[np.arange(d)[:, None], k_b]))


def qcs_error_against(iso_a: AlignmentIsometry, iso_b: AlignmentIsometry,
                      target_state: np.ndarray) -> float:
    """Distance between the produced vector and an explicit target state.

    The target is any normalized bipartite state on the two d-dimensional
    factors; it is paired with a fresh junk embezzlement state.  Computed
    from the slot table, no dense product vector.
    """
    table = _slot_table(iso_a, iso_b)
    d = iso_a.d
    tgt = np.asarray(target_state, dtype=np.complex128).reshape(d, d)
    g = iso_a.rot_left.T @ tgt.conj() @ iso_b.rot_right
    return math.sqrt(max(0.0, 2.0 - 2.0 * _junk_overlap(table, g)))


def qcs_execute(iso_a: AlignmentIsometry, iso_b: AlignmentIsometry,
                target_dim: int) -> QCSResult:
    """Outcome of both alignment isometries acting on the shared state.

    Tracing out the junk registers pairs two slots of the slot table when
    they share Alice's column l_a and Bob's l_b, so block (p, q) of the
    reduced state is one bincount over the d' columns at (k_b[p], k_b[q])
    with weights vals[p] * vals[q] where l_b[p] == l_b[q]; it is then
    rotated by the players' local bases.  err is the Euclidean distance of
    the full produced vector from iso_a's target state paired with a fresh
    junk embezzlement state, overlap their inner product.
    """
    if iso_a.d != target_dim:
        raise ValueError("isometry dimensions do not match")
    table = _slot_table(iso_a, iso_b)
    k_b, l_b, vals = table
    d = iso_a.d
    cross = iso_a.rot_right.conj().T @ iso_b.rot_right
    overlap = _junk_overlap(table, iso_a.coeffs_exact[:, None] * cross)
    err = math.sqrt(max(0.0, 2.0 - 2.0 * overlap))

    rho = np.zeros((d, d, d, d))
    for p in range(d):
        for q in range(p, d):
            w = vals[p] * vals[q] * (l_b[p] == l_b[q])
            block = np.bincount(k_b[p] * d + k_b[q], weights=w,
                                minlength=d * d).reshape(d, d)
            rho[p, :, q, :] = block
            rho[q, :, p, :] = block.T
    k = np.kron(iso_a.rot_left, iso_b.rot_right)
    produced = k @ rho.reshape(k.shape) @ k.conj().T
    produced = (produced + produced.conj().T) / 2
    return QCSResult(produced, err, overlap)
