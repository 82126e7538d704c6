"""Correlated sampling: shared-randomness rejection and embezzlement.

The classical protocol lets two players holding nearby distributions accept
a common sample from a shared stream without communication; one batched
kernel runs many independent streams at once.  The quantum analogue aligns
a large embezzlement state against each player's own description of a
target state (van Dam and Hayden).  Where each slot of the shared state
goes depends only on the players' rounded Schmidt spectra and the junk
dimension, so the junk-traced outcome is built once per pair of rounded
spectra and cached; a call with known spectra does work of the target's
size only, whatever the junk dimension.  Each side's slot order is a
merge of d sorted rows, formed block by block, and the build then walks
the junk columns in blocks, so it holds 4 bytes per slot and side and no
array of all slots besides; when both descriptions round to the same
spectrum, each column block is one Gram product.

A chi-square test checks side A's marginal against its law.  Its tail
probability comes from `_chi2_sf`, pure `math` for any integer degrees of
freedom, so the package needs numpy only.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .prob import MAX_TABLE_ENTRIES, FiniteDistribution

MAX_EMBEZZLE_DIM = 2 ** 24
GRID_FLOOR = 1e-12             # Schmidt coefficients at most this round to 0
DEGENERATE_GAP = 1e-4          # relative gap that joins singular values into a block
MAX_STREAM_CELLS = 2 ** 18     # (u, t) pairs held by one sampling pass
JUNK_TRACE_CACHE = 16          # spectrum pairs kept by _junk_trace, d^4 + d^2
                               # floats each
_JUNK_BLOCK = 2 ** 16          # junk columns per block of _junk_trace
_SLOT_BLOCK = 2 ** 16          # slots per block of the slot-order merge
_HARMONIC_LEAF = 2 ** 16       # terms per numpy sum in _harmonic
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def shared_stream_sample(p: np.ndarray, q: np.ndarray, m: int,
                         rng: np.random.Generator,
                         max_draws: int = 10_000) -> tuple:
    """m independent runs of Holenstein's shared-stream rejection protocol.

    Each run reads its own stream of pairs (u, t), u uniform over the
    support and t uniform in [0, 1).  Alice accepts the first pair with
    t < p[u], Bob the first with t < q[u]; they agree when both accept the
    same pair.  Every pass draws a block of pairs for each run still open,
    in ascending run order, so its cost is a few numpy calls whatever m is.
    Each side keeps one waiting flag per open run; its accepting pairs are
    listed flat, in stream order, and a waiting run closes at the first
    one in its row.  Only the runs that close are written to the (2, m)
    state, the runs where both sides accepted are dropped along with their
    flags, and a pass holds at most MAX_STREAM_CELLS pairs.

    Returns (a, b, agreed, failed): the flat element each side accepted
    (-1 where a side accepted nothing within max_draws) and the masks of
    agreeing runs and of runs where either side ran out of draws.
    """
    if not 1 <= m <= MAX_TABLE_ENTRIES:
        raise ValueError(f"correlated sampling needs 1 to {MAX_TABLE_ENTRIES}"
                         f" runs (the entry cap), got {m}")
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
        waiting = [np.ones(rows.size, dtype=bool) for _ in laws]
        drawn = 0
        while rows.size and drawn < max_draws:
            width = min(block, max_draws - drawn,
                        max(1, MAX_STREAM_CELLS // rows.size))
            u = rng.integers(0, size, size=(rows.size, width))
            t = rng.random((rows.size, width))
            for side, law in enumerate(laws):
                # accepting cells in stream order; a waiting side accepts
                # the first one in its row
                cell = np.flatnonzero(t < law.take(u))
                row = cell // width
                close = waiting[side][row]
                close[1:] &= row[1:] != row[:-1]
                close = np.flatnonzero(close)
                cell, row = cell[close], row[close]
                waiting[side][row] = False
                run = rows[row]
                pos[side][run] = drawn + cell % width
                elem[side][run] = u.ravel()[cell]
            drawn += width
            still = np.flatnonzero(waiting[0] | waiting[1])
            rows, waiting = rows[still], [w[still] for w in waiting]
    failed = (pos < 0).any(axis=0)
    agreed = ~failed & (pos[0] == pos[1])
    return elem[0], elem[1], agreed, failed


def _aligned_tables(p: FiniteDistribution, q: FiniteDistribution) -> tuple:
    if set(p.names) != set(q.names):
        raise ValueError("distributions must share the same variables")
    q = q.reordered(p.names)
    return p.table.ravel(), q.table.ravel()


def _stirlerr(a: float) -> float:
    """ln Γ(a+1) − (a+½)·ln a + a − ln √(2π), the Stirling remainder."""
    if a <= 15.0:
        return (math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a
                - _LN_SQRT_2PI)
    aa = a * a
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / aa) / aa)
                      / aa) / aa) / a


def _chi2_sf(dof: int, stat: float) -> float:
    """P(χ² ≥ stat) for dof degrees of freedom: Q(dof/2, stat/2).

    Q is the regularized upper incomplete gamma function, summed as the
    series of P = 1 − Q below a+1 and as Legendre's continued fraction
    (modified Lentz) above it.  Both carry the factor x^a e^(−x) / Γ(a+1),
    whose logarithm is formed from the Stirling remainder and from
    a·log1p((x−a)/a) − (x−a) (Loader 2000): it does not cancel near x = a,
    and nothing overflows; the factor underflows only where P or Q itself
    is below the smallest double.
    """
    if dof < 1:
        raise ValueError(f"chi-square tail needs at least 1 degree of "
                         f"freedom, got {dof}")
    if not stat >= 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {stat}")
    a, x = dof / 2, stat / 2
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    eps = sys.float_info.epsilon
    log_factor = (a * math.log1p((x - a) / a) - (x - a) - _stirlerr(a)
                  - 0.5 * math.log(a) - _LN_SQRT_2PI)
    if x < a + 1.0:
        # P = factor * sum_n x^n / ((a+1)...(a+n))
        term = total = 1.0
        n = 1
        while term > eps * total:
            term *= x / (a + n)
            total += term
            n += 1
        return 1.0 - math.exp(log_factor) * total
    # Q = a * factor / (x+1-a - 1(1-a) / (x+3-a - 2(2-a) / (x+5-a - ...)))
    tiny = sys.float_info.min
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = frac = 1.0 / b
    i = 1
    while True:
        num = i * (a - i)
        b += 2.0
        d = 1.0 / (num * d + b or tiny)
        c = b + num / c or tiny
        frac *= c * d
        if abs(c * d - 1.0) <= eps:
            return a * math.exp(log_factor) * frac
        i += 1


@dataclass
class CorrSampleStats:
    n_runs: int
    agree_rate: float
    fail_rate: float
    tv_a: float
    tv_b: float
    chi2_pvalue_a: float | None     # None when side A accepted nothing
                                    # or its law has one support cell
    counts_a: np.ndarray = field(repr=False, default=None)
    counts_b: np.ndarray = field(repr=False, default=None)


def corr_sample_experiment(p: FiniteDistribution, q: FiniteDistribution,
                           n_runs: int, seed: int,
                           max_draws: int = 10_000) -> CorrSampleStats:
    """Agreement and marginal statistics of n_runs independent runs.

    chi2_pvalue_a is Pearson's goodness-of-fit p-value of side A's counts
    against p, over the support of p (dof = support size − 1), from
    `_chi2_sf`; it is None when side A accepted nothing or p has one
    support cell.
    """
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
    dof = int(keep.sum()) - 1
    pval = None                      # no draws, or no degrees of freedom
    if tot_a and dof > 0:
        expect = tot_a * pt[keep] / pt[keep].sum()
        stat = float(((counts_a[keep] - expect) ** 2 / expect).sum())
        pval = _chi2_sf(dof, stat)
    return CorrSampleStats(n_runs, float(agreed.mean()),
                           float(failed.mean()), tv_a, tv_b, pval,
                           counts_a, counts_b)


@dataclass(frozen=True)
class EmbezzlementVector:
    """Coefficients (1/sqrt(j)) / sqrt(H_N), j = 1..N, stored once."""

    dim: int
    coefficients: np.ndarray = field(repr=False)


def _harmonic(n: int) -> float:
    """H_n = sum of 1/j for j = 1..n, bit for bit the sum numpy forms of
    the n-length array: the same pairwise split (halve, round down to a
    multiple of 8) down to leaves of at most _HARMONIC_LEAF terms, each
    summed by numpy, so no n-length array is built."""
    def part(lo: int, size: int) -> float:
        if size <= _HARMONIC_LEAF:
            inv = np.arange(lo + 1, lo + size + 1, dtype=np.float64)
            np.divide(1.0, inv, out=inv)
            return float(inv.sum())
        half = size // 2
        half -= half % 8
        return part(lo, half) + part(lo + half, size - half)

    return part(0, n)


@functools.lru_cache(maxsize=16)
def _embezzlement_cached(n: int) -> np.ndarray:
    c = np.arange(1, n + 1, dtype=np.float64)
    c *= _harmonic(n)
    np.sqrt(c, out=c)
    np.divide(1.0, c, out=c)
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

    rot_left and rot_right are the target state's two local Schmidt bases;
    the player acting on the left factor applies rot_left on the target
    register, the right player rot_right.  coeffs_exact holds the unrounded
    Schmidt coefficients and coeffs_grid (read-only) the rounded ones,
    which alone, with d_prime, fix where each slot is routed.
    """

    d: int
    d_prime: int
    alpha: float
    rot_left: np.ndarray = field(repr=False)
    rot_right: np.ndarray = field(repr=False)
    coeffs_exact: np.ndarray = field(repr=False)
    coeffs_grid: np.ndarray = field(repr=False)

    @property
    def perm(self) -> np.ndarray:
        """perm[j] is the flat (target k, junk l) slot that the j-th largest
        embezzlement coefficient is routed to."""
        return np.concatenate([slots for _j, slots in
                               _slot_blocks(self.coeffs_grid, self.d_prime)])


def _counts_above(grid: np.ndarray, junk: np.ndarray,
                  cuts: np.ndarray) -> np.ndarray:
    """counts[i, k]: how many junk indices l have grid[k] * junk[l] > cuts[i].

    Each row's products do not increase with l, so the count ends a
    prefix; bisection finds it by comparing the very products that
    np.multiply.outer forms.
    """
    lo = np.zeros((cuts.size, grid.size), dtype=np.int64)
    hi = np.full_like(lo, junk.size)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        above = grid * junk[np.minimum(mid, junk.size - 1)] > cuts[:, None]
        lo = np.where(open_ & above, mid + 1, lo)
        hi = np.where(open_ & ~above, mid, hi)
    return lo


def _slot_blocks(grid: np.ndarray, d_prime: int):
    """Yield (j, slots): the flat slots k * d' + l of ranks j, j+1, ... in
    the stable order by decreasing grid[k] * junk[l], ties by flat index.

    Row k does not increase in l, so the order merges d sorted rows.  The
    value range is cut at the products every _SLOT_BLOCK // d columns of
    every positive row, coalesced so that a block holds about _SLOT_BLOCK
    slots; between two cuts each row's share is a contiguous range of l.
    A block concatenates its ranges in k order and stable-sorts them alone,
    which breaks ties as one sort of all slots would.  The slots of value 0
    (rows whose grid is 0) tie and come last, in flat order, with no sort.
    """
    d = grid.size
    junk = embezzlement(d_prime).coefficients
    step = max(1, _SLOT_BLOCK // d)
    # a repeated cut only adds an empty block, which is skipped
    cuts = np.sort(np.multiply.outer(grid[grid > 0], junk[step - 1::step]),
                   axis=None)
    cuts = np.append(cuts[::-1], 0.0)
    counts = _counts_above(grid, junk, cuts)
    total = counts.sum(axis=1)
    lower = np.zeros(d, dtype=np.int64)
    j = 0
    i = -1
    while i < cuts.size - 1:
        # the last cut that keeps the block within _SLOT_BLOCK slots, or
        # the next cut if none does
        i = max(i + 1, int(np.searchsorted(total, j + _SLOT_BLOCK,
                                           "right")) - 1)
        upper = counts[i]
        rows = np.flatnonzero(upper > lower)
        if rows.size == 0:
            continue
        # -(g * x) == (-g) * x exactly, so these are the negated products
        neg = np.concatenate([junk[lower[k]:upper[k]] * -grid[k]
                              for k in rows])
        slots = np.argsort(neg, kind="stable")
        # a slot's place in the block plus its row's offset is its flat index
        sizes = upper[rows] - lower[rows]
        slots += np.repeat(rows * d_prime + lower[rows] - np.cumsum(sizes)
                           + sizes, sizes)[slots]
        yield j, slots
        j = int(total[i])
        lower = counts[i]
    for k in range(d):
        for lo in range(int(lower[k]), d_prime, _SLOT_BLOCK):
            cols = np.arange(lo, min(d_prime, lo + _SLOT_BLOCK))
            yield j, k * d_prime + cols
            j += cols.size


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
                                 vh: np.ndarray) -> tuple:
    """Pin the factorization basis inside repeated-singular-value blocks.

    Within such a block the decomposition is free up to a unitary mixing,
    and two parties whose inputs differ by rounding noise would otherwise
    land on unrelated bases.  Diagonalizing a fixed reference observable
    (the coordinate index operator) inside each block makes the choice a
    continuous deterministic function of the input whenever the reference
    spectrum inside the block is simple.  The grouping gap, DEGENERATE_GAP
    of the largest value, sits far below the rounding grid, so merging
    near-ties perturbs the factorization by less than one rounding step.
    """
    d = s.size
    if d < 2:
        return u, vh
    u = u.copy()
    vh = vh.copy()
    tol = DEGENERATE_GAP * float(s[0]) if float(s[0]) > 0.0 else 0.0
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
                nz = np.flatnonzero(np.abs(w[:, c]) > matcore.PHASE_ATOL)
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

    Schmidt coefficients are rounded to the grid (1+alpha)^-g.  Their
    products with the junk embezzlement coefficients, matched in sorted
    order (ties broken by slot index) against the big embezzlement
    coefficients, route the shared state's slots; that order depends on the
    grid and d_prime alone, so it is computed where it is read (`perm`,
    `qcs_execute`).
    """
    own_state = np.asarray(own_state, dtype=np.complex128).ravel()
    d2 = own_state.size
    d = int(round(math.sqrt(d2)))
    if d * d != d2:
        raise ValueError("state length must be a perfect square")
    if abs(np.linalg.norm(own_state) - 1.0) > matcore.NORM_ATOL:
        raise ValueError("state must be normalized")
    if d * d_prime > MAX_EMBEZZLE_DIM:
        raise ValueError("d * d_prime exceeds the structural cap")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be a positive finite number")
    if d_prime < 1:
        raise ValueError("dimension must be at least 1")
    u, s, vh = matcore.svd_canonical(own_state.reshape(d, d))
    s = np.clip(s, 0.0, None)
    u, vh = _canonical_degenerate_blocks(u, s, vh)
    s_grid = _grid_round(s, alpha)
    s_grid.flags.writeable = False
    return AlignmentIsometry(d, int(d_prime), float(alpha), u, vh.T,
                             s.copy(), s_grid)


@dataclass
class QCSResult:
    produced_target: np.ndarray
    err: float
    overlap: float
    ref_err: float | None = None


@functools.lru_cache(maxsize=JUNK_TRACE_CACHE)
def _junk_trace(grid_a: bytes, grid_b: bytes, d: int, d_prime: int) -> tuple:
    """(rho, over) for the slot orders of two rounded spectra.

    Slot j of the shared state, coefficient 1/sqrt((j+1) H_N), goes to
    Alice's slot (k_a, l_a) in her order and to Bob's (k_b, l_b) in his.
    Tracing out the junk registers pairs two slots when they share Alice's
    column l_a and Bob's l_b, so block (p, q) of the reduced state rho (in
    the Schmidt bases) is a sum over Alice's d' columns: vals[p] * vals[q]
    where l_b[p] == l_b[q], binned on (k_b[p], k_b[q]).  over[p, q] sums
    vals * junk[l_a] over row p's slots with l_b == l_a and k_b == q: the
    weight of g[p, q] in the overlap with a target paired with a fresh junk
    state.  Only Alice's rank per slot and, for different spectra, Bob's
    slot per rank are held at full length, each written block by block as
    `_slot_blocks` merges the slot order; the columns are then walked in
    blocks of _JUNK_BLOCK, each forming its own vals, k_b and l_b.  With
    equal spectra Bob's slot is Alice's own, so a block adds its Gram
    matrix vals @ vals.T to rho[p, p, q, q] and vals @ junk to over's
    diagonal.  Both arrays are read-only and depend on the grids and
    d' alone.
    """
    n = d * d_prime
    h_n = _harmonic(n)
    rank = np.empty((d, d_prime), dtype=np.int32)   # Alice's slot -> rank j
    flat = rank.reshape(n)
    for j, slots in _slot_blocks(np.frombuffer(grid_a), d_prime):
        flat[slots] = np.arange(j, j + slots.size, dtype=np.int32)
    equal = grid_b == grid_a
    if not equal:                                   # rank j -> Bob's slot
        dest = np.empty(n, dtype=np.int32)
        for j, slots in _slot_blocks(np.frombuffer(grid_b), d_prime):
            dest[j:j + slots.size] = slots
    junk = embezzlement(d_prime).coefficients
    pairs = np.zeros((d, d, d, d))          # rho[p, :, q, :] for p <= q
    over = np.zeros((d, d))
    diag = np.arange(d)
    for lo in range(0, d_prime, _JUNK_BLOCK):
        cols = slice(lo, min(d_prime, lo + _JUNK_BLOCK))
        # the elementwise steps of _embezzlement_cached, at Alice's ranks
        vals = rank[:, cols].astype(np.float64)
        vals += 1.0
        vals *= h_n
        np.sqrt(vals, out=vals)
        np.divide(1.0, vals, out=vals)
        if equal:                       # Bob's slot is Alice's own
            pairs[diag[:, None], diag, diag[:, None], diag] += vals @ vals.T
            over[diag, diag] += vals @ junk[cols]
            continue
        k_b, l_b = np.divmod(dest[rank[:, cols]], d_prime)
        for p in range(d):
            for q in range(p, d):
                w = vals[p] * vals[q] * (l_b[p] == l_b[q])
                pairs[p, q] += np.bincount(
                    k_b[p] * d + k_b[q], weights=w,
                    minlength=d * d).reshape(d, d)
            hit = l_b[p] == np.arange(cols.start, cols.stop)
            over[p] += np.bincount(k_b[p, hit],
                                   weights=vals[p, hit] * junk[cols][hit],
                                   minlength=d)
    rho = np.zeros((d, d, d, d))
    for p in range(d):
        for q in range(p, d):
            rho[p, :, q, :] = pairs[p, q]
            rho[q, :, p, :] = pairs[p, q].T
    rho.flags.writeable = False
    over.flags.writeable = False
    return rho, over


def qcs_execute(iso_a: AlignmentIsometry, iso_b: AlignmentIsometry,
                target_dim: int, reference: np.ndarray | None = None) -> QCSResult:
    """Outcome of both alignment isometries acting on the shared state.

    The junk-traced state rho and the overlap weights over come from
    `_junk_trace`, built once per pair of rounded spectra and d' and
    cached, so a call does d-sized work: rho rotated by the players' local
    bases is the produced target state.  err is the Euclidean distance of
    the full produced vector from iso_a's target state paired with a fresh
    junk embezzlement state, overlap their inner product, sum(over * Re g)
    with g the target's conjugated amplitudes in the players' bases.  When
    a reference state (any normalized bipartite state on the two
    d-dimensional factors) is given, ref_err is the same distance with the
    reference in place of iso_a's target.
    """
    d, dp = iso_a.d, iso_a.d_prime
    if d != target_dim or (d, dp) != (iso_b.d, iso_b.d_prime):
        raise ValueError("isometry dimensions do not match")
    rho, over = _junk_trace(iso_a.coeffs_grid.tobytes(),
                            iso_b.coeffs_grid.tobytes(), d, dp)
    cross = iso_a.rot_right.conj().T @ iso_b.rot_right
    overlap = float(np.sum(over * (iso_a.coeffs_exact[:, None] * cross).real))
    err = math.sqrt(max(0.0, 2.0 - 2.0 * overlap))
    ref_err = None
    if reference is not None:
        tgt = np.asarray(reference, dtype=np.complex128).reshape(d, d)
        g = iso_a.rot_left.T @ tgt.conj() @ iso_b.rot_right
        ref_err = math.sqrt(max(0.0, 2.0 - 2.0 * float(np.sum(over * g.real))))
    k = np.kron(iso_a.rot_left, iso_b.rot_right)
    produced = k @ rho.reshape(k.shape) @ k.conj().T
    produced = (produced + produced.conj().T) / 2
    return QCSResult(produced, err, overlap, ref_err)
