import functools
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repgames import corrsamp, matcore, reduction
from repgames.cli import main
from repgames.corrsamp import (GRID_FLOOR, AlignmentIsometry,
                               EmbezzlementVector, corr_sample_experiment,
                               embezzlement, qcs_execute, qcs_isometry,
                               shared_stream_sample)
from repgames.games import chsh
from repgames.prob import FiniteDistribution
from repgames.strategy import strategy_fixture

from _helpers import (is_near_density, random_unitary,
                      shared_stream_reference, tv_distance)

ROOT = Path(__file__).resolve().parent.parent


def slot_table(iso_a, iso_b):
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


def slot_overlap(iso_a, iso_b, g):
    """Re sum(vals * junk[l_a] * g[k_a, k_b]) over the slots with l_b == l_a,
    one term per slot: the per-slot oracle of `qcs_execute`'s overlap.

    The overlap with a target paired with a fresh junk embezzlement state;
    g holds the target's conjugated amplitudes in the players' bases.
    """
    k_b, l_b, vals = slot_table(iso_a, iso_b)
    d, dp = vals.shape
    w = vals * embezzlement(dp).coefficients
    w *= l_b == np.arange(dp)
    return float(np.sum(w * g.real[np.arange(d)[:, None], k_b]))


def own_g(iso_a, iso_b):
    """g of iso_a's own target state, as `qcs_execute` forms it."""
    return iso_a.coeffs_exact[:, None] * (iso_a.rot_right.conj().T
                                          @ iso_b.rot_right)


def qcs_error_against(iso_a, iso_b, target_state):
    """Distance between the produced vector and an explicit target state,
    from the per-slot oracle: the oracle of `qcs_execute`'s ref_err."""
    d = iso_a.d
    tgt = np.asarray(target_state, dtype=np.complex128).reshape(d, d)
    g = iso_a.rot_left.T @ tgt.conj() @ iso_b.rot_right
    return math.sqrt(max(0.0, 2.0 - 2.0 * slot_overlap(iso_a, iso_b, g)))


def biased_pair(tv):
    base = np.full(4, 0.25)
    shifted = np.array([0.25 - tv, 0.25 + tv, 0.25, 0.25])
    return (FiniteDistribution(("u",), base),
            FiniteDistribution(("u",), shifted))


def sample(p, q, m, seed, max_draws=10_000):
    return shared_stream_sample(p, q, m, np.random.default_rng(seed),
                                max_draws)


def test_shared_stream_reproducible():
    p, q = np.full(4, 0.25), np.array([0.1, 0.4, 0.25, 0.25])
    first = sample(p, q, 64, seed=5)
    again = sample(p, q, 64, seed=5)
    assert all(np.array_equal(u, v) for u, v in zip(first, again))
    other = sample(p, q, 64, seed=6)
    assert not np.array_equal(first[0], other[0])


def test_identical_distributions_always_agree():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    a, b, agreed, failed = sample(p, p, 500, seed=1)
    assert agreed.all() and not failed.any()
    assert np.array_equal(a, b)


def test_corr_sample_requires_matching_variables():
    p = FiniteDistribution(("u",), np.full(4, 0.25))
    q = FiniteDistribution(("v",), np.full(4, 0.25))
    with pytest.raises(ValueError):
        corr_sample_experiment(p, q, 10, seed=0)


def test_corr_sample_axis_order_irrelevant():
    table = np.array([[0.3, 0.2], [0.1, 0.4]])
    p = FiniteDistribution(("u", "v"), table)
    q = p.reordered(("v", "u"))
    stats = corr_sample_experiment(p, q, 500, seed=3)
    assert stats.agree_rate == 1.0
    assert np.array_equal(stats.counts_a, stats.counts_b)


def test_corr_sample_failure_on_draw_budget():
    # with a single draw both sides accept it with probability
    # sum(min(p, q)) / 4, and every other run fails
    p, q = np.full(4, 0.25), np.array([0.15, 0.35, 0.25, 0.25])
    m = 2000
    a, b, agreed, failed = sample(p, q, m, seed=0, max_draws=1)
    assert np.array_equal(failed, (a < 0) | (b < 0))
    want = 1.0 - np.minimum(p, q).sum() / 4
    assert abs(failed.mean() - want) <= 5.0 * np.sqrt(want * (1 - want) / m)
    assert not (agreed & failed).any()
    assert np.array_equal(a[agreed], b[agreed])


@pytest.mark.parametrize("m, max_draws", [(0, 10), (10, 0)])
def test_shared_stream_refuses_empty_runs(m, max_draws):
    p = np.full(4, 0.25)
    with pytest.raises(ValueError):
        sample(p, p, m, seed=0, max_draws=max_draws)
    pd = FiniteDistribution(("u",), p)
    with pytest.raises(ValueError):
        corr_sample_experiment(pd, pd, m, seed=0, max_draws=max_draws)


def test_shared_stream_marginals_and_disagreement_rate():
    p = np.array([0.05, 0.15, 0.3, 0.5, 0.0])
    q = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
    m = 40_000
    a, b, agreed, failed = sample(p, q, m, seed=11)
    assert not failed.any()
    for got, law in ((a, p), (b, q)):
        freq = np.bincount(got, minlength=p.size) / m
        sigma = np.sqrt(law * (1.0 - law) / m)
        assert np.all(np.abs(freq - law) <= 5.0 * sigma + 1e-12)
    # one pair is accepted by both sides with weight min(p, q) and by
    # either side with weight max(p, q)
    want = 1.0 - np.minimum(p, q).sum() / np.maximum(p, q).sum()
    sigma = np.sqrt(want * (1.0 - want) / m)
    assert abs((1.0 - agreed.mean()) - want) <= 5.0 * sigma


def stream_laws(size, kind, seed):
    """A pair of laws on `size` cells: both dense, both with zero cells, or
    on disjoint supports (two cells at least)."""
    rng = np.random.default_rng([size, seed])
    p, q = rng.random((2, size)) + 0.01
    if kind == "zeros":
        p[rng.random(size) < 0.4] = 0.0
        q[rng.random(size) < 0.4] = 0.0
        p[0] = q[-1] = 1.0
    elif kind == "disjoint":
        p[size // 2:] = 0.0
        q[:size // 2] = 0.0
    return p / p.sum(), q / q.sum()


STREAM_CASES = [(size, kind) for size in (1, 2, 4, 64, 300)
                for kind in ("dense", "zeros", "disjoint")
                if size > 1 or kind != "disjoint"]


def assert_same_draws(p, q, m, seed, max_draws):
    got = shared_stream_sample(p, q, m, np.random.default_rng(seed),
                               max_draws)
    want = shared_stream_reference(p, q, m, np.random.default_rng(seed),
                                   max_draws)
    for name, g, w in zip(("a", "b", "agreed", "failed"), got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), name


@pytest.mark.parametrize("size, kind", STREAM_CASES)
def test_shared_stream_equals_the_argmax_reference(size, kind):
    """Same stream, same calls: every output equals the reference's bit for
    bit, whatever the runs, the draw budget or the laws' supports."""
    p, q = stream_laws(size, kind, seed=0)
    for seed, (m, max_draws) in enumerate(itertools.product(
            (1, 2, 17, 1000, 70_000), (1, 2, 3, 10_000))):
        assert_same_draws(p, q, m, seed, max_draws)


@pytest.mark.parametrize("cells", [16, 100])
@pytest.mark.parametrize("size, kind", STREAM_CASES)
def test_shared_stream_equals_the_reference_over_small_passes(
        monkeypatch, cells, size, kind):
    """A pass cap of 16 or 100 pairs, read by both samplers, runs several
    chunks, width-1 passes and a last pass cut to max_draws - drawn."""
    monkeypatch.setattr(corrsamp, "MAX_STREAM_CELLS", cells)
    p, q = stream_laws(size, kind, seed=1)
    for seed, (m, max_draws) in enumerate(itertools.product(
            (1, cells - 1, cells, cells + 1, 3 * cells + 5),
            (1, 2, 3, 10_000))):
        assert_same_draws(p, q, m, seed, max_draws)


def test_shared_stream_equals_the_reference_when_a_side_never_accepts():
    """Bob's law has no mass, so every run stays open for max_draws and
    fails; Alice's side still closes at her first accepting pair."""
    p, q = np.ones(1), np.zeros(1)
    for seed, (m, max_draws) in enumerate(itertools.product(
            (1, 17, 1000), (1, 2, 3, 10_000))):
        assert_same_draws(p, q, m, seed, max_draws)


# 8-byte words per pair that a pass may hold, by the design: the pair (u
# and t, two), the law values it is compared with (one), and at most a
# dozen index or mask arrays over the pass's pairs, open runs or accepting
# cells (at most one word per pair each)
STREAM_PASS_WORDS = 16


@pytest.mark.parametrize("sampler", [shared_stream_sample,
                                     shared_stream_reference],
                         ids=["kernel", "reference"])
@pytest.mark.parametrize("laws", [([1.0], [1.0]),
                                  ([0.25] * 4, [0.1, 0.4, 0.25, 0.25])],
                         ids=["every-pair-accepts", "four-cells"])
def test_a_pass_holds_a_bounded_multiple_of_the_stream_cells(sampler, laws):
    """At m = MAX_STREAM_CELLS + 1 (two chunks) the peak above the (2, m)
    element and position arrays stays under a fixed number of 8-byte words
    per pair a pass holds; a kernel that drew all runs' blocks at once
    would hold 32 (m runs of 16 pairs, two words each)."""
    cells = corrsamp.MAX_STREAM_CELLS
    m = cells + 1
    p, q = (np.asarray(law) for law in laws)
    _, peak, _ = traced(lambda: sampler(p, q, m, np.random.default_rng(0)))
    assert peak - 2 * 2 * m * 8 < STREAM_PASS_WORDS * cells * 8


def test_experiment_identical_laws_full_agreement():
    p, _ = biased_pair(0.0)
    stats = corr_sample_experiment(p, p, 2000, seed=0)
    assert stats.agree_rate == 1.0
    assert stats.fail_rate == 0.0


def test_experiment_disagreement_bounded_by_four_eps():
    p, q = biased_pair(0.1)
    eps = tv_distance(p, q)
    assert abs(eps - 0.1) < 1e-12
    stats = corr_sample_experiment(p, q, 20000, seed=1)
    assert 1.0 - stats.agree_rate <= 4.0 * eps + 0.02
    assert stats.tv_a <= 0.02 and stats.tv_b <= 0.02
    assert stats.chi2_pvalue_a > 1e-4


def test_experiment_deterministic_per_seed():
    p, q = biased_pair(0.2)
    s1 = corr_sample_experiment(p, q, 500, seed=9)
    s2 = corr_sample_experiment(p, q, 500, seed=9)
    assert s1.agree_rate == s2.agree_rate
    assert np.array_equal(s1.counts_a, s2.counts_a)


@pytest.mark.parametrize("seed", range(6))
def test_experiment_chi2_pvalue_matches_scipy_stats(seed):
    from scipy import stats as scipy_stats
    rng = np.random.default_rng(seed)
    law = rng.random(3 + seed)
    law[seed % law.size] = 0.0          # a zero cell is left out of the test
    p = FiniteDistribution(("u",), law / law.sum())
    res = corr_sample_experiment(p, p, 400 + 300 * seed, seed=seed)
    keep = p.table > 0
    want = scipy_stats.chisquare(
        res.counts_a[keep],
        res.counts_a.sum() * p.table[keep] / p.table[keep].sum()).pvalue
    assert abs(res.chi2_pvalue_a - want) <= 1e-12


def test_experiment_one_support_cell_has_no_pvalue():
    p = FiniteDistribution(("u",), np.array([1.0, 0.0, 0.0]))
    q = FiniteDistribution(("u",), np.array([0.5, 0.5, 0.0]))
    res = corr_sample_experiment(p, q, 200, seed=0)
    assert res.counts_a.sum() == 200
    assert res.chi2_pvalue_a is None


def test_cli_import_leaves_scipy_out():
    """The package needs numpy only; a fresh import loads no scipy module."""
    code = ("import sys; sys.path.insert(0, 'src'); import repgames.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


FRESH_RUNS = """
import contextlib, io, sys
sys.path.insert(0, "src")
from repgames.cli import main
for argv in (["run", "reduction", "--mode", "holenstein", "--n", "2",
              "--trials", "400"], ["run", "values"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
print(sorted(m for m in sys.modules
             if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_sampled_reduction_and_seesaw_leave_numpy_ma_out():
    """np.unique's first call imports numpy.ma, 15-25 ms in a fresh
    process; the sampled reduction and the seesaw list the values present
    without it."""
    out = subprocess.run([sys.executable, "-B", "-c", FRESH_RUNS], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


WITHOUT_SCIPY = """
import importlib, pkgutil, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"no module named {name!r} (blocked)")
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the finder did not block scipy")
sys.path.insert(0, "src")
import repgames
for info in pkgutil.iter_modules(repgames.__path__):
    importlib.import_module("repgames." + info.name)
from repgames.cli import main
for argv in (["run", "corrsamp"], ["run", "bound", "--eps", "0.1"],
             ["verify", "--suite", "matcore"]):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
"""


def test_package_runs_without_scipy_installed():
    """Every module imports and three commands run with scipy unimportable."""
    out = subprocess.run([sys.executable, "-B", "-c", WITHOUT_SCIPY],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr


def chi2_tail_reference(dof, stat):
    """Q(dof/2, stat/2) at 40 digits, independent of corrsamp."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return float(mpmath.gammainc(mpmath.mpf(dof) / 2,
                                     mpmath.mpf(stat) / 2, mpmath.inf,
                                     regularized=True))


def chi2_tail_grid(dof):
    """Statistics across [0, 20 dof]: an even grid, the bulk of the law
    and both sides of the series / continued-fraction switch at dof + 2."""
    sd = math.sqrt(2.0 * dof)
    stats = list(np.linspace(0.0, 20.0 * dof, 11)[1:])
    stats += [dof + k * sd for k in (-3.0, -1.0, -0.25, 0.0, 1.0, 3.0)]
    stats += [np.nextafter(dof + 2.0, 0.0), dof + 2.0, 0.01]
    return [float(s) for s in stats if s >= 0.0]


# at dof = stat = 2000, exp(-stat/2) underflows to 0 while the tail is 0.496
CHI2_DOFS = sorted(set(range(1, 65)) | set(range(65, 4097, 181))
                   | {2 ** k + j for k in range(6, 13) for j in (-1, 0, 1)}
                   | {1999, 2000, 4096})


def test_chi2_tail_matches_mpmath_up_to_4096_dof():
    worst = max((abs(corrsamp._chi2_sf(dof, stat)
                     - chi2_tail_reference(dof, stat)), dof, stat)
                for dof in CHI2_DOFS for stat in chi2_tail_grid(dof))
    assert worst[0] <= 1e-12, worst


@pytest.mark.parametrize("dof", [10 ** 6, 10 ** 7])
def test_chi2_tail_matches_mpmath_at_millions_of_dof(dof):
    sd = math.sqrt(2.0 * dof)
    for stat in (dof - 2 * sd, dof - 0.5 * sd, dof, dof + 2, dof + 0.5 * sd,
                 dof + 2 * sd):
        got = corrsamp._chi2_sf(dof, float(stat))
        assert abs(got - chi2_tail_reference(dof, stat)) <= 1e-8, stat


def test_chi2_tail_edges_are_exact():
    for dof in (1, 2, 3, 10 ** 7):
        assert corrsamp._chi2_sf(dof, 0.0) == 1.0
        assert corrsamp._chi2_sf(dof, math.inf) == 0.0


@pytest.mark.parametrize("dof, stat", [(0, 1.0), (-3, 1.0), (2, -1.0),
                                       (2, math.nan)])
def test_chi2_tail_refuses_invalid_arguments(dof, stat):
    with pytest.raises(ValueError) as info:
        corrsamp._chi2_sf(dof, stat)
    assert "\n" not in str(info.value)


def test_embezzlement_vector_normalized_and_decreasing():
    for n in (1, 2, 37, 4096):
        vec = embezzlement(n)
        assert vec.dim == n
        assert abs(vec.coefficients @ vec.coefficients - 1.0) < 1e-12
        assert np.all(np.diff(vec.coefficients) <= 0.0)
    with pytest.raises(ValueError):
        embezzlement(0)
    with pytest.raises(ValueError):
        embezzlement(2 ** 25)


def test_embezzlement_explicit_small_case():
    vec = embezzlement(2)
    h2 = 1.0 + 0.5
    assert abs(vec.coefficients[0] - 1.0 / np.sqrt(h2)) < 1e-12
    assert abs(vec.coefficients[1] - 1.0 / np.sqrt(2 * h2)) < 1e-12


def test_embezzlement_dimension_one():
    vec = embezzlement(1)
    assert vec.coefficients.shape == (1,)
    assert vec.coefficients[0] == 1.0


def qcs_state(seed, d=4):
    return matcore.random_pure(d * d, rng=np.random.default_rng(seed))


def test_qcs_isometry_identical_inputs_bit_identical():
    psi = qcs_state(42)
    i1 = qcs_isometry(psi, 256)
    i2 = qcs_isometry(psi.copy(), 256)
    assert np.array_equal(i1.perm, i2.perm)
    assert np.array_equal(i1.rot_left, i2.rot_left)
    assert np.array_equal(i1.rot_right, i2.rot_right)
    assert np.array_equal(i1.coeffs_grid, i2.coeffs_grid)


def test_qcs_dimension_one_is_exact():
    # a trivial one-dimensional target needs no alignment at all
    psi = np.ones(1)
    i1 = qcs_isometry(psi, 8)
    i2 = qcs_isometry(psi.copy(), 8)
    assert np.array_equal(i1.perm, np.arange(8))
    assert np.allclose(i1.rot_left, np.eye(1))
    res = qcs_execute(i1, i2, 1)
    assert res.err == 0.0
    assert np.allclose(res.produced_target, np.eye(1))


def test_qcs_isometry_validation():
    psi = qcs_state(0)
    with pytest.raises(ValueError):
        qcs_isometry(psi * 2.0, 64)
    for alpha in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            qcs_isometry(psi, 64, alpha=alpha)
    with pytest.raises(ValueError):
        qcs_isometry(np.ones(3) / np.sqrt(3), 64)
    with pytest.raises(ValueError):
        qcs_isometry(psi, 2 ** 23)


def test_qcs_isometry_reconstruction_identity():
    """rot_left, coeffs_exact and rot_right factor the input state."""
    for seed in range(5):
        psi = qcs_state(seed)
        iso = qcs_isometry(psi, 64)
        rebuilt = (iso.rot_left * iso.coeffs_exact) @ iso.rot_right.T
        assert np.linalg.norm(rebuilt.reshape(-1) - psi) < 1e-10


def test_qcs_isometry_perm_is_permutation():
    iso = qcs_isometry(qcs_state(7), 128)
    assert sorted(iso.perm.tolist()) == list(range(4 * 128))


def test_qcs_isometry_perm_matches_lexsort_tie_order():
    # a maximally entangled target has two equal Schmidt coefficients, so
    # slots (0, l) and (1, l) tie for every junk index l
    psi = np.eye(2).reshape(-1) / np.sqrt(2.0)
    dp = 64
    iso = qcs_isometry(psi, dp)
    tau = np.multiply.outer(iso.coeffs_grid,
                            embezzlement(dp).coefficients).ravel()
    assert np.unique(tau).size < tau.size
    slots = np.arange(2 * dp)
    want = np.lexsort((slots % dp, slots // dp, -tau))
    assert np.array_equal(iso.perm, want)


def test_qcs_grid_rounding_tolerance():
    # each rounded coefficient sits one grid step from its input at most,
    # after the renormalization that keeps the vector unit length
    iso = qcs_isometry(qcs_state(3), 64, alpha=0.01)
    s, grid = iso.coeffs_exact, iso.coeffs_grid
    keep = s > 1e-12
    ratio = grid[keep] / s[keep]
    assert np.all(ratio <= 1.01 + 1e-12)
    assert np.all(ratio >= 1.0 / 1.01 - 1e-12)
    assert abs(np.linalg.norm(grid) - 1.0) < 1e-12


def test_qcs_execute_identical_inputs():
    psi = qcs_state(42)
    iso = qcs_isometry(psi, 256)
    res = qcs_execute(iso, iso, 4)
    assert is_near_density(res.produced_target)
    assert 0.0 <= res.err <= 0.5
    assert res.ref_err is None
    # the execute error coincides with the explicit distance to own target
    against = qcs_error_against(iso, iso, psi)
    assert abs(res.err - against) < 1e-10
    assert abs(res.overlap - slot_overlap(iso, iso, own_g(iso, iso))) <= 1e-15
    with_ref = qcs_execute(iso, iso, 4, psi)
    assert abs(with_ref.ref_err ** 2 - against ** 2) <= 1e-15
    assert np.array_equal(with_ref.produced_target, res.produced_target)
    assert with_ref.err == res.err and with_ref.overlap == res.overlap


def test_qcs_error_decreases_with_junk_dimension():
    psi = qcs_state(42)
    errs = []
    for dp in (2 ** 6, 2 ** 8, 2 ** 10):
        iso = qcs_isometry(psi, dp)
        errs.append(qcs_execute(iso, iso, 4).err)
    assert errs[0] > errs[1] > errs[2]


def test_qcs_produced_target_close_to_target_state():
    psi = qcs_state(1)
    iso = qcs_isometry(psi, 1024)
    res = qcs_execute(iso, iso, 4)
    target = np.outer(psi, psi.conj())
    # trace distance bounded by the reported vector error
    dist = matcore.trace_distance(res.produced_target, target)
    assert dist <= res.err + 1e-8


def test_qcs_robust_to_tiny_perturbations():
    """Players with inputs differing by rounding noise stay aligned."""
    rng = np.random.default_rng(11)
    for base in (qcs_state(5), np.eye(4).reshape(-1) / 2.0):
        noise = rng.normal(size=16) * 1e-6
        other = base + noise
        other = other / np.linalg.norm(other)
        iso_a = qcs_isometry(base, 256)
        iso_b = qcs_isometry(other, 256)
        err_same = qcs_execute(iso_a, iso_a, 4).err
        err_cross = qcs_execute(iso_a, iso_b, 4).err
        assert err_cross <= 2.0 * err_same


def test_qcs_dimension_mismatch_rejected():
    iso_a = qcs_isometry(qcs_state(0), 64)
    iso_b = qcs_isometry(qcs_state(0), 128)
    iso_c = qcs_isometry(qcs_state(0, d=2), 64)
    with pytest.raises(ValueError):
        qcs_execute(iso_a, iso_b, 4)
    with pytest.raises(ValueError):
        qcs_execute(iso_a, iso_a, 3)
    with pytest.raises(ValueError):
        qcs_execute(iso_a, iso_c, 4)
    with pytest.raises(ValueError):
        qcs_error_against(iso_a, iso_b, qcs_state(0))
    with pytest.raises(ValueError):
        qcs_error_against(iso_c, iso_a, qcs_state(0, d=2))
    with pytest.raises(ValueError):
        qcs_execute(iso_a, iso_b, 4, qcs_state(0))


def class_match_oracle(iso_a, iso_b):
    """(produced_target, err, overlap) by matching junk keys between classes.

    The slots are split into d^2 classes by their target pair (k_a, k_b),
    each keyed by its junk pair (l_a, l_b) and sorted; two slots meet in
    the reduced state when their keys are equal, found by searchsorted.
    """
    d, dp = iso_a.d, iso_a.d_prime
    big = embezzlement(d * dp).coefficients
    junk = embezzlement(dp).coefficients
    k_a, l_a = iso_a.perm // dp, iso_a.perm % dp
    k_b, l_b = iso_b.perm // dp, iso_b.perm % dp
    same = l_a == l_b
    cross = iso_a.rot_right.conj().T @ iso_b.rot_right
    overlap = float(np.real(np.sum(big[same] * iso_a.coeffs_exact[k_a[same]]
                                   * junk[l_a[same]]
                                   * cross[k_a[same], k_b[same]])))
    err = math.sqrt(max(0.0, 2.0 - 2.0 * overlap))
    pos = k_a * d + k_b
    key = l_a * dp + l_b
    classes = []
    for p in range(d * d):
        keys, vals = key[pos == p], big[pos == p]
        srt = np.argsort(keys)
        classes.append((keys[srt], vals[srt]))
    rho = np.zeros((d * d, d * d))
    for p in range(d * d):
        keys_p, vals_p = classes[p]
        for q in range(p, d * d):
            keys_q, vals_q = classes[q]
            if keys_p.size == 0 or keys_q.size == 0:
                continue
            idx = np.searchsorted(keys_q, keys_p)
            ok = idx < keys_q.size
            match = np.zeros(keys_p.size, dtype=bool)
            match[ok] = keys_q[idx[ok]] == keys_p[ok]
            rho[p, q] = rho[q, p] = np.sum(vals_p[match]
                                           * vals_q[idx[match]])
    k = np.kron(iso_a.rot_left, iso_b.rot_right)
    produced = k @ rho @ k.conj().T
    return (produced + produced.conj().T) / 2, err, overlap


def dense_oracle(iso_a, iso_b, target_state):
    """(produced_target, err, overlap) from the full produced vector.

    Builds sum_j c_j |k_a l_a>|k_b l_b> with Alice's rot_left and Bob's
    rot_right applied to the target registers, traces out both junk
    registers, and compares the vector with target_state paired with a
    fresh junk embezzlement state.
    """
    d, dp = iso_a.d, iso_a.d_prime
    vec = np.zeros((d, dp, d, dp), dtype=np.complex128)
    vec[iso_a.perm // dp, iso_a.perm % dp,
        iso_b.perm // dp, iso_b.perm % dp] = embezzlement(d * dp).coefficients
    vec = np.einsum("ik,jm,kamb->iajb", iso_a.rot_left, iso_b.rot_right, vec)
    flat = vec.transpose(0, 2, 1, 3).reshape(d * d, dp * dp)
    target = np.zeros_like(vec)
    idx = np.arange(dp)
    target[:, idx, :, idx] = (np.asarray(target_state).reshape(d, d)
                              * embezzlement(dp).coefficients[:, None, None])
    return (flat @ flat.conj().T, float(np.linalg.norm(vec - target)),
            float(np.real(np.vdot(target, vec))))


def assert_err_close(got, want):
    # err = sqrt(2 - 2 overlap): where err is near zero a one-ulp change of
    # overlap moves it by 1.5e-8, so there only err^2 is well conditioned
    assert abs(got ** 2 - want ** 2) <= 1e-12
    if want >= 1e-3:
        assert abs(got - want) <= 1e-12


def oracle_cases(d):
    psi = qcs_state(d, d=d)
    other = qcs_state(d + 100, d=d)
    product = np.zeros((d, d))
    product[0, 0] = 1.0
    return {"equal": (psi, psi), "different": (psi, other),
            "max_entangled": (np.eye(d).ravel() / np.sqrt(d),) * 2,
            "product": (product.ravel(), other)}


def assert_qcs_matches_oracles(iso_a, iso_b, psi_a, psi_b, name=""):
    """qcs_execute against both oracles, the per-slot overlap and the
    error against an explicit target other than Alice's description."""
    d = iso_a.d
    res = qcs_execute(iso_a, iso_b, d)
    for rho, err, overlap in (class_match_oracle(iso_a, iso_b),
                              dense_oracle(iso_a, iso_b, psi_a)):
        assert np.max(np.abs(res.produced_target - rho)) <= 1e-12, name
        assert abs(res.overlap - overlap) <= 1e-12, name
        assert_err_close(res.err, err)
    assert_err_close(qcs_error_against(iso_a, iso_b, psi_a), res.err)
    # an explicit target other than Alice's own description
    _rho, err_b, _ov = dense_oracle(iso_a, iso_b, psi_b)
    assert_err_close(qcs_error_against(iso_a, iso_b, psi_b), err_b)
    # the per-slot sum, term for term, differs from the kernel's
    # per-(p, q) sums by rounding only
    assert abs(res.overlap - slot_overlap(iso_a, iso_b,
                                          own_g(iso_a, iso_b))) <= 1e-15, name
    ref_err = qcs_execute(iso_a, iso_b, d, psi_b).ref_err
    assert abs(ref_err ** 2
               - qcs_error_against(iso_a, iso_b, psi_b) ** 2) <= 1e-15, name
    assert_err_close(ref_err, err_b)


@pytest.mark.parametrize("dp", [1, 8, 64])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_qcs_slot_table_matches_oracles(d, dp):
    for name, (psi_a, psi_b) in oracle_cases(d).items():
        iso_a = qcs_isometry(psi_a, dp)
        iso_b = iso_a if psi_b is psi_a else qcs_isometry(psi_b, dp)
        if name == "product" and d > 1:
            assert np.all(iso_a.coeffs_exact[1:] < GRID_FLOOR)
        assert_qcs_matches_oracles(iso_a, iso_b, psi_a, psi_b, name)


def schmidt_state(spectrum, seed):
    """A d=4 state with the given Schmidt spectrum in seeded local bases."""
    s = np.asarray(spectrum) / np.linalg.norm(spectrum)
    return ((random_unitary(4, seed) * s) @ random_unitary(4, seed + 1).T
            ).ravel()


@pytest.mark.parametrize("dp", [3, 8])
def test_qcs_overlap_weights_across_target_rows(dp):
    # spectra far enough apart that a slot keeps its junk index but changes
    # target row (l_b == l_a, k_b != k_a), so the overlap weights are not
    # diagonal and their orientation matters
    psi_a = schmidt_state([0.85, 0.46, 0.24, 0.085], 1)
    psi_b = schmidt_state([0.70, 0.57, 0.41, 0.05], 3)
    iso_a, iso_b = qcs_isometry(psi_a, dp), qcs_isometry(psi_b, dp)
    k_b, l_b, _vals = slot_table(iso_a, iso_b)
    assert ((l_b == np.arange(dp)) & (k_b != np.arange(4)[:, None])).any()
    res = qcs_execute(iso_a, iso_b, 4, psi_b)
    for rho, err, overlap in (class_match_oracle(iso_a, iso_b),
                              dense_oracle(iso_a, iso_b, psi_a)):
        assert np.max(np.abs(res.produced_target - rho)) <= 1e-12
        assert abs(res.overlap - overlap) <= 1e-12
        assert_err_close(res.err, err)
    assert abs(res.overlap - slot_overlap(iso_a, iso_b,
                                          own_g(iso_a, iso_b))) <= 1e-15
    assert_err_close(res.ref_err, dense_oracle(iso_a, iso_b, psi_b)[1])


@pytest.fixture
def kernel_builds(monkeypatch):
    """Keys of the junk-trace builds, counted under a fresh cache."""
    builds = []
    body = corrsamp._junk_trace.__wrapped__

    def counting(*key):
        builds.append(key)
        return body(*key)

    monkeypatch.setattr(corrsamp, "_junk_trace", functools.lru_cache(
        maxsize=corrsamp.JUNK_TRACE_CACHE)(counting))
    return builds


def test_junk_trace_built_once_per_spectrum_pair(kernel_builds, monkeypatch):
    keys = []
    execute = reduction.qcs_execute

    def recording(iso_a, iso_b, *rest):
        keys.append((iso_a.coeffs_grid.tobytes(),
                     iso_b.coeffs_grid.tobytes(), iso_a.d_prime))
        return execute(iso_a, iso_b, *rest)

    monkeypatch.setattr(reduction, "qcs_execute", recording)
    report = reduction.run_reduction(reduction.ReductionConfig(
        game=chsh(), n=2, strategy=strategy_fixture("tsirelson", 2), C=(),
        mode_quantum="embezzle", dprime=2 ** 16))
    assert report.invalid_contexts == 0
    # every one of the 32 contexts has the same rounded spectra
    assert len(keys) == 32
    assert len(kernel_builds) == len(set(keys)) == 1
    assert {(a, b, dp) for a, b, _d, dp in kernel_builds} == set(keys)


def test_junk_trace_shared_by_equal_grids(kernel_builds):
    # a local rotation keeps the Schmidt spectrum and moves both bases
    psi = qcs_state(3)
    turned = np.kron(random_unitary(4, 1), random_unitary(4, 2)) @ psi
    iso, iso_t = qcs_isometry(psi, 64), qcs_isometry(turned, 64)
    assert np.array_equal(iso.coeffs_grid, iso_t.coeffs_grid)
    assert not np.allclose(iso.rot_left, iso_t.rot_left)
    for iso_a, iso_b in ((iso, iso), (iso_t, iso_t), (iso, iso_t)):
        res = qcs_execute(iso_a, iso_b, 4)
        rho, err, overlap = class_match_oracle(iso_a, iso_b)
        assert np.max(np.abs(res.produced_target - rho)) <= 1e-12
        assert abs(res.overlap - overlap) <= 1e-12
    assert len(kernel_builds) == 1


def test_junk_trace_ragged_blocks_match_oracles(kernel_builds, monkeypatch):
    # a block of 5 junk columns divides no d' below, so every build walks
    # several blocks and a short last one, on both the equal-spectra and
    # the different-spectra path; slot-order blocks of 7 are ragged too
    monkeypatch.setattr(corrsamp, "_JUNK_BLOCK", 5)
    monkeypatch.setattr(corrsamp, "_SLOT_BLOCK", 7)
    cases = [(name, psi_a, psi_b, dp) for d in (2, 3, 4) for dp in (8, 64)
             for name, (psi_a, psi_b) in oracle_cases(d).items()]
    rows = (schmidt_state([0.85, 0.46, 0.24, 0.085], 1),
            schmidt_state([0.70, 0.57, 0.41, 0.05], 3))
    cases += [("across_rows", *rows, dp) for dp in (3, 8)]
    equal = 0
    for name, psi_a, psi_b, dp in cases:
        iso_a = qcs_isometry(psi_a, dp)
        iso_b = iso_a if psi_b is psi_a else qcs_isometry(psi_b, dp)
        equal += np.array_equal(iso_a.coeffs_grid, iso_b.coeffs_grid)
        assert_qcs_matches_oracles(iso_a, iso_b, psi_a, psi_b, name)
    assert 0 < equal < len(cases)
    assert len(kernel_builds) == len(cases)


def grid_step_pair():
    """Two entangled d=2 states whose small Schmidt coefficient sits just
    on either side of a rounding boundary of the grid (1.01)^-g."""
    step = math.log1p(0.01)
    out = []
    for g in (10.5 - 1e-3, 10.5 + 1e-3):
        small = math.exp(-g * step)
        out.append(np.diag([math.sqrt(1.0 - small ** 2), small]).ravel())
    return out


def test_junk_trace_keys_on_both_grids_and_junk_dimension(kernel_builds):
    psi = qcs_state(3)
    for dp in (64, 128):
        iso = qcs_isometry(psi, dp)
        qcs_execute(iso, iso, 4)
    assert len(kernel_builds) == 2
    lo, hi = (qcs_isometry(s, 64) for s in grid_step_pair())
    assert not np.array_equal(lo.coeffs_grid, hi.coeffs_grid)
    for iso_a, iso_b in ((lo, lo), (hi, hi), (lo, hi), (hi, lo)):
        res = qcs_execute(iso_a, iso_b, 2)
        rho, _err, overlap = class_match_oracle(iso_a, iso_b)
        assert np.max(np.abs(res.produced_target - rho)) <= 1e-12
        assert abs(res.overlap - overlap) <= 1e-12
    assert len(kernel_builds) == 6


MiB = 2 ** 20


def traced(call):
    """(result, peak, retained) bytes of one call under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before, now - before


def slot_order_oracle(grid, d_prime):
    """Flat slots k * d' + l by decreasing grid[k] * junk[l], from one
    stable argsort of all d * d' products: ties break by (k, l)."""
    tau = np.multiply.outer(grid, embezzlement(d_prime).coefficients).ravel()
    np.negative(tau, out=tau)
    return np.argsort(tau, kind="stable")


def walked_order(grid, d_prime):
    """The slot order read from `_slot_blocks`, checking that each block
    starts at the rank where the previous one ended."""
    parts, at = [], 0
    for j, slots in corrsamp._slot_blocks(np.asarray(grid, dtype=float),
                                          d_prime):
        assert j == at and slots.size > 0
        parts.append(slots)
        at += slots.size
    assert at == len(grid) * d_prime
    return np.concatenate(parts)


def oracle_grids(d, d_prime, seed):
    """Rounded spectra of random and maximally entangled states, and grids
    with tied rows, a zero row and rows a power of 1.01 apart."""
    rng = np.random.default_rng(seed)
    grids = {"random": qcs_isometry(qcs_state(seed, d=d), d_prime)
             .coeffs_grid,
             "equal": np.full(d, 1.0 / math.sqrt(d)),
             "unsorted": rng.random(d) + 0.1,
             "powers": 1.01 ** -rng.integers(0, 40, d).astype(float)}
    tied = rng.random(d) + 0.1
    tied[-1] = tied[0]
    grids["tied"] = tied
    zero = rng.random(d) + 0.1
    zero[d // 2] = 0.0
    grids["zero_row"] = zero
    return grids


@pytest.mark.parametrize("dp", [1, 2, 3, 7, 64, 4096])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
def test_slot_blocks_match_argsort_oracle(d, dp):
    for name, grid in oracle_grids(d, dp, 10 * d + dp).items():
        assert np.array_equal(walked_order(grid, dp),
                              slot_order_oracle(grid, dp)), name
    psi = qcs_state(d + dp, d=d)
    iso = qcs_isometry(psi, dp)
    assert iso.perm.dtype == np.int64
    assert np.array_equal(iso.perm, slot_order_oracle(iso.coeffs_grid, dp))


@pytest.mark.parametrize("dp", [10 ** 4 + 1, 40805])
def test_slot_blocks_match_oracle_on_ties_at_large_junk_dimension(dp):
    # rows a power of 1.01 apart: junk[l] * 1.01^m meets junk[l'] where
    # (l' + 1) / (l + 1) = 1.0201^m, and past d' = 2 * 10^4 some of these
    # products of different rows coincide bit for bit
    grid = 1.01 ** -np.arange(6.0)
    grid /= np.linalg.norm(grid)
    tau = np.multiply.outer(grid, embezzlement(dp).coefficients).ravel()
    assert (np.unique(tau).size < tau.size) == (dp > 2 * 10 ** 4)
    for g in (grid, np.insert(grid, 2, grid[4]), np.insert(grid, 3, 0.0)):
        assert np.array_equal(walked_order(g, dp), slot_order_oracle(g, dp))


@pytest.mark.parametrize("block", [1, 5, 64])
def test_slot_blocks_ragged_blocks_match_oracle(monkeypatch, block):
    # blocks far below the row length, and of sizes dividing nothing, so
    # that the cuts fall inside every row and the blocks are ragged
    monkeypatch.setattr(corrsamp, "_SLOT_BLOCK", block)
    for d in (1, 3, 4, 8):
        for dp in (7, 64, 1000):
            for name, grid in oracle_grids(d, dp, d * dp).items():
                assert np.array_equal(walked_order(grid, dp),
                                      slot_order_oracle(grid, dp)), name
    iso = qcs_isometry(qcs_state(3), 500)
    assert np.array_equal(iso.perm, slot_order_oracle(iso.coeffs_grid, 500))


@pytest.mark.parametrize("n", [1, 7, 128, 129, 2 ** 16, 2 ** 16 + 1,
                               10 ** 6 + 9, 3 * 2 ** 20, 2 ** 22 + 5])
def test_harmonic_is_the_n_length_sum_bit_for_bit(n):
    # at 10^6 + 9 a split rounds a half down by 4 or more: splitting at a
    # multiple of 4 instead of 8 changes the sum there
    inv = np.arange(1, n + 1, dtype=np.float64)
    np.divide(1.0, inv, out=inv)
    assert corrsamp._harmonic(n) == float(inv.sum())


@pytest.mark.parametrize("other", [None, 7])
def test_qcs_memory_at_junk_dimension_2_20(other):
    dp = 2 ** 20
    # the d'-sized junk vector lives in the embezzlement cache whatever the
    # spectra; it is built before the measurement so that only the
    # alignment's own memory is counted
    embezzlement(dp)
    psi = qcs_state(42)
    iso_a, peak, _kept = traced(lambda: qcs_isometry(psi, dp))
    assert peak < 1 * MiB
    iso_b = iso_a if other is None else qcs_isometry(qcs_state(other), dp)
    corrsamp._junk_trace.cache_clear()
    res, peak, kept = traced(lambda: qcs_execute(iso_a, iso_b, 4))
    assert peak < 48 * MiB
    assert kept < 1 * MiB
    assert res.produced_target.shape == (16, 16)


@pytest.mark.parametrize("other", [None, 7])
def test_junk_trace_memory_per_slot(kernel_builds, other):
    # only Alice's rank and, for different spectra, Bob's slot per rank
    # stay at full length, 4 bytes a slot each, beside blocks of the slot
    # merge and of the junk columns; one sort key of all slots, 8 bytes a
    # slot, and its argsort would pass 18
    dp = 2 ** 18
    embezzlement(dp)                    # the cached junk vector is not
                                        # the build's own memory
    iso_a = qcs_isometry(qcs_state(42), dp)
    iso_b = iso_a if other is None else qcs_isometry(qcs_state(other), dp)
    _res, peak, kept = traced(lambda: qcs_execute(iso_a, iso_b, 4))
    assert len(kernel_builds) == 1
    assert peak <= 18 * 4 * dp
    assert kept < 1 * MiB


def test_embezzle_reduction_at_junk_dimension_2_20(capsys):
    code = main(["run", "reduction", "--strategy", "printing", "--n", "2",
                 "--C", "", "--mode", "embezzle", "--dprime", "1048576",
                 "--trials", "10"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["trials_run"] == 10 and payload["invalid_contexts"] == 0
    # read from the per-slot implementation, one slot table per context,
    # that the cached junk trace replaced
    assert abs(payload["avg_p_tilde"] - 0.8492566911967527) <= 1e-12
    assert abs(payload["avg_embezzle_err"] - 0.13731726384544293) <= 1e-12
