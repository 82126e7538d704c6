import numpy as np
import pytest

from repgames import matcore
from repgames.corrsamp import (AlignmentIsometry, EmbezzlementVector,
                               corr_sample_experiment, embezzlement,
                               qcs_error_against, qcs_execute, qcs_isometry,
                               shared_stream_sample)
from repgames.prob import FiniteDistribution, tv_distance


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


def test_embezzlement_vector_normalized_and_decreasing():
    for n in (1, 2, 37, 4096):
        vec = embezzlement(n)
        assert vec.dim == n
        assert vec.norm_error() < 1e-12
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
    with pytest.raises(ValueError):
        qcs_isometry(psi, 64, alpha=0.0)
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
    matcore.check_density(res.produced_target, herm_atol=1e-8,
                          trace_atol=1e-8)
    assert 0.0 <= res.err <= 0.5
    # the execute error coincides with the explicit distance to own target
    against = qcs_error_against(iso, iso, psi)
    assert abs(res.err - against) < 1e-10


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
    with pytest.raises(ValueError):
        qcs_execute(iso_a, iso_b, 4)
    with pytest.raises(ValueError):
        qcs_execute(iso_a, iso_a, 3)
    with pytest.raises(ValueError):
        qcs_error_against(iso_a, iso_b, qcs_state(0))
