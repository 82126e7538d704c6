import math

import numpy as np
import pytest

from repgames import matcore
from repgames.corrsamp import (GRID_FLOOR, AlignmentIsometry,
                               EmbezzlementVector,
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


@pytest.mark.parametrize("dp", [1, 8, 64])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_qcs_slot_table_matches_oracles(d, dp):
    for name, (psi_a, psi_b) in oracle_cases(d).items():
        iso_a = qcs_isometry(psi_a, dp)
        iso_b = iso_a if psi_b is psi_a else qcs_isometry(psi_b, dp)
        if name == "product" and d > 1:
            assert np.all(iso_a.coeffs_exact[1:] < GRID_FLOOR)
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
