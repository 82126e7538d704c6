import numpy as np
import pytest
import scipy.linalg

from repgames import matcore
from repgames.infotheory import (CQState, chain_rule_check,
                                 classical_relative_entropy,
                                 cq_mutual_information,
                                 raz_lemma_check, relative_entropy,
                                 relative_min_entropy, von_neumann_entropy)
from repgames.prob import ZERO_MASS
from _helpers import random_unitary


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
def test_von_neumann_entropy_binary(p):
    rho = np.diag([p, 1.0 - p]).astype(complex)
    assert abs(von_neumann_entropy(rho) - binary_entropy(p)) < 1e-12


def test_von_neumann_entropy_pure_state_zero():
    psi = matcore.random_pure(6, rng=np.random.default_rng(0))
    assert abs(von_neumann_entropy(np.outer(psi, psi.conj()))) < 1e-10


def test_von_neumann_entropy_maximally_mixed():
    d = 5
    assert abs(von_neumann_entropy(np.eye(d) / d) - np.log2(d)) < 1e-12


def test_classical_relative_entropy_known_value():
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.75])
    expected = 0.5 * np.log2(0.5 / 0.25) + 0.5 * np.log2(0.5 / 0.75)
    assert abs(classical_relative_entropy(p, q) - expected) < 1e-12
    assert classical_relative_entropy(p, p) < 1e-15


def test_classical_relative_entropy_support_mismatch():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    assert np.isinf(classical_relative_entropy(p, q))


def test_relative_entropy_reduces_to_classical_on_diagonals():
    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.4, 0.4, 0.2])
    quantum = relative_entropy(np.diag(p).astype(complex),
                               np.diag(q).astype(complex))
    assert abs(quantum - classical_relative_entropy(p, q)) < 1e-10


def test_relative_entropy_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(1)
    rho = matcore.random_density(4, rng=rng)
    sigma = matcore.random_density(4, rng=rng)
    assert relative_entropy(rho, rho) < 1e-9
    assert relative_entropy(rho, sigma) > 0.0


def test_relative_entropy_infinite_outside_support():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert np.isinf(relative_entropy(rho, sigma))


def test_relative_min_entropy_dominates():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = matcore.random_density(3, rng=rng)
        sigma = matcore.random_density(3, rng=rng)
        assert (relative_min_entropy(rho, sigma)
                >= relative_entropy(rho, sigma) - 1e-9)


def test_relative_min_entropy_known_value():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    # D_max for commuting states is log of the largest eigenvalue ratio
    assert abs(relative_min_entropy(rho, sigma) - np.log2(4.0)) < 1e-9


def test_cq_state_validation():
    with pytest.raises(ValueError):
        CQState(np.array([0.7, 0.7]), np.stack([np.eye(2) / 2] * 2))
    with pytest.raises(ValueError):
        CQState(np.array([0.5, 0.5]), np.stack([np.eye(2)] * 2))


def test_cq_state_validates_every_state_the_kernels_read():
    # a state of weight 5e-13 (above ZERO_MASS, below 1e-12) is read by
    # the kernels, so a bad one must be refused at construction
    bad = np.diag([2.0, -1.0]).astype(complex)
    probs = np.array([1.0 - 5e-13, 5e-13])
    with pytest.raises(ValueError) as err:
        CQState(probs, np.stack([np.eye(2) / 2, bad]))
    assert str(err.value) == "density matrix has eigenvalue -1.000e+00 below -1e-09"
    with pytest.raises(ValueError, match="^weights must form a distribution$"):
        CQState(np.array([np.nan, 1.0]), np.stack([np.eye(2) / 2] * 2))
    # a state with weight at or below ZERO_MASS is never read
    light = CQState(np.array([1.0, ZERO_MASS]), np.stack([np.eye(2) / 2, bad]))
    assert abs(cq_mutual_information(light)) < 1e-12


def test_cq_kernels_take_stacks_of_states():
    rng = np.random.default_rng(6)
    probs = rng.random((5, 4)) + 0.05
    probs /= probs.sum(-1, keepdims=True)
    states = matcore.random_density(3, rng=rng, count=20).reshape(5, 4, 3, 3)
    others = matcore.random_density(3, rng=rng, count=20).reshape(5, 4, 3, 3)
    sigma_a = matcore.random_density(3, rng=rng, count=5)
    parts = [np.full((5, 2), 0.5), np.full((5, 2), 0.5)]
    stack, other = CQState(probs, states), CQState(probs[::-1], others)
    mi = cq_mutual_information(stack)
    raz = raz_lemma_check(stack, (2, 2), parts, sigma_a)
    chain = chain_rule_check(stack, other)
    for j in range(5):
        one = CQState(probs[j], states[j])
        assert abs(mi[j] - cq_mutual_information(one)) < 1e-14
        single = raz_lemma_check(one, (2, 2), [p[j] for p in parts], sigma_a[j])
        assert np.allclose([r[j] for r in raz], single, atol=1e-14, rtol=0.0)
        single = chain_rule_check(one, CQState(probs[::-1][j], others[j]))
        assert np.allclose([r[j] for r in chain], single, atol=1e-14, rtol=0.0)
    assert raz[2].all() and chain[2].all()


def test_cq_state_keeps_the_spectra_of_its_read_states(monkeypatch):
    """cq_mutual_information reads the eigenvalues the validation computed:
    one decomposition per cq state for the average, none for the states,
    and the same entropies as decomposing the states again."""
    rng = np.random.default_rng(12)
    probs = np.array([[0.5, 0.5 - ZERO_MASS / 2, ZERO_MASS / 2],
                      [0.2, 0.3, 0.5]])
    states = matcore.random_density(3, rng=rng, count=6).reshape(2, 3, 3, 3)
    cq = CQState(probs, states)
    live = probs > ZERO_MASS
    assert cq.spectra.shape == (5, 3)
    assert np.array_equal(cq.spectra,
                          matcore.density_spectrum(states[live])[1])
    seen = []
    real = matcore.density_spectrum

    def counted(rho, *args, **kwargs):
        seen.append(np.shape(rho))
        return real(rho, *args, **kwargs)

    monkeypatch.setattr(matcore, "density_spectrum", counted)
    mi = cq_mutual_information(cq)
    assert seen == [(2, 3, 3)]
    h = np.zeros(probs.shape)
    h[live] = von_neumann_entropy(states[live])
    want = von_neumann_entropy(cq.quantum_marginal()) - (probs * h).sum(-1)
    assert np.array_equal(mi, np.maximum(0.0, want))


def test_cq_mutual_information_classical_copy():
    # perfectly distinguishable conditional states carry H(p) bits
    p = np.array([0.25, 0.75])
    states = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    cq = CQState(p, states)
    assert abs(cq_mutual_information(cq) - binary_entropy(0.25)) < 1e-12


def test_cq_mutual_information_independent_is_zero():
    rho = matcore.random_density(3, rng=np.random.default_rng(3))
    cq = CQState(np.array([0.4, 0.6]), np.stack([rho, rho]))
    assert cq_mutual_information(cq) < 1e-10


def test_cq_density_consistency():
    rng = np.random.default_rng(4)
    cq = CQState(np.array([0.3, 0.7]),
                 np.stack([matcore.random_density(2, rng=rng)
                           for _ in range(2)]))
    joint = cq.density()
    matcore.check_density(joint)
    avg = cq.quantum_marginal()
    blocks = joint[:2, :2] + joint[2:, 2:]
    assert np.allclose(blocks, avg, atol=1e-12)


def mutual_information(joint: np.ndarray) -> float:
    """I(X ; Y) in bits from a joint probability table with two axes."""
    pxy = np.asarray(joint, dtype=np.float64)
    if pxy.ndim != 2:
        raise ValueError("joint table must have exactly two axes")
    if (not np.isfinite(pxy).all() or np.any(pxy < -1e-12)
            or abs(pxy.sum() - 1.0) > 1e-9):
        raise ValueError("joint table must be a normalized distribution")
    pxy = np.clip(pxy, 0.0, None)
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    mask = pxy > 0.0
    ref = np.outer(px, py)
    total = float((pxy[mask] * (np.log2(pxy[mask]) - np.log2(ref[mask]))).sum())
    return max(0.0, total)


def test_mutual_information_product_and_correlated():
    px = np.array([0.3, 0.7])
    py = np.array([0.6, 0.4])
    assert mutual_information(np.outer(px, py)) < 1e-12
    perfect = np.diag([0.5, 0.5])
    assert abs(mutual_information(perfect) - 1.0) < 1e-12


def test_mutual_information_rejects_bad_tables():
    with pytest.raises(ValueError):
        mutual_information(np.ones((2, 2)))
    with pytest.raises(ValueError):
        mutual_information(np.full((2, 2, 2), 0.125))
    with pytest.raises(ValueError):
        mutual_information(np.array([[np.nan, 0.5], [0.25, 0.25]]))


def test_cq_mutual_information_of_classical_states_is_the_table_oracle():
    # diagonal conditional states make the Holevo quantity the classical
    # mutual information of the (z, basis index) table
    rng = np.random.default_rng(31)
    for k, d in ((2, 2), (3, 4), (4, 3)):
        joint = rng.random((k, d))
        joint /= joint.sum()
        probs = joint.sum(axis=1)
        states = np.stack([np.diag(row / row.sum()).astype(complex)
                           for row in joint])
        got = cq_mutual_information(CQState(probs, states))
        assert abs(got - mutual_information(joint)) < 1e-12


def test_classical_relative_entropy_refuses_non_finite_weights():
    for p, q in (([np.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [np.inf, 0.0]),
                 ([0.5, 0.5], [np.nan, np.nan])):
        with pytest.raises(ValueError) as err:
            classical_relative_entropy(np.array(p), np.array(q))
        assert str(err.value) == "distributions must have finite weights"


def test_raz_lemma_check_product_case_equality():
    """When X splits as independent coordinates and A is uncorrelated the
    left side vanishes while the right side is the classical divergence."""
    p1 = np.array([0.5, 0.5])
    p2 = np.array([0.25, 0.75])
    joint = np.multiply.outer(p1, p2).ravel()
    sigma = np.eye(2).astype(complex) / 2
    states = np.stack([sigma] * 4)
    cq = CQState(joint, states)
    lhs, rhs, holds = raz_lemma_check(cq, (2, 2), [p1, p2], sigma)
    assert holds
    assert lhs < 1e-10
    assert abs(rhs) < 1e-10


def test_raz_lemma_check_correlated_case():
    # classical copies of one bit on two coordinates plus a quantum copy
    p = np.array([0.5, 0.0, 0.0, 0.5])
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    cq = CQState(p, np.stack([zero, zero, one, one]))
    u = np.array([0.5, 0.5])
    sigma = np.eye(2).astype(complex) / 2
    lhs, rhs, holds = raz_lemma_check(cq, (2, 2), [u, u], sigma)
    assert holds
    assert abs(lhs - 2.0) < 1e-10      # each coordinate reveals the bit
    assert abs(rhs - 2.0) < 1e-10      # one classical bit plus one quantum bit


def test_chain_rule_check_equality_for_cq_states():
    rng = np.random.default_rng(5)
    p1 = np.array([0.3, 0.7])
    p2 = np.array([0.6, 0.4])
    sts1 = np.stack([matcore.random_density(2, rng=rng) for _ in range(2)])
    sts2 = np.stack([matcore.random_density(2, rng=rng) for _ in range(2)])
    lhs, rhs, holds = chain_rule_check(CQState(p1, sts1), CQState(p2, sts2))
    assert holds
    # block-diagonal joints make the chain rule an exact identity
    assert abs(lhs - rhs) < 1e-8


def test_chain_rule_check_infinite_sides_agree():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    cq_p = CQState(np.array([1.0, 0.0]), np.stack([zero, zero]))
    cq_q = CQState(np.array([1.0, 0.0]), np.stack([one, one]))
    lhs, rhs, holds = chain_rule_check(cq_p, cq_q)
    assert np.isinf(lhs) and np.isinf(rhs) and holds


# ---------------------------------------------------------------------------
# the divergence kernels against an independent scipy computation

LN2 = float(np.log(2.0))


def _seeded_pairs(count=30):
    rng = np.random.default_rng(77)
    for _ in range(count):
        d = int(rng.integers(2, 7))
        yield (matcore.random_density(d, rng=rng),
               matcore.random_density(d, rng=rng))


def _scipy_entropy(rho):
    w = scipy.linalg.eigvalsh(rho)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def _scipy_relative_entropy(rho, sigma):
    gap = scipy.linalg.logm(rho) - scipy.linalg.logm(sigma)
    return float(np.real(np.trace(rho @ gap))) / LN2


def _scipy_min_entropy(rho, sigma):
    inv_sqrt = np.linalg.inv(scipy.linalg.sqrtm(sigma))
    mid = inv_sqrt @ rho @ inv_sqrt
    top = scipy.linalg.eigvalsh((mid + mid.conj().T) / 2)[-1]
    return float(np.log2(top))


def test_divergences_agree_with_scipy():
    for rho, sigma in _seeded_pairs():
        assert abs(von_neumann_entropy(rho) - _scipy_entropy(rho)) < 1e-12
        assert abs(relative_entropy(rho, sigma)
                   - _scipy_relative_entropy(rho, sigma)) < 1e-12
        assert abs(relative_min_entropy(rho, sigma)
                   - _scipy_min_entropy(rho, sigma)) < 1e-12


def test_divergences_on_a_shared_support_agree_with_scipy():
    # rho and sigma live on a 2-dimensional subspace of C^5; the kernels
    # must drop sigma's null space and give the 2x2 values
    rng = np.random.default_rng(78)
    iso = random_unitary(5, rng)[:, :2]
    for _ in range(10):
        r2 = matcore.random_density(2, rng=rng)
        s2 = matcore.random_density(2, rng=rng)
        rho = iso @ r2 @ iso.conj().T
        sigma = iso @ s2 @ iso.conj().T
        assert abs(von_neumann_entropy(rho) - _scipy_entropy(r2)) < 1e-12
        assert abs(relative_entropy(rho, sigma)
                   - _scipy_relative_entropy(r2, s2)) < 1e-12
        assert abs(relative_min_entropy(rho, sigma)
                   - _scipy_min_entropy(r2, s2)) < 1e-12


def test_divergences_infinite_when_rho_leaves_the_support():
    rng = np.random.default_rng(79)
    for _ in range(5):
        u = random_unitary(4, rng)
        sigma = (u[:, :2] * np.array([0.3, 0.7])) @ u[:, :2].conj().T
        rho = matcore.random_density(4, rng=rng)
        assert relative_entropy(rho, sigma) == float("inf")
        assert relative_min_entropy(rho, sigma) == float("inf")
        # inside the support both stay finite
        inside = (u[:, :2] * np.array([0.6, 0.4])) @ u[:, :2].conj().T
        assert np.isfinite(relative_entropy(inside, sigma))
        assert np.isfinite(relative_min_entropy(inside, sigma))


BAD_DENSITIES = [
    (np.array([[0.5, 0.1], [0.0, 0.5]]),
     r"^density matrix not Hermitian within 1e-10$"),
    (np.diag([1.5, -0.5]),
     r"^density matrix has eigenvalue -5\.000e-01 below -1e-09$"),
    (np.diag([0.7, 0.7]),
     r"^density matrix trace 1\.4 differs from 1 by more than 1e-09$"),
]


@pytest.mark.parametrize("bad,message", BAD_DENSITIES,
                         ids=["non-hermitian", "negative", "trace"])
def test_divergences_refuse_bad_densities(bad, message):
    good = np.eye(2) / 2
    with pytest.raises(ValueError, match=message):
        matcore.check_density(bad)
    with pytest.raises(ValueError, match=message):
        von_neumann_entropy(bad)
    for f in (relative_entropy, relative_min_entropy):
        with pytest.raises(ValueError, match=message):
            f(bad, good)
        with pytest.raises(ValueError, match=message):
            f(good, bad)
