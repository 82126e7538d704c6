"""The stacked kernels against the same kernels called one matrix at a time.

A `(n, d, d)` stack must give, per matrix, what the 2-D call gives: the
same bits for the decompositions, agreement within 1e-14 for the derived
quantities, the same infinities, and the same one-line refusal when one
matrix of the stack is bad.
"""

import numpy as np
import pytest

from repgames import matcore
from repgames.infotheory import (CQState, relative_entropy,
                                 relative_min_entropy, von_neumann_entropy)
from _helpers import random_unitary

DIMS = range(1, 9)


def _degenerate(d, rng):
    """eye/d and a Haar-rotated spectrum with every value repeated twice."""
    u = random_unitary(d, rng)
    w = np.repeat(np.arange(1.0, d // 2 + 2), 2)[:d]
    return [np.eye(d, dtype=complex) / d, (u * (w / w.sum())) @ u.conj().T]


def density_stack(d, seed=0):
    rng = np.random.default_rng([seed, d])
    mats = [matcore.random_density(d, rng=rng) for _ in range(6)]
    mats += [matcore.random_density(d, rank=max(1, d // 2), rng=rng)
             for _ in range(3)]
    return np.stack(mats + _degenerate(d, rng))


def pair_stacks(d, seed=1):
    """(rho, sigma) stacks; the last pairs put rho off a rank-deficient sigma."""
    rho, sigma = density_stack(d, seed), density_stack(d, seed + 1)
    if d > 1:
        e0 = np.zeros((d, d), dtype=complex)
        e0[0, 0] = 1.0
        e1 = np.roll(e0, 1, axis=(0, 1))
        rho = np.concatenate([rho, e0[None], rho[:1]])
        sigma = np.concatenate([sigma, e1[None], e1[None]])
    return rho, sigma


@pytest.mark.parametrize("d", DIMS)
def test_decompositions_are_bit_identical_per_matrix(d):
    rho = density_stack(d)
    herm = np.concatenate([rho, np.eye(d, dtype=complex)[None],
                           matcore.random_psd(d, rng=d, count=3) - np.eye(d)])
    _, w, v = matcore.density_spectrum(rho, vectors=True)
    _, w_only, _ = matcore.density_spectrum(rho)
    ew, ev = matcore.eigh_desc(herm)
    for i, m in enumerate(rho):
        _, wi, vi = matcore.density_spectrum(m, vectors=True)
        assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)
        assert np.array_equal(w_only[i], matcore.density_spectrum(m)[1])
    for i, h in enumerate(herm):
        wi, vi = matcore.eigh_desc(h)
        assert np.array_equal(ew[i], wi) and np.array_equal(ev[i], vi)


@pytest.mark.parametrize("d", DIMS)
def test_derived_quantities_agree_per_matrix(d):
    rho, sigma = pair_stacks(d)
    psd = np.concatenate([rho, matcore.random_psd(d, rng=d, count=3)])
    stacked = {
        "mat_sqrt": matcore.mat_sqrt(psd),
        "purification": matcore.symmetric_purification(rho),
        "entropy": von_neumann_entropy(rho),
        "relative": relative_entropy(rho, sigma),
        "min_entropy": relative_min_entropy(rho, sigma),
        "trace_distance": matcore.trace_distance(rho, sigma),
        "fidelity": matcore.fidelity(rho, sigma),
    }
    single = {
        "mat_sqrt": [matcore.mat_sqrt(m) for m in psd],
        "purification": [matcore.symmetric_purification(m) for m in rho],
        "entropy": [von_neumann_entropy(m) for m in rho],
        "relative": [relative_entropy(r, s) for r, s in zip(rho, sigma)],
        "min_entropy": [relative_min_entropy(r, s) for r, s in zip(rho, sigma)],
        "trace_distance": [matcore.trace_distance(r, s) for r, s in zip(rho, sigma)],
        "fidelity": [matcore.fidelity(r, s) for r, s in zip(rho, sigma)],
    }
    for key, values in stacked.items():
        one = np.array(single[key])
        assert values.shape == one.shape, key
        inf = np.isinf(one)
        assert np.array_equal(np.isinf(values), inf), key
        assert np.array_equal(values[inf], one[inf]), key
        assert np.max(np.abs(values[~inf] - one[~inf]), initial=0.0) <= 1e-14, key
    if d > 1:   # the support cases are in the stack
        assert stacked["relative"][-2] == np.inf
        assert stacked["min_entropy"][-2] == np.inf


def test_one_sigma_serves_a_stack_of_rho():
    rho, sigma = pair_stacks(4)
    broadcast = relative_entropy(rho, sigma[0])
    assert np.allclose(broadcast, [relative_entropy(r, sigma[0]) for r in rho],
                       atol=1e-14, rtol=0.0)


def _bad(kind, d=3):
    m = np.eye(d, dtype=complex) / d
    if kind == "nan":
        m[0, 1] = np.nan
    elif kind == "non-hermitian":
        m[0, 1] = 0.1
    elif kind == "negative":
        m = np.diag([1.5, -0.5, 0.0]).astype(complex)
    else:
        m = m * 1.4
    return m


def _message(f, *args):
    with pytest.raises(ValueError) as err:
        f(*args)
    text = str(err.value)
    assert "\n" not in text
    return text


@pytest.mark.parametrize("kind", ["nan", "non-hermitian", "negative", "trace"])
def test_a_bad_matrix_in_a_stack_gets_the_two_d_message(kind):
    bad = _bad(kind)
    stack = density_stack(3).copy()
    stack[4] = bad
    good = np.eye(3) / 3
    kernels = [
        matcore.check_density,
        von_neumann_entropy,
        lambda r: relative_entropy(r, good),
        lambda s: relative_entropy(good, s),
        lambda r: relative_min_entropy(r, good),
        lambda s: relative_min_entropy(good, s),
    ]
    for f in kernels:
        assert _message(f, stack) == _message(f, bad)
    probs = np.full(len(stack), 1.0 / len(stack))
    assert _message(CQState, probs, stack) == _message(matcore.check_density, bad)


def test_mat_sqrt_refuses_a_stack_like_its_worst_matrix():
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    stack = np.concatenate([density_stack(3), bad[None]])
    assert (_message(matcore.mat_sqrt, stack)
            == _message(matcore.mat_sqrt, bad)
            == "operator has eigenvalue -5.000e-01 below -1e-09")


def test_generators_draw_stacks():
    rng = np.random.default_rng(5)
    rho = matcore.random_density(3, rng=rng, count=4)
    assert rho.shape == (4, 3, 3)
    matcore.check_density(rho)
    assert matcore.random_pure(5, rng, count=2).shape == (2, 5)
    assert np.allclose(np.linalg.norm(matcore.random_pure(5, rng, count=2), axis=-1), 1.0)
    assert matcore.random_psd(2, rng=rng, count=3).shape == (3, 2, 2)
    assert matcore.random_matrix(2, rng, count=3).shape == (3, 2, 2)
    u = random_unitary(4, rng, count=3)
    assert np.allclose(u @ matcore.dagger(u), np.eye(4), atol=1e-12)
    # without a count, the draw is the 2-D one it always was
    a = matcore.random_density(3, rng=np.random.default_rng(9))
    g = np.random.default_rng(9)
    z = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    assert np.array_equal(a, (z @ z.conj().T) / np.real(np.trace(z @ z.conj().T)))
