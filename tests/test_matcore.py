import numpy as np
import pytest

from repgames import matcore
from _helpers import partial_trace, random_unitary


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(0)
    rho = matcore.random_density(3, rng=rng)
    sigma = matcore.random_density(4, rng=rng)
    joint = np.kron(rho, sigma)
    assert np.allclose(partial_trace(joint, (3, 4), side="right"), rho)
    assert np.allclose(partial_trace(joint, (3, 4), side="left"), sigma)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(1)
    rho = matcore.random_density(6, rng=rng)
    left = partial_trace(rho, (2, 3), side="right")
    assert abs(np.trace(left) - 1.0) < 1e-12


def test_eigh_desc_orders_descending():
    rng = np.random.default_rng(2)
    h = matcore.random_psd(5, rng=rng)
    w, v = matcore.eigh_desc(h)
    assert np.all(np.diff(w) <= 1e-12)
    assert np.allclose((v * w) @ v.conj().T, h, atol=1e-10)


def test_eigh_desc_rejects_non_hermitian():
    with pytest.raises(ValueError):
        matcore.eigh_desc(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_mat_sqrt_squares_back():
    rng = np.random.default_rng(3)
    p = matcore.random_psd(4, rng=rng)
    r = matcore.mat_sqrt(p)
    assert np.allclose(r @ r, p, atol=1e-10)
    assert matcore.is_hermitian(r)


def _canonical_sqrt(p):
    """The square root in eigh_desc's canonical eigenbasis."""
    w, v = matcore.eigh_desc(p)
    r = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    return (r + r.conj().T) / 2


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_mat_sqrt_matches_the_canonical_basis_root(d):
    rng = np.random.default_rng([12, d])
    u = random_unitary(d, rng)
    tied = np.repeat(rng.random((d + 1) // 2), 2)[:d]
    deficient = np.where(np.arange(d) < d // 2, 0.0, rng.random(d))
    cases = [np.eye(d, dtype=complex) / d,
             (u * tied) @ u.conj().T,
             (u * deficient) @ u.conj().T,
             np.diag(deficient).astype(complex),
             matcore.random_psd(d, rng=rng)]
    for p in cases:
        p = (p + p.conj().T) / 2
        assert np.abs(matcore.mat_sqrt(p) - _canonical_sqrt(p)).max() <= 1e-12
    stack = np.stack([(c + c.conj().T) / 2 for c in cases])
    assert np.abs(matcore.mat_sqrt(stack)
                  - np.stack([_canonical_sqrt(c) for c in stack])).max() <= 1e-12


def test_mat_sqrt_refusals_keep_their_messages():
    with pytest.raises(ValueError, match="^operator is not Hermitian within 1e-08$"):
        matcore.mat_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="^rho has eigenvalue -5.000e-01 below -1e-09$"):
        matcore.mat_sqrt(np.diag([1.5, -0.5]), "rho")
    with pytest.raises(ValueError, match="^operator contains NaN or Inf entries$"):
        matcore.mat_sqrt(np.diag([np.nan, 1.0]))


def test_polar_psd_factor_on_full_rank():
    rng = np.random.default_rng(5)
    m = matcore.random_matrix(3, rng=rng)
    u = matcore.polar_psd_factor(m)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
    h = u @ m
    assert np.abs(h - h.conj().T).max() <= 1e-9
    assert np.min(np.linalg.eigvalsh((h + h.conj().T) / 2)) > -1e-9


def test_schmidt_reconstruction():
    rng = np.random.default_rng(6)
    psi = matcore.random_pure(12, rng=rng)
    dec = matcore.schmidt(psi, dims=(3, 4))
    rebuilt = np.zeros(12, dtype=np.complex128)
    for k in range(dec.coefficients.size):
        rebuilt += dec.coefficients[k] * np.kron(
            dec.left_basis[:, k], dec.right_basis[:, k].conj())
    assert np.linalg.norm(rebuilt - psi) < 1e-10
    assert np.all(np.diff(dec.coefficients) <= 1e-12)
    assert abs(np.sum(dec.coefficients ** 2) - 1.0) < 1e-10


def test_schmidt_product_state_single_coefficient():
    v = np.kron(np.array([1.0, 0.0]), np.array([0.6, 0.8]))
    dec = matcore.schmidt(v, dims=(2, 2))
    assert abs(dec.coefficients[0] - 1.0) < 1e-12
    assert dec.coefficients[1] < 1e-12


def test_svd_canonical_is_deterministic_and_phase_fixed():
    rng = np.random.default_rng(7)
    m = matcore.random_matrix(4, rng=rng)
    u1, s1, vh1 = matcore.svd_canonical(m)
    u2, s2, vh2 = matcore.svd_canonical(m.copy())
    assert np.array_equal(u1, u2) and np.array_equal(vh1, vh2)
    assert np.allclose((u1 * s1) @ vh1, m, atol=1e-10)
    for col in range(u1.shape[1]):
        nz = np.flatnonzero(np.abs(u1[:, col]) > 1e-9)
        lead = u1[nz[0], col]
        assert abs(lead.imag) < 1e-9 and lead.real > 0


def test_trace_distance_and_fidelity_known_values():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert abs(matcore.trace_distance(zero, one) - 1.0) < 1e-12
    assert abs(matcore.fidelity(zero, one)) < 1e-12
    assert abs(matcore.fidelity(zero, zero) - 1.0) < 1e-12
    assert matcore.trace_distance(zero, zero) < 1e-12


def test_trace_distance_pure_states_formula():
    # for pure states T = sqrt(1 - |<u|v>|^2)
    rng = np.random.default_rng(8)
    u = matcore.random_pure(5, rng=rng)
    v = matcore.random_pure(5, rng=rng)
    t = matcore.trace_distance(np.outer(u, u.conj()), np.outer(v, v.conj()))
    expected = np.sqrt(1.0 - abs(np.vdot(u, v)) ** 2)
    assert abs(t - expected) < 1e-10


def test_check_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        matcore.check_density(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        matcore.check_density(np.diag([1.5, -0.5]))
    matcore.check_density(np.diag([0.5, 0.5]))


def test_check_pure_normalization():
    with pytest.raises(ValueError):
        matcore.check_pure(np.array([1.0, 1.0]))
    matcore.check_pure(np.array([1.0, 1.0]) / np.sqrt(2))


def test_symmetric_purification_balances_marginals():
    rng = np.random.default_rng(9)
    rho = matcore.random_density(3, rng=rng)
    psi = matcore.symmetric_purification(rho)
    full = np.outer(psi, psi.conj())
    left = partial_trace(full, (3, 3), side="right")
    right = partial_trace(full, (3, 3), side="left")
    assert np.allclose(left, rho, atol=1e-10)
    assert np.allclose(right, right.conj().T, atol=1e-10)
    assert np.allclose(np.sort(np.linalg.eigvalsh(right)),
                       np.sort(np.linalg.eigvalsh(rho)), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_random_unitary_is_unitary(d):
    u = random_unitary(d, rng=np.random.default_rng(10))
    assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-10)


def test_random_density_is_density():
    rho = matcore.random_density(4, rng=np.random.default_rng(11))
    matcore.check_density(rho)


def test_random_density_rank_control():
    rho = matcore.random_density(4, rank=2, rng=np.random.default_rng(12))
    w = np.linalg.eigvalsh(rho)
    assert np.sum(w > 1e-10) == 2


def test_norms_agree_with_numpy():
    rng = np.random.default_rng(13)
    m = matcore.random_matrix(4, rng=rng)
    assert abs(matcore.frobenius(m) - np.linalg.norm(m)) < 1e-12
    s = np.linalg.svd(m, compute_uv=False)
    assert abs(matcore.trace_norm(m) - s.sum()) < 1e-10


# ---------------------------------------------------------------------------
# the canonical convention against its column-at-a-time definition

def _lex_key(col):
    # interleaved (re, im, re, im, ...) rounded to 12 decimals
    flat = np.ascontiguousarray(col, dtype=np.complex128).view(np.float64)
    return tuple(np.round(flat, 12))


def _oracle_eigh_desc(h):
    h = np.asarray(h, dtype=np.complex128)
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > matcore.PHASE_ATOL)
        if nz.size:
            piv = col[nz[0]]
            v[:, k] = col * (abs(piv) / piv)
    order = sorted(range(len(w)), key=lambda k: (-w[k], _lex_key(v[:, k])))
    order = np.asarray(order, dtype=int)
    return w[order], v[:, order]


def _oracle_svd_canonical(m):
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=np.complex128))
    u = u.copy()
    vh = vh.copy()
    r = len(s)
    for k in range(min(r, u.shape[1])):
        col = u[:, k]
        nz = np.flatnonzero(np.abs(col) > matcore.PHASE_ATOL)
        if nz.size:
            piv = col[nz[0]]
            ph = piv / abs(piv)
            u[:, k] = col / ph
            if k < vh.shape[0]:
                vh[k, :] = vh[k, :] * ph
    order = sorted(range(r), key=lambda k: (-s[k], _lex_key(u[:, k])))
    if order != list(range(r)):
        order = np.asarray(order)
        s = s[order]
        u[:, :r] = u[:, :r][:, order]
        vh[:r, :] = vh[:r, :][order, :]
    return u, s, vh


def _degenerate_blocks(d, rng):
    """Haar rotation of a spectrum made of 2-fold degenerate pairs."""
    u = random_unitary(d, rng)
    w = np.repeat(rng.random((d + 1) // 2), 2)[:d]
    h = (u * w) @ u.conj().T
    return (h + h.conj().T) / 2


def _convention_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for d in range(1, 13):
        cases.append((f"density-{d}", matcore.random_density(d, rng=rng)))
        rank = int(rng.integers(1, d + 1))
        cases.append((f"rank{rank}-{d}",
                      matcore.random_density(d, rank=rank, rng=rng)))
        cases.append((f"identity-{d}", np.eye(d)))
        cases.append((f"mixed-{d}", np.eye(d) / d))
        cases.append((f"zero-{d}", np.zeros((d, d))))
        cases.append((f"degenerate-{d}", _degenerate_blocks(d, rng)))
    for d in range(3, 13):
        # half the eigenvectors orthogonal to the first basis vector: their
        # first entry is rounding noise below PHASE_ATOL, so their pivot
        # is a complex entry further down
        g = matcore.random_matrix(d, rng)
        g[0, :d // 2] = 0.0
        q, _ = np.linalg.qr(g)
        h = (q * rng.random(d)) @ q.conj().T
        cases.append((f"first-entry-zero-{d}", (h + h.conj().T) / 2))
    # first column entry below the phase tolerance: the pivot is the second
    h = np.diag([3.0, 2.0, 1.0]).astype(complex)
    rot = np.array([[1.0, 0.0, 0.0],
                    [0.0, 0.6, 0.8j],
                    [0.0, 0.8j, 0.6]])
    h = rot @ h @ rot.conj().T
    h[0, 1:] = h[1:, 0] = 1e-14
    cases.append(("small-first-entry", (h + h.conj().T) / 2))
    return cases


CASES = _convention_cases()


@pytest.mark.parametrize("name,h", CASES, ids=[c[0] for c in CASES])
def test_eigh_desc_matches_column_oracle(name, h):
    w, v = matcore.eigh_desc(h)
    w_ref, v_ref = _oracle_eigh_desc(h)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)


@pytest.mark.parametrize("name,h", CASES, ids=[c[0] for c in CASES])
def test_svd_canonical_matches_column_oracle(name, h):
    rng = np.random.default_rng(len(name))
    for m in (h, h + 1j * matcore.random_matrix(h.shape[0], rng) * 0.1):
        got = matcore.svd_canonical(m)
        ref = _oracle_svd_canonical(m)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_svd_canonical_matches_oracle_on_rectangles():
    rng = np.random.default_rng(2025)
    for rows, cols in ((2, 5), (5, 2), (1, 4), (4, 1), (3, 3)):
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for a, b in zip(matcore.svd_canonical(m), _oracle_svd_canonical(m)):
            assert np.array_equal(a, b)
        ties = np.zeros((rows, cols), dtype=complex)
        for a, b in zip(matcore.svd_canonical(ties), _oracle_svd_canonical(ties)):
            assert np.array_equal(a, b)


def test_small_first_entry_case_uses_a_later_pivot():
    _, h = CASES[-1]
    _, v = matcore.eigh_desc(h)
    assert np.any(np.abs(v[0]) <= matcore.PHASE_ATOL)
    for col in v.T:
        lead = col[np.flatnonzero(np.abs(col) > matcore.PHASE_ATOL)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_density_spectrum_returns_the_checked_spectrum():
    rho = matcore.random_density(5, rank=3, rng=np.random.default_rng(14))
    same, w, v = matcore.density_spectrum(rho)
    assert np.array_equal(same, rho) and v is None
    assert np.allclose(w, np.linalg.eigvalsh(rho), atol=1e-14)
    _, w2, v2 = matcore.density_spectrum(rho, vectors=True)
    assert np.allclose((v2 * w2) @ v2.conj().T, rho, atol=1e-12)
