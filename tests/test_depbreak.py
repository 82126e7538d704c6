import itertools

import numpy as np
import pytest

from repgames import matcore
from repgames.depbreak import (ALICE, BOB, DepBreakComputer, SkewReport,
                               aligned_operators, choose_C, dep_state,
                               extended_joint, fine_povm)
from repgames.games import Game, always_win, asym3, chsh, win_set
from repgames.prob import ZERO_MASS, ZeroProbabilityEvent
from repgames.reduction import (ReductionConfig, SingleShotStrategy,
                                run_reduction)
from repgames.strategy import (DeterministicStrategy, as_entangled, born_joint,
                               pure_born_table, strategy_fixture)
from _depbreak_oracle import skew_distances
from _helpers import answer_bits, condition, random_strategy, tv_distance

PRINTING_ITEM2 = 0.04099582234676859
PRINTING_DELTA = 2.2522279662062052
PRINTING_P_WIN_C = 0.8395988139831025
PRINTING_D_BOB = 0.0962991313287965045
PRINTING_XI_BOB = 0.0402861854685278


def skew_item2_oracle(ext, g):
    """Recompute the coordinate-0 item-2 distance for n=2, C={1} from the
    raw conditioned table, independent of the skew implementation."""
    order = ("x1", "y1", "x2", "y2", "a2", "b2", "d1", "m1", "a1", "b1")
    t = ext.reordered(order).table.copy()
    # condition on winning round 2
    for x2 in range(g.x_size):
        for y2 in range(g.y_size):
            for a2 in range(g.a_size):
                for b2 in range(g.b_size):
                    if not g.predicate[x2, y2, a2, b2]:
                        t[:, :, x2, y2, a2, b2] = 0.0
    t /= t.sum()
    # joint law of (x1, y1, rest) with rest = (x2, y2, a2, b2); the round-1
    # pointer and answers are marginalized out
    p = t.sum(axis=(6, 7, 8, 9))
    anchored = p.sum(axis=1)                  # x1 x2 y2 a2 b2
    row = anchored.reshape(g.x_size, -1)
    kernel = row / row.sum(axis=1, keepdims=True)
    ref = g.mu[:, :, None] * kernel[:, None, :]
    return 0.5 * float(np.abs(p.reshape(g.x_size, g.y_size, -1) - ref).sum())


def test_extended_joint_keeps_output_distribution():
    g = chsh()
    s = strategy_fixture("printing", 2)
    ext = extended_joint(g, 2, s, (1,))
    names = ("x1", "x2", "y1", "y2", "a1", "a2", "b1", "b2")
    assert tv_distance(ext.marginal(names), born_joint(g, 2, s)) < 1e-12


def test_extended_joint_pointer_law():
    g = chsh()
    s = strategy_fixture("detprod", 2)
    ext = extended_joint(g, 2, s, (1,))
    d1 = ext.marginal(("d1",))
    assert np.allclose(d1.table, 0.5)
    # the pointer message copies the owner's question exactly
    cond = ext.given({"d1": ALICE})
    copied = cond.marginal(("x1", "m1")).table
    assert abs(np.trace(copied) - 1.0) < 1e-12
    cond_b = ext.given({"d1": BOB})
    copied_b = cond_b.marginal(("y1", "m1")).table
    assert abs(np.trace(copied_b) - 1.0) < 1e-12


def test_extended_joint_is_the_born_table_times_the_pointer_law():
    # two questions for Alice, three for Bob: m_j has three values and
    # Alice's pointer never copies the third
    pred = np.ones((2, 3, 2, 2), dtype=bool)
    g = Game(2, 3, 2, 2, np.full((2, 3), 1.0 / 6.0), pred, name="two-three")
    s = random_strategy(g, 2, 2, 7)
    ext = extended_joint(g, 2, s, (0,))
    assert ext.names[-2:] == ("d2", "m2") and ext.sizes[-2:] == (2, 3)
    want = np.zeros(born_joint(g, 2, s).sizes + (2, 3))
    born = born_joint(g, 2, s).table
    for x2 in range(2):
        for y2 in range(3):
            want[:, x2, :, y2, ..., ALICE, x2] += 0.5 * born[:, x2, :, y2]
            want[:, x2, :, y2, ..., BOB, y2] += 0.5 * born[:, x2, :, y2]
    assert np.abs(ext.table - want).max() <= 1e-15


def test_extended_joint_holdout_coordinates_have_no_pointer():
    g = chsh()
    s = strategy_fixture("detprod", 2)
    ext = extended_joint(g, 2, s, (1,))
    assert "d1" in ext.names and "m1" in ext.names
    assert "d2" not in ext.names and "m2" not in ext.names


def test_choose_c_prefers_empty_set_for_product_strategies():
    g = chsh()
    s = strategy_fixture("tsirelson", 3)
    joint = born_joint(g, 3, s)
    sel = choose_C(joint, g, 3, 2)
    assert sel.C == ()
    assert abs(sel.score - np.cos(np.pi / 8) ** 2) < 1e-10
    assert sel.evaluated == 7 and sel.skipped == 0


def test_choose_c_always_win_scores_one():
    g = always_win()
    s = strategy_fixture("detprod", 2)
    joint = born_joint(g, 2, s)
    sel = choose_C(joint, g, 2, 1)
    assert sel.C == () and sel.score == pytest.approx(1.0, abs=1e-12)


def test_choose_c_validates_t_max():
    g = chsh()
    joint = born_joint(g, 2, strategy_fixture("detprod", 2))
    with pytest.raises(ValueError):
        choose_C(joint, g, 2, 0)
    with pytest.raises(ValueError):
        choose_C(joint, g, 2, 3)


@pytest.mark.parametrize("name", ["tsirelson", "detprod"])
def test_skew_distances_vanish_for_product_strategies(name):
    g = chsh()
    s = strategy_fixture(name, 2)
    ext = extended_joint(g, 2, s, (1,))
    rep = skew_distances(ext, g, 2, (1,))
    assert rep.avg1 <= 1e-12
    assert rep.avg2 <= 1e-12
    assert rep.avg3 <= 1e-12


def test_skew_distances_printing_matches_independent_oracle():
    g = chsh()
    s = strategy_fixture("printing", 2)
    ext = extended_joint(g, 2, s, (1,))
    rep = skew_distances(ext, g, 2, (1,))
    oracle = skew_item2_oracle(ext, g)
    assert abs(rep.item2[0] - oracle) < 1e-12


def test_skew_distances_printing_regression_values():
    g = chsh()
    s = strategy_fixture("printing", 2)
    ext = extended_joint(g, 2, s, (1,))
    rep = skew_distances(ext, g, 2, (1,))
    assert rep.avg2 > 0.0
    assert abs(rep.avg2 - PRINTING_ITEM2) < 1e-10
    assert rep.avg1 < 1e-12 and rep.avg3 < 1e-12
    assert abs(rep.delta - PRINTING_DELTA) < 1e-10
    assert abs(rep.p_win_c - PRINTING_P_WIN_C) < 1e-10


@pytest.mark.parametrize("avgs,ok", [
    ((0.0, 0.0, 0.0), True), ((1.0, 0.5, 0.0), True),
    ((0.0, -1e-300, 0.0), False), ((0.0, 0.0, 1.0 + 2 ** -52), False),
    ((float("nan"), 0.0, 0.0), False)])
def test_skew_report_passes_averages_inside_the_unit_interval(avgs, ok):
    rep = SkewReport((1,), (0.0,), (0.0,), (0.0,), *avgs, 0.0, 1.0)
    assert rep.ok() is ok


def test_skew_delta_charges_the_answer_bits_of_each_held_round():
    g = asym3()
    for C in ((1,), (0,)):
        ext = extended_joint(g, 2, random_strategy(g, 2, 2, 3), C)
        rep = skew_distances(ext, g, 2, C)
        want = np.log2(1.0 / rep.p_win_c) + answer_bits(g)
        assert abs(rep.delta - want) < 1e-12


def test_skew_distances_rejects_full_holdout():
    g = chsh()
    s = strategy_fixture("detprod", 2)
    ext = extended_joint(g, 2, s, (0, 1))
    with pytest.raises(ValueError):
        skew_distances(ext, g, 2, (0, 1))


def test_aligned_operators_factorization():
    rng = np.random.default_rng(0)
    coarse = matcore.random_psd(3, rng=rng)
    coarse = coarse / np.linalg.eigvalsh(coarse).max()
    rho = matcore.random_density(3, rng=rng)
    s_op, u, _ = aligned_operators(coarse, rho)
    assert np.allclose(s_op.conj().T @ s_op, coarse, atol=1e-10)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
    prod = s_op @ matcore.mat_sqrt(rho)
    assert np.abs(prod - prod.conj().T).max() <= 1e-9
    assert np.linalg.eigvalsh((prod + prod.conj().T) / 2).min() > -1e-9


def test_coarse_operator_refusals_keep_mat_sqrt_messages():
    rho = np.eye(2) / 2
    parts = np.stack([np.diag([1.5, 0.0]), np.diag([0.0, -0.5])])
    with pytest.raises(ValueError, match=(
            "^coarse operator is not Hermitian within 1e-08$")):
        aligned_operators(np.array([[0.0, 1.0], [0.0, 0.0]]), rho)
    with pytest.raises(ValueError, match=(
            "^coarse operator has eigenvalue -5.000e-01 below -1e-09$")):
        aligned_operators(parts.sum(axis=0), rho)
    with pytest.raises(ValueError, match=(
            "^coarse operator has eigenvalue -5.000e-01 below -1e-09$")):
        fine_povm(parts, rho)
    with pytest.raises(ValueError, match=(
            "^coarse operator contains NaN or Inf entries$")):
        aligned_operators(np.diag([np.nan, 1.0]), rho)


def test_aligned_operators_deterministic():
    rng = np.random.default_rng(1)
    coarse = matcore.random_psd(2, rng=rng)
    coarse = coarse / np.linalg.eigvalsh(coarse).max()
    rho = matcore.random_density(2, rng=rng)
    s1, *_ = aligned_operators(coarse, rho)
    s2, *_ = aligned_operators(coarse.copy(), rho.copy())
    assert np.array_equal(s1, s2)


def fine_povm_oracle(s_op, fine_coarse):
    """Plain pseudoinverse conjugation, valid when the coarse operator is
    well conditioned.  Solves S-dagger E S = F for each element."""
    pinv = np.linalg.pinv(s_op)
    return np.stack([pinv.conj().T @ f @ pinv for f in fine_coarse])


def test_fine_povm_matches_pinv_conjugation_when_well_conditioned():
    rng = np.random.default_rng(2)
    d, k = 3, 2
    parts = np.stack([matcore.random_psd(d, rng=rng) for _ in range(k)])
    coarse = parts.sum(axis=0)
    parts = parts / np.linalg.eigvalsh(coarse).max()
    coarse = parts.sum(axis=0)
    rho = matcore.random_density(d, rng=rng)
    s_op, fam = fine_povm(parts, rho)
    oracle = fine_povm_oracle(s_op, parts)
    assert fam.shape == (k + 1, d, d)
    assert np.abs(fam[:k] - oracle).max() < 1e-9


def _ill_conditioned_parts(cond, d=4, k=3, seed=9):
    """k fine parts A^(1/2) P_a A^(1/2) of a POVM P, where A has eigenvalues
    from 1 down to 1 / cond in a random basis."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(matcore.random_matrix(d, rng=rng))
    root = (basis * np.geomspace(1.0, 1.0 / cond, d) ** 0.5) @ basis.conj().T
    m = np.stack([matcore.random_psd(d, rng=rng) for _ in range(k)])
    w, v = np.linalg.eigh(m.sum(axis=0))
    norm = (v / np.sqrt(w)) @ v.conj().T
    parts = root @ norm @ m @ norm @ root
    parts = (parts + matcore.dagger(parts)) / 2
    return parts, matcore.random_density(d, rng=rng)


@pytest.mark.parametrize("cond", [1e2, 1e6, 1e9, 1e11])
def test_fine_povm_is_accurate_on_an_ill_conditioned_coarse_operator(cond):
    """Against a 40-digit U A^(-1/2) F_a A^(-1/2) U-dagger, for the exact
    sum A of the parts and the U of `aligned_operators`, every element is
    within 1e-15 times A's condition number."""
    mpmath = pytest.importorskip("mpmath")
    parts, rho = _ill_conditioned_parts(cond)
    _s, u, _ = aligned_operators(parts.sum(axis=0), rho)
    got = fine_povm(parts, rho)[1][:-1]
    with mpmath.workdps(40):
        mp = mpmath.mp
        fs = [mp.matrix(f.tolist()) for f in parts]
        w, v = mp.eigh(sum(fs[1:], fs[0]))
        inv_root = v * mp.diag([1 / mp.sqrt(x) for x in w]) * v.H
        um = mp.matrix(u.tolist())
        err = max(float(abs(x)) for f, g in zip(fs, got)
                  for x in um * inv_root * f * inv_root * um.H
                  - mp.matrix(g.tolist()))
    assert err <= 1e-15 * cond


def test_pure_born_table_matches_kron_expectation():
    rng = np.random.default_rng(8)
    d = 4
    psi = matcore.random_pure(d * d, rng=rng)
    fa = np.stack([matcore.random_psd(d, rng=rng) for _ in range(3)])
    fb = np.stack([matcore.random_psd(d, rng=rng) for _ in range(2)])
    want = np.array([[np.vdot(psi, np.kron(a, b) @ psi).real for b in fb]
                     for a in fa])
    assert np.allclose(pure_born_table(psi, fa, fb), want, rtol=0.0,
                       atol=1e-12)


def test_fine_povm_family_properties():
    rng = np.random.default_rng(3)
    d, k = 4, 3
    parts = np.stack([matcore.random_psd(d, rng=rng) for _ in range(k)])
    coarse = parts.sum(axis=0)
    parts = parts / np.linalg.eigvalsh(coarse).max()
    coarse = parts.sum(axis=0)
    rho = matcore.random_density(d, rng=rng)
    _s_op, fam = fine_povm(parts, rho)
    assert np.allclose(fam.sum(axis=0), np.eye(d), atol=1e-8)
    for e in fam:
        assert np.abs(e - e.conj().T).max() <= 1e-9
        assert np.linalg.eigvalsh(e).min() > -1e-8


def test_fine_povm_rank_deficient_support():
    # a coarse operator supported on one dimension routes the rest of the
    # space to the reserved null outcome
    d = 2
    parts = np.stack([np.diag([0.6, 0.0]).astype(complex),
                      np.diag([0.4, 0.0]).astype(complex)])
    # for the maximally mixed state the factor sqrt(coarse) is already
    # aligned on the support
    fam = fine_povm(parts, np.eye(d) / d)[1]
    assert np.allclose(fam.sum(axis=0), np.eye(d), atol=1e-10)
    assert abs(fam[2][1, 1] - 1.0) < 1e-10


def test_dep_state_normalization_and_weight():
    rng = np.random.default_rng(4)
    d = 2
    s_op = matcore.random_matrix(d, rng=rng) * 0.5
    t_op = matcore.random_matrix(d, rng=rng) * 0.5
    psi = matcore.random_pure(d * d, rng=rng)
    state, weight = dep_state(s_op, t_op, psi)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    direct = np.kron(s_op, t_op) @ psi
    assert abs(weight - np.linalg.norm(direct) ** 2) < 1e-12
    assert np.linalg.norm(state * np.sqrt(weight) - direct) < 1e-12


def test_dep_state_zero_weight_marks_absent():
    d = 2
    state, weight = dep_state(np.zeros((d, d)), np.eye(d),
                              np.eye(d).reshape(-1) / np.sqrt(d))
    assert state is None and weight <= 1e-12


def test_aligned_operators_identity_coarse():
    rng = np.random.default_rng(5)
    rho = matcore.random_density(3, rng=rng)
    s_op, u, _ = aligned_operators(np.eye(3, dtype=complex), rho)
    # sqrt(rho) is already PSD, so no rotation is needed
    assert np.allclose(s_op, np.eye(3), atol=1e-10)
    assert np.allclose(u, np.eye(3), atol=1e-10)


def test_fine_povm_single_full_rank_answer():
    rng = np.random.default_rng(6)
    d = 3
    coarse = matcore.random_psd(d, rng=rng)
    coarse = coarse / (np.linalg.eigvalsh(coarse).max() * 2.0)
    fam = fine_povm(coarse[None], np.eye(d) / d)[1]
    # one answer carrying the whole coarse operator conjugates to identity
    assert np.allclose(fam[0], np.eye(d), atol=1e-9)
    assert np.abs(fam[1]).max() < 1e-9


def test_dep_state_identity_operators_keep_state():
    rng = np.random.default_rng(7)
    d = 3
    psi = matcore.random_pure(d * d, rng=rng)
    state, weight = dep_state(np.eye(d), np.eye(d), psi)
    assert abs(weight - 1.0) < 1e-12
    assert np.linalg.norm(state - psi) < 1e-12


def test_coarse_family_empty_holdout_is_identity():
    # with no held coordinates the answer sum is the full POVM completeness
    comp = DepBreakComputer(chsh(), 1, strategy_fixture("tsirelson", 1), ())
    fam = comp.coarse_family("alice", {"d1": ALICE, "m1": 0})
    assert fam.shape == (comp.d, comp.d)
    assert np.allclose(fam, np.eye(comp.d), atol=1e-12)


@pytest.fixture(scope="module")
def printing_computer():
    return DepBreakComputer(chsh(), 2, strategy_fixture("printing", 2), (1,))


def test_computer_rejects_bad_holdouts():
    g = chsh()
    s = strategy_fixture("detprod", 2)
    with pytest.raises(ValueError):
        DepBreakComputer(g, 2, s, (2,))
    with pytest.raises(ValueError):
        DepBreakComputer(g, 2, s, (0, 1))


def test_usefulness_check_printing(printing_computer):
    rep = printing_computer.usefulness_check()
    assert rep.contexts > 0
    assert rep.max_residual <= 1e-8
    assert rep.max_null_mass <= 1e-8
    assert rep.ok()


def test_weight_check_printing(printing_computer):
    rep = printing_computer.weight_check()
    assert rep.contexts > 0
    assert rep.max_abs_error <= 1e-8
    assert rep.max_sum_error <= 1e-8


def test_state_weights_match_brute_force_conditionals(printing_computer):
    """Every dependency-breaking weight equals the conditional probability
    of the held answers read off the extended table."""
    comp = printing_computer
    ext = comp.ext
    table = comp.contexts(0)
    support = table.joint.sum(axis=(1, 2, 3, 4)) > 1e-12
    checked = 0
    for r in np.flatnonzero(support).tolist():
        omega, (a2,), (b2,) = table.split(r)
        for x_i in range(2):
            for y_i in range(2):
                try:
                    cond = ext.given({**omega, "x1": x_i, "y1": y_i})
                except ZeroProbabilityEvent:
                    continue
                held = cond.marginal(("a2", "b2")).table
                _st, w = comp.state_for(0, r, x_i, y_i)
                assert abs(w - float(held[a2, b2])) < 1e-8
                checked += 1
    assert checked > 0


def test_sampleability_distances_printing_regression(printing_computer):
    rep = printing_computer.sampleability_distances()
    assert rep.d_alice < 1e-12
    assert abs(rep.d_bob - PRINTING_D_BOB) < 1e-13
    assert abs(rep.d_cross - PRINTING_D_BOB) < 1e-13
    assert rep.max_triangle_slack <= 1e-9
    assert rep.skipped_mass < 1e-12


@pytest.mark.parametrize("n, C", [(3, (1,)), (4, (0, 1))])
def test_sampleability_distances_carry_no_coarse_rounding(n, C):
    """Alice's held measurements ignore her round-i question, so her
    one-sided state is the target and d_alice is 0; the "x" and "y" states
    then coincide too, so d_cross equals d_bob.  A rounding-level
    eigenvalue kept in a singular coarse operator reads as ~1e-9 here."""
    comp = DepBreakComputer(chsh(), n, strategy_fixture("printing", n), C)
    rep = comp.sampleability_distances()
    assert rep.d_alice < 1e-12
    assert abs(rep.d_cross - rep.d_bob) <= 1e-14


def printing_d_bob_reference(mp):
    """d_bob of printing n=2, C=(1,) at mp's working precision from the
    exact fixture angles, independent of depbreak.

    The shared state is maximally entangled, so both reduced states are
    I/4 and every aligned factor is the square root of its coarse
    operator; rounds are Kronecker factors, round 1 first.  The held round
    2 is won when a2 xor b2 = x2 and y2.
    """
    twist = mp.mpf(2) / 5
    alice_angles = (mp.mpf(0), mp.pi / 2)
    bob_angles = (mp.pi / 4, -mp.pi / 4)

    def proj(theta, a):
        sign = 1 if a == 0 else -1
        c, s = mp.cos(theta), mp.sin(theta)
        return mp.matrix([[(1 + sign * c) / 2, sign * s / 2],
                          [sign * s / 2, (1 - sign * c) / 2]])

    def kron(p, q):
        out = mp.zeros(4, 4)
        for i, j, k, l in itertools.product(range(2), repeat=4):
            out[2 * i + k, 2 * j + l] = p[i, j] * q[k, l]
        return out

    def alice(x, a):
        return kron(proj(alice_angles[x[0]], a[0]),
                    proj(alice_angles[x[1]], a[1]))

    def bob(y, b):
        turn = twist * (sum(y) % 2)
        return kron(proj(bob_angles[y[0]] + turn, b[0]),
                    proj(bob_angles[y[1]] + turn, b[1]))

    def held(op, q, ans):
        return op(q, (0, ans)) + op(q, (1, ans))

    def root(c):
        """Square root on the support of a PSD real symmetric matrix."""
        w, v = mp.eigsy(c)
        diag = mp.zeros(4, 4)
        for k in range(4):
            if w[k] > mp.mpf(10) ** (-mp.dps // 2):
                diag[k, k] = mp.sqrt(w[k])
        return v * diag * v.T

    def unit(m):
        return m / mp.sqrt(sum(v ** 2 for v in m))

    acc = total = mp.mpf(0)
    for x1, y1 in itertools.product(range(2), repeat=2):
        # P(x2, y2, a2, b2, round 2 won | x1, y1), up to a common factor:
        # <psi|A (x) B|psi> = tr(A B^T) / 4
        won = {}
        for x2, y2, a2, b2 in itertools.product(range(2), repeat=4):
            if a2 ^ b2 == x2 & y2:
                won[x2, y2, a2, b2] = sum(
                    (alice((x1, x2), (a1, a2))
                     * bob((y1, y2), (b1, b2)).T)[k, k]
                    for a1, b1, k in itertools.product(range(2), range(2),
                                                       range(4)))
        mass = sum(won.values())
        for (x2, y2, a2, b2), p in won.items():
            w = p / mass / 4                 # mu(x1, y1) P(r | x1, y1, won)
            s_own = root(held(alice, (x1, x2), a2))
            t_own = root(held(bob, (y1, y2), b2))
            # Bob averages y1 given the pointer names Alice's x1: 1/2 each
            t_via = root((held(bob, (0, y2), b2) + held(bob, (1, y2), b2)) / 2)
            gap = unit(s_own * t_own.T) - unit(s_own * t_via.T)
            acc += w * mp.sqrt(sum(v ** 2 for v in gap))
            total += w
    return acc / total


def test_printing_d_bob_matches_an_extended_precision_reference():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = printing_d_bob_reference(mpmath.mp)
        assert abs(want - mpmath.mpf("0.0962991313287965045")) < 1e-19
    assert float(want) == PRINTING_D_BOB


def test_sampleability_distances_vanish_for_product_strategy():
    comp = DepBreakComputer(chsh(), 2, strategy_fixture("detprod", 2), (1,))
    rep = comp.sampleability_distances()
    assert max(rep.d_alice, rep.d_bob, rep.d_cross) < 1e-10


def test_xi_raz_check_printing(printing_computer):
    rep_b = printing_computer.xi_raz_check(side="bob")
    assert rep_b.ok()
    assert abs(rep_b.avg_mi - PRINTING_XI_BOB) < 1e-10
    assert abs(rep_b.delta - PRINTING_DELTA) < 1e-10
    rep_a = printing_computer.xi_raz_check(side="alice")
    assert rep_a.ok()
    assert rep_a.avg_mi < 1e-10   # Alice's fixture angles are question-blind
    with pytest.raises(ValueError):
        printing_computer.xi_raz_check(side="center")


def test_usefulness_check_tsirelson_exact():
    comp = DepBreakComputer(chsh(), 2, strategy_fixture("tsirelson", 2), (1,))
    rep = comp.usefulness_check()
    assert rep.max_residual <= 1e-10
    wrep = comp.weight_check()
    assert wrep.max_abs_error <= 1e-10


def asym3_config():
    """asym3 (three questions, non-uniform mu) at n=2, C=(1,), played by
    answer functions that read both rounds' questions."""
    g = asym3()
    rng = np.random.default_rng(11)
    det = DeterministicStrategy(2, rng.integers(0, 2, size=(3, 3, 2)),
                                rng.integers(0, 2, size=(3, 3, 2)))
    return ReductionConfig(game=g, n=2, strategy=as_entangled(det, g), C=(1,))


def printing_config(C):
    return ReductionConfig(game=chsh(), n=3,
                           strategy=strategy_fixture("printing", 3), C=C)


@pytest.mark.parametrize("make_config", [
    pytest.param(lambda: printing_config((1,)), id="printing-C1"),
    pytest.param(lambda: printing_config((0, 1)), id="printing-C01"),
    pytest.param(asym3_config, id="asym3-C1")])
def test_context_table_matches_per_context_conditionals(make_config):
    """The context table against conditioning the extended table on each
    context, the per-context path the checks used before the table."""
    cfg = make_config()
    shot = SingleShotStrategy(cfg)
    comp = shot.computer
    g, n, ext = cfg.game, cfg.n, comp.ext
    cond = condition(ext, win_set(g, n, comp.C))
    pairs = [(x, y) for x in range(g.x_size) for y in range(g.y_size)
             if g.mu[x, y] > 0.0]
    for i in comp.free:
        table = comp.contexts(i)
        round_i = (f"x{i + 1}", f"y{i + 1}", f"a{i + 1}", f"b{i + 1}")
        for r in range(table.joint.shape[0]):
            assign = dict(zip(table.names, (int(v) for v in
                                            np.unravel_index(r, table.sizes))))
            assert table.split(r) == (
                {k: v for k, v in assign.items() if k[0] not in "ab"},
                tuple(assign[f"a{c + 1}"] for c in comp.C),
                tuple(assign[f"b{c + 1}"] for c in comp.C))
            assert shot.r_to_flat(i, shot.flat_to_r(i, r)) == r
            for x, y in pairs:
                cell = table.joint[r, x, y]
                try:
                    want = ext.given({**assign, round_i[0]: x,
                                      round_i[1]: y}).marginal(round_i[2:])
                except ZeroProbabilityEvent:
                    assert cell.sum() <= ZERO_MASS
                    continue
                assert np.abs(cell / cell.sum() - want.table).max() < 1e-12
        for kind in ("joint", "alice", "bob"):
            for x, y in pairs:
                x_k = x if kind in ("joint", "alice") else None
                y_k = y if kind in ("joint", "bob") else None
                evidence = {}
                if x_k is not None:
                    evidence[round_i[0]] = x
                if y_k is not None:
                    evidence[round_i[1]] = y
                got = shot.law(i, x_k, y_k)
                try:
                    want = cond.given(evidence).marginal(table.names)
                except ZeroProbabilityEvent:
                    assert got is None
                    continue
                assert np.abs(got - want.table.ravel()).max() < 1e-12


def test_checks_and_exact_reduction_on_asym3():
    cfg = asym3_config()
    comp = DepBreakComputer(cfg.game, cfg.n, cfg.strategy, cfg.C)
    use = comp.usefulness_check()
    assert use.contexts > 0 and use.ok()
    wts = comp.weight_check()
    assert wts.contexts > 0 and wts.ok()
    samp = comp.sampleability_distances()
    assert samp.max_triangle_slack <= 1e-9
    rep = run_reduction(cfg)
    assert rep.invalid_contexts == 0
    assert rep.max_context_crosscheck <= 1e-8
    # conditioning on round 2 skews round 1's questions here, so p_tilde
    # is the mu-weighted conditional win and differs from p_ref
    g = cfg.game
    cond = condition(born_joint(g, 2, cfg.strategy), win_set(g, 2, (1,)))
    want = sum(g.mu[x, y] * float((cond.given({"x1": x, "y1": y}).marginal(
        ("a1", "b1")).table * g.predicate[x, y]).sum())
        for x in range(3) for y in range(3))
    assert abs(rep.avg_p_tilde - want) < 1e-12
    assert abs(rep.avg_p_ref - cond.prob(win_set(g, 2, (0,)))) < 1e-12


def test_operators_are_built_once_per_coordinate(printing_computer):
    comp = printing_computer
    first = comp.fine_family("alice", 0, {"x1": 1, "x2": 0, "y2": 1}, (0,))
    again = comp.fine_family("alice", 0, {"y2": 1, "x2": 0, "x1": 1}, [0])
    assert np.array_equal(again, first)
    ops = comp.operators(0)
    assert comp.operators(0) is ops
    # the one-assignment kernels read the same families as the stacks:
    # omega = (x2, y2) = (0, 1) is flat 1, x1 = 1, held a2 = 0
    assert np.abs(ops["alice"].fine[1, 1, 0] - first).max() <= 1e-12
    s_op, _ = comp.aligned("bob", {"d1": ALICE, "m1": 1, "x2": 0, "y2": 1},
                           (1,))
    assert np.abs(comp.via_factors(0)["bob"][1, 1, 1] - s_op).max() <= 1e-12
    with pytest.raises(ZeroProbabilityEvent):
        comp.coarse_family("alice", {"d1": ALICE, "m1": 1, "x1": 0})
