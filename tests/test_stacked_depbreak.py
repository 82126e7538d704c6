"""The per-coordinate operator stacks against the per-context oracle.

`DepBreakComputer` builds every aligned factor, fine POVM and state of a
free coordinate as one stack; `_depbreak_oracle.PerContext` builds them one
context at a time with 2-D kernels.  Every walk, and the xi check on both
sides, must agree with the oracle within 1e-12 (the same visited and
skipped counts), and with the context table within 1e-8, on seeded random
strategies over a non-maximally entangled state for CHSH and for asym3
(three questions, non-uniform mu).
"""

import numpy as np
import pytest

from _depbreak_oracle import PerContext
from _depbreak_oracle import dep_state as dep_state_2d
from _depbreak_oracle import fine_povm as fine_povm_2d
from _depbreak_oracle import pure_born_table as pure_born_table_2d
from _helpers import random_strategy
from repgames import depbreak, matcore, reduction
from repgames.depbreak import (DepBreakComputer, aligned_operators, dep_state,
                               fine_povm, x_names_at, y_names_at)
from repgames.games import Game, asym3, chsh
from repgames.prob import ZeroProbabilityEvent
from repgames.reduction import ReductionConfig, SingleShotStrategy
from repgames.strategy import pure_born_table, strategy_fixture

SEEDS = range(20)
HOLDOUTS = ((1,), (0,), ())
GAMES = {"chsh": chsh, "asym3": asym3}


def _close(got, want, tol=1e-12):
    assert abs(got - want) <= tol, (got, want)


def _check_against_oracle(comp):
    oracle = PerContext(comp)
    use = comp.usefulness_check()
    contexts, skipped, res, null = oracle.usefulness()
    assert (use.contexts, use.skipped) == (contexts, skipped)
    _close(use.max_residual, res)
    _close(use.max_null_mass, null)
    assert use.contexts > 0 and use.ok()

    wts = comp.weight_check()
    contexts, err, total = oracle.weights()
    assert wts.contexts == contexts
    _close(wts.max_abs_error, err)
    _close(wts.max_sum_error, total)
    assert wts.contexts > 0 and wts.ok()

    samp = comp.sampleability_distances()
    per, skipped_mass, max_tri = oracle.sampleability()
    for i in comp.free:
        assert np.abs(np.array(samp.per_coord[i]) - per[i]).max() <= 1e-12
    _close(samp.skipped_mass, skipped_mass)
    _close(samp.max_triangle_slack, max_tri)
    assert samp.max_triangle_slack <= 1e-9

    for side in ("alice", "bob"):
        xi = comp.xi_raz_check(side=side)
        assert np.abs(np.array(xi.per_coord) - oracle.xi(side)).max() <= 1e-12
    return oracle


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("game", sorted(GAMES))
def test_random_strategies_match_the_per_context_oracle(game, seed):
    g = GAMES[game]()
    s = random_strategy(g, 2, 3, seed)
    shot = SingleShotStrategy(ReductionConfig(
        game=g, n=2, strategy=s, C=HOLDOUTS[seed % len(HOLDOUTS)]))
    oracle = _check_against_oracle(shot.computer)
    for i in shot.free:
        rec = reduction._exact_coordinate(shot, i)
        want = oracle.exact_coordinate(i)
        _close(rec.p_tilde, want[0])
        _close(rec.crosscheck, want[1])
        _close(rec.bad_mass, want[2])
        assert rec.invalid == want[3] == 0
        assert rec.crosscheck <= 1e-8


@pytest.mark.parametrize("C", [(1,), (0, 1)])
def test_printing_checks_match_the_per_context_oracle(C):
    comp = DepBreakComputer(chsh(), 3, strategy_fixture("printing", 3), C)
    _check_against_oracle(comp)


@pytest.mark.parametrize("C", [(1,), ()])
def test_question_weights_at_the_support_cut_match_the_oracle(C):
    """A near-empty question pair gives conditional question weights near
    2e-3, so the question law's SUPPORT_MASS cut decides what is kept."""
    base = chsh()
    g = Game(2, 2, 2, 2, [[0.4995, 0.25], [0.25, 0.0005]], base.predicate,
             name="chsh-skewed")
    comp = DepBreakComputer(g, 2, random_strategy(g, 2, 2, 5), C)
    _check_against_oracle(comp)


def test_stacked_calls_per_coordinate_and_side(monkeypatch):
    """aligned_operators runs twice per block of a coordinate and side (own
    factors, and via factors once a walk needs them) and fine_povm once;
    at d = 8 every stack of these holdouts fits one block."""
    calls = {"aligned": 0, "fine": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(depbreak, "aligned_operators",
                        counted("aligned", depbreak.aligned_operators))
    monkeypatch.setattr(depbreak, "fine_povm",
                        counted("fine", depbreak.fine_povm))
    seen = set()
    for C in ((2,), (0, 1), ()):
        comp = DepBreakComputer(chsh(), 3, strategy_fixture("printing", 3), C)
        calls.update(aligned=0, fine=0)
        contexts = comp.usefulness_check().contexts
        comp.weight_check()
        m = len(comp.free)
        assert calls == {"aligned": 2 * m, "fine": 2 * m}
        comp.sampleability_distances()
        comp.usefulness_check()
        assert calls == {"aligned": 2 * 2 * m, "fine": 2 * m}
        seen.add(contexts)
    assert len(seen) == 3


def _stack(seed, count, d=3, k=2):
    rng = np.random.default_rng(seed)
    parts = matcore.random_psd(d, rng=rng, count=(count * k)).reshape(
        count, k, d, d)
    parts = parts / np.linalg.eigvalsh(parts.sum(axis=1)).max(
        axis=-1)[:, None, None, None]
    rho = matcore.random_density(d, rng=rng)
    return parts, rho


def test_stacked_kernels_match_their_two_d_calls():
    parts, rho = _stack(40, 6)
    # a rank-deficient coarse operator and an all-zero one join the stack
    parts[4] = np.diag([0.6, 0.0, 0.0]), np.diag([0.4, 0.0, 0.0])
    parts[5] = 0.0
    coarse = parts.sum(axis=1)
    s_ops, us, _ = aligned_operators(coarse, rho)
    s_fine, fams = fine_povm(parts, rho)
    assert np.array_equal(s_fine, s_ops)
    assert fams.shape == (6, 3, 3, 3)
    psi = matcore.random_pure(9, rng=41)
    states, weights = dep_state(s_ops, s_ops[::-1], psi)
    tables = pure_born_table(states, fams, fams[::-1])
    for j in range(6):
        s_op, u, _ = aligned_operators(coarse[j], rho)
        assert np.array_equal(s_op, s_ops[j]) and np.array_equal(u, us[j])
        assert np.abs(fine_povm(parts[j], rho)[1] - fams[j]).max() <= 1e-14
        assert np.abs(fine_povm_2d(s_op, parts[j]) - fams[j]).max() <= 1e-12
        state, weight = dep_state(s_ops[j], s_ops[5 - j], psi)
        want, want_w = dep_state_2d(s_ops[j], s_ops[5 - j], psi)
        assert abs(weight - weights[j]) <= 1e-15 and abs(want_w - weight) <= 1e-15
        if want is None:
            assert state is None and not states[j].any()
            continue
        assert np.abs(state - states[j]).max() <= 1e-15
        assert np.abs(want - state).max() <= 1e-14
        assert np.abs(pure_born_table(state, fams[j], fams[5 - j])
                      - tables[j]).max() <= 1e-15
        assert np.abs(pure_born_table_2d(state, fams[j], fams[5 - j])
                      - tables[j]).max() <= 1e-14
    # the zero operator has no support: its family is the null outcome alone
    assert np.array_equal(fams[5, 2], np.eye(3)) and not fams[5, :2].any()
    assert weights[5] == 0.0


def test_context_win_is_the_stacked_kernel_on_one_context():
    shot = SingleShotStrategy(ReductionConfig(
        game=chsh(), n=3, strategy=strategy_fixture("printing", 3), C=(0,)))
    law = shot.law(1, 1, 0)
    support = np.flatnonzero(law > depbreak.SUPPORT_MASS)
    r, rb = support[:8], support[::-1][:8].copy()
    x, y = np.full(r.size, 1), np.zeros(r.size, dtype=int)
    p, err, valid = shot.context_wins(1, r, rb, x, y)
    oracle = PerContext(shot.computer)
    win = shot.cfg.game.predicate[1, 0]
    for k in range(r.size):
        assert shot.context_win(1, int(r[k]), int(rb[k]), 1, 0) == (
            p[k], err[k], valid[k])
        # the state from Alice's r, each side's fine family from its own r
        state, _w = oracle.state_for(1, int(r[k]), 1, 0)
        table = pure_born_table_2d(state, *oracle.fine_families(
            1, int(r[k]), int(rb[k]), 1, 0))
        _close(p[k], float(np.clip(table[:2, :2][win].sum(), 0.0, 1.0)))
    assert valid.all() and not err.any() and (r != rb).any()


ONE_CONTEXT_CASES = (("printing", 3, (1,)), ("printing", 4, (0,)),
                     ("asym3", 2, (1,)))


@pytest.mark.parametrize("case", ONE_CONTEXT_CASES,
                         ids=lambda c: f"{c[0]}{c[1]}{c[2]}")
def test_one_context_fine_family_equals_the_stacks(case):
    """`fine_family` is the construction of `operators(i)` on a stack of
    one, so every context's family equals the stacked one bit for bit; a
    context of no mass is refused there and is the null outcome alone in
    the stack."""
    name, n, C = case
    if name == "asym3":
        g = asym3()
        s = random_strategy(g, n, 3, 0)
    else:
        g, s = chsh(), strategy_fixture(name, n)
    comp = DepBreakComputer(g, n, s, C)
    for i in comp.free:
        names = comp.omega_names(i)
        sizes = tuple(comp._sizes[nm] for nm in names)
        for side, own_q, k in (("alice", x_names_at(i), g.a_size),
                               ("bob", y_names_at(i), g.b_size)):
            fine = comp.operators(i)[side].fine
            for w, q, h in np.ndindex(fine.shape[:3]):
                omega = dict(zip(names, np.unravel_index(w, sizes)))
                held = np.unravel_index(h, (k,) * len(C))
                try:
                    got = comp.fine_family(side, i, {**omega, own_q: q}, held)
                except ZeroProbabilityEvent:
                    assert not fine[w, q, h, :-1].any()
                    continue
                assert np.array_equal(got, fine[w, q, h])
