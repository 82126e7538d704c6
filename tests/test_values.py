import itertools
import math

import numpy as np
import pytest

import _values_oracle as oracle
from _helpers import bell_operator
from repgames import matcore, values
from repgames.games import Game, always_win, asym3, chsh
from repgames.strategy import POVMFamily, tsirelson, win_probability
from repgames.values import (SeesawConfig, _alice_effectives, _bell_operator,
                             _bob_effectives, _improve_side, _random_povm,
                             _value, classical_value, max_classical_rounds,
                             seesaw, seesaw_best, theorem1_bound)

TSIRELSON_VALUE = math.cos(math.pi / 8) ** 2


def enumeration_oracle(g, n):
    """Maximize over all deterministic answer functions by direct search.

    Independent of classical_value: builds explicit answer tables and
    scores each pair with a plain loop over question tuples.
    """
    x_tuples = list(itertools.product(range(g.x_size), repeat=n))
    y_tuples = list(itertools.product(range(g.y_size), repeat=n))
    a_tuples = list(itertools.product(range(g.a_size), repeat=n))
    b_tuples = list(itertools.product(range(g.b_size), repeat=n))
    best = 0.0
    for a_choice in itertools.product(a_tuples, repeat=len(x_tuples)):
        a_of = dict(zip(x_tuples, a_choice))
        for b_choice in itertools.product(b_tuples, repeat=len(y_tuples)):
            b_of = dict(zip(y_tuples, b_choice))
            total = 0.0
            for xt in x_tuples:
                at = a_of[xt]
                for yt in y_tuples:
                    bt = b_of[yt]
                    w = 1.0
                    win = True
                    for i in range(n):
                        w *= g.mu[xt[i], yt[i]]
                        win = win and bool(
                            g.predicate[xt[i], yt[i], at[i], bt[i]])
                    if win:
                        total += w
            best = max(best, total)
    return best


def test_classical_value_matches_enumeration_oracle():
    g = chsh()
    assert classical_value(g, 1) == pytest.approx(enumeration_oracle(g, 1),
                                                  abs=1e-15)
    g3 = asym3()
    assert classical_value(g3, 1) == pytest.approx(enumeration_oracle(g3, 1),
                                                   abs=1e-12)


def pair_enumeration(g, n):
    """The largest value over every pair of answer functions, each pair
    scored: one-hot answer tables on both sides around the n-fold table
    mu(x, y) V(x, y, a, b), built cell by cell from the one-round game."""
    xs, ys = (list(itertools.product(range(k), repeat=n))
              for k in (g.x_size, g.y_size))
    as_, bs = (list(itertools.product(range(k), repeat=n))
               for k in (g.a_size, g.b_size))
    table = np.zeros((len(xs), len(as_), len(ys), len(bs)))
    for (i, x), (j, y), (k, a), (m, b) in itertools.product(
            enumerate(xs), enumerate(ys), enumerate(as_), enumerate(bs)):
        if all(g.predicate[x[t], y[t], a[t], b[t]] for t in range(n)):
            table[i, k, j, m] = math.prod(g.mu[x[t], y[t]] for t in range(n))

    def one_hot(funcs, answers):
        out = np.zeros((len(funcs), funcs.shape[1], answers))
        np.put_along_axis(out, funcs[:, :, None], 1.0, axis=2)
        return out.reshape(len(funcs), -1)

    def functions(questions, answers):
        return np.indices((answers,) * questions).reshape(questions, -1).T

    alice = one_hot(functions(len(xs), len(as_)), len(as_))
    left = alice @ table.reshape(alice.shape[1], -1)    # (Alice's, y b)
    bob = functions(len(ys), len(bs))
    best = 0.0
    for start in range(0, len(bob), 1 << 14):
        block = one_hot(bob[start:start + (1 << 14)], len(bs))
        best = max(best, float((left @ block.T).max()))
    return best


@pytest.mark.parametrize("sizes", [(2, 3, 2, 2), (2, 2, 3, 2)],
                         ids=["x-ne-y", "a-ne-b"])
def test_classical_value_matches_pair_enumeration_at_two_rounds(sizes):
    """Unequal alphabets, so an x/y or a/b swap in the n-fold predicate's
    layout would move the value."""
    rng = np.random.default_rng(sum(sizes))
    mu = rng.random(sizes[:2])
    g = Game(*sizes, mu / mu.sum(), rng.random(sizes) < 0.5)
    assert abs(classical_value(g, 2) - pair_enumeration(g, 2)) <= 1e-15


def test_classical_value_chsh_exact():
    g = chsh()
    assert classical_value(g, 1) == 0.75
    assert classical_value(g, 2) == 0.625


def test_classical_value_always_win():
    g = always_win()
    assert classical_value(g, 1) == 1.0
    assert classical_value(g, 2) == 1.0


@pytest.mark.parametrize("game, top", [(chsh, 2), (always_win, 2),
                                       (asym3, 1)])
def test_max_classical_rounds_is_the_last_n_classical_value_accepts(game,
                                                                     top):
    g = game()
    assert max_classical_rounds(g, 10) == top
    assert max_classical_rounds(g, 1) == 1
    with pytest.raises(ValueError, match="exceeds the cap"):
        classical_value(g, top + 1)


def test_max_classical_rounds_stops_at_its_limit():
    # one question and one answer per side: every n fits the caps
    g = Game(1, 1, 1, 1, np.ones((1, 1)), np.ones((1, 1, 1, 1), dtype=bool))
    assert max_classical_rounds(g, 7) == 7
    assert max_classical_rounds(g, 0) == 0


def random_povms(g, d, seed):
    """Seeded one-round POVM stacks `(X, A, d, d)`, `(Y, B, d, d)`, a state
    and the predicate weights W = mu * V."""
    rng = np.random.default_rng(seed)
    alice = np.stack([_random_povm(d, g.a_size, rng) for _ in range(g.x_size)])
    bob = np.stack([_random_povm(d, g.b_size, rng) for _ in range(g.y_size)])
    psi = matcore.random_pure(d * d, rng)
    return alice, bob, psi, g.mu[:, :, None, None] * g.predicate


def families(alice, bob):
    return POVMFamily(1, alice), POVMFamily(1, bob)


def effectives_loop(g, psi, alice, bob):
    """Per-(x, a) and per-(y, b) sums of winning terms, one matmul each."""
    d = alice.shape[-1]
    m = psi.reshape(d, d)
    eff_a = np.zeros(alice.shape, dtype=np.complex128)
    eff_b = np.zeros(bob.shape, dtype=np.complex128)
    for x, y, a, b in itertools.product(range(g.x_size), range(g.y_size),
                                        range(g.a_size), range(g.b_size)):
        if g.mu[x, y] == 0.0 or not g.predicate[x, y, a, b]:
            continue
        eff_a[x, a] += g.mu[x, y] * (m @ bob[y, b].T @ m.conj().T)
        eff_b[y, b] += g.mu[x, y] * (m.conj().T @ alice[x, a] @ m).T
    return ((eff_a + matcore.dagger(eff_a)) / 2,
            (eff_b + matcore.dagger(eff_b)) / 2)


def value_loop(g, psi, alice, bob):
    d = alice.shape[-1]
    rho = np.outer(psi, psi.conj())
    total = 0.0
    for x, y, a, b in itertools.product(range(g.x_size), range(g.y_size),
                                        range(g.a_size), range(g.b_size)):
        if g.predicate[x, y, a, b]:
            total += g.mu[x, y] * np.trace(
                np.kron(alice[x, a], bob[y, b]) @ rho).real
    return total


@pytest.mark.parametrize("game", [chsh(), asym3(), always_win()],
                         ids=["chsh", "asym3", "always_win"])
def test_seesaw_contractions_match_loop_oracles(game):
    for d in (2, 3):
        for seed in range(5):
            alice, bob, psi, w = random_povms(game, d, seed)
            fam_a, fam_b = families(alice, bob)
            assert np.abs(_bell_operator(w, alice, bob)
                          - bell_operator(game, fam_a, fam_b)).max() <= 1e-14
            want_a, want_b = effectives_loop(game, psi, alice, bob)
            assert np.abs(_alice_effectives(w, psi, bob) - want_a).max() \
                <= 1e-14
            assert np.abs(_bob_effectives(w, psi, alice) - want_b).max() \
                <= 1e-14
            assert abs(_value(w, psi, alice, bob)
                       - value_loop(game, psi, alice, bob)) <= 1e-14


def _exchange_gain(elems, effectives):
    """Largest increase of sum_a tr(E_a N_a) that one exact pairwise
    exchange step still makes, each pair's step computed from scratch."""
    def objective(e):
        return sum(float(np.trace(a @ n).real) for a, n in zip(e, effectives))

    gain = 0.0
    for a1, a2 in itertools.combinations(range(len(elems)), 2):
        c = elems[a1] + elems[a2]
        csq = matcore.mat_sqrt(c)
        w, v = np.linalg.eigh(csq @ (effectives[a1] - effectives[a2]) @ csq)
        pos = v[:, w > 0.0]
        e1 = csq @ pos @ pos.conj().T @ csq
        e1 = (e1 + e1.conj().T) / 2
        moved = elems.copy()
        moved[a1], moved[a2] = e1, c - e1
        gain = max(gain, objective(moved) - objective(elems))
    return gain


@pytest.mark.parametrize("seed", range(10))
def test_improve_side_ascends_to_an_exchange_fixed_point(seed):
    """On complex effectives tr(E N) and Re tr(E N^T) differ (for purely
    imaginary N they have opposite signs), so the sweeps must track
    sum_a tr(E_a N_a) to run until no pairwise exchange improves it."""
    rng = np.random.default_rng(seed)
    d, k = 3, 3
    elems = np.stack(_random_povm(d, k, rng))
    a = rng.standard_normal((k, d, d))
    effectives = 1j * (a - np.swapaxes(a, -1, -2))
    out = _improve_side(effectives, elems, 1e-12)
    assert np.abs(out.sum(axis=0) - np.eye(d)).max() <= 1e-12
    assert _exchange_gain(elems, effectives) > 1e-3
    assert _exchange_gain(out, effectives) <= 1e-9


def test_bell_operator_always_win_is_identity():
    g = always_win()
    s = tsirelson(1)
    op = bell_operator(g, s.alice, s.bob)
    assert np.allclose(op, np.eye(s.d * s.d), atol=1e-12)
    top = np.linalg.eigvalsh(op)[-1]
    assert abs(top - 1.0) < 1e-12


def test_seesaw_always_win_saturates():
    res = seesaw(always_win(), SeesawConfig(d=2, max_iters=20, seed=0))
    assert abs(res.value - 1.0) < 1e-10


def test_seesaw_monotone_trace_and_validity():
    g = chsh()
    res = seesaw(g, SeesawConfig(d=2, max_iters=120, seed=3))
    trace = np.array(res.objective_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert 0.0 <= res.value <= 1.0 + 1e-12
    # returned strategy reproduces the reported value through the Born rule
    assert abs(win_probability(g, 1, res.strategy) - res.value) < 1e-8


def test_seesaw_best_reaches_near_optimum():
    g = chsh()
    best = seesaw_best(g, 2, seeds=range(4), max_iters=300)
    assert best.value >= 0.8535
    assert best.value <= TSIRELSON_VALUE + 1e-6


def test_seesaw_deterministic_per_seed():
    g = chsh()
    r1 = seesaw(g, SeesawConfig(d=2, max_iters=50, seed=7))
    r2 = seesaw(g, SeesawConfig(d=2, max_iters=50, seed=7))
    assert r1.value == r2.value


def chsh3():
    """Three questions and answers per side, uniform questions, win iff
    a + b = x y mod 3: a game with more than one exchange pair per POVM."""
    pred = np.zeros((3, 3, 3, 3), dtype=bool)
    for x, y, a, b in itertools.product(range(3), repeat=4):
        pred[x, y, a, b] = (a + b) % 3 == (x * y) % 3
    return Game(3, 3, 3, 3, np.full((3, 3), 1 / 9), pred, name="chsh3")


ORACLE_GAMES = {"chsh": chsh, "asym3": asym3, "always_win": always_win,
                "chsh3": chsh3}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", sorted(ORACLE_GAMES))
def test_stacked_seesaw_matches_per_restart_oracle(name, d):
    """Twenty restarts as one stack follow the trajectories of the
    per-restart, per-question loop: the same objective traces and the same
    iteration count per seed, and seesaw_best picks the first best seed."""
    g = ORACLE_GAMES[name]()
    seeds = list(range(20))
    runs = values._ascend(g, d, seeds, 500, 1e-10)
    want = [oracle.seesaw(g, d, seed) for seed in seeds]
    for (psi, alice, bob, iters, trace), (value, w_iters, w_trace, w_psi,
                                          w_alice, w_bob) in zip(runs, want):
        assert iters == w_iters
        assert len(trace) == len(w_trace)
        assert np.abs(np.subtract(trace, w_trace)).max() <= 1e-12
        assert abs(trace[-1] - value) <= 1e-12
        assert np.abs(alice - w_alice).max() <= 1e-12
        assert np.abs(bob - w_bob).max() <= 1e-12
        assert np.abs(psi - w_psi).max() <= 1e-12
    best = values.seesaw_best(g, d, seeds)
    first = max(range(len(seeds)), key=lambda k: want[k][0])
    assert abs(best.value - want[first][0]) <= 1e-12
    assert best.iterations == want[first][1]


def test_seesaw_is_a_stack_of_one():
    g = asym3()
    for seed in range(5):
        res = seesaw(g, SeesawConfig(d=3, max_iters=40, seed=seed))
        value, iters, trace, *_ = oracle.seesaw(g, 3, seed, max_iters=40)
        assert res.iterations == iters
        assert np.abs(np.subtract(res.objective_trace, trace)).max() <= 1e-12


def test_seesaw_best_decomposes_once_per_stacked_iteration(monkeypatch):
    """Tooling guard: one Bell-operator decomposition per iteration of the
    stack, max(iterations) over 20 restarts, not one per restart."""
    g, seeds = asym3(), range(20)
    iters = [oracle.seesaw(g, 2, seed)[1] for seed in seeds]
    calls = {"bell": 0, "decompositions": 0}
    real_bell, real_eigh = values._bell_operator, matcore.eigh_desc

    def bell(*args):
        calls["bell"] += 1
        return real_bell(*args)

    def eigh_desc(h, name="matrix", *args, **kwargs):
        calls["decompositions"] += name == "bell operator"
        return real_eigh(h, name, *args, **kwargs)

    monkeypatch.setattr(values, "_bell_operator", bell)
    monkeypatch.setattr(matcore, "eigh_desc", eigh_desc)
    values.seesaw_best(g, 2, seeds)
    assert calls == {"bell": max(iters), "decompositions": max(iters)}
    assert max(iters) < sum(iters)


def test_stacked_improve_side_runs_each_povm_to_its_own_stop():
    rng = np.random.default_rng(4)
    d, k = 3, 3
    elems = np.stack([np.stack(_random_povm(d, k, rng)) for _ in range(6)])
    a = rng.standard_normal((6, k, d, d)) + 1j * rng.standard_normal(
        (6, k, d, d))
    effectives = (a + matcore.dagger(a)) / 2
    effectives[0] = 0.0   # no pair improves: this POVM stops after a sweep
    out = _improve_side(effectives.reshape(2, 3, k, d, d),
                        elems.reshape(2, 3, k, d, d), 1e-12)
    assert out.shape == (2, 3, k, d, d)
    for row, got in enumerate(out.reshape(6, k, d, d)):
        want = oracle.improve_side(effectives[row], elems[row], 1e-12)
        assert np.abs(got - want).max() <= 1e-12


def test_theorem1_bound_clamps_to_one():
    rep = theorem1_bound(0.25, 2.0, 1024)
    assert rep.raw_value > 1.0
    assert rep.bound_value == 1.0
    assert rep.vacuous


def test_theorem1_bound_nonvacuous_region():
    rep = theorem1_bound(0.9, 2.0, 2 ** 40)
    assert not rep.vacuous
    assert rep.bound_value == rep.raw_value < 1.0


def test_theorem1_bound_monotone_once_nonvacuous():
    values = []
    for k in range(38, 61, 2):
        rep = theorem1_bound(0.9, 2.0, 2 ** k)
        if not rep.vacuous:
            values.append(rep.bound_value)
    assert len(values) >= 3
    assert all(values[i + 1] <= values[i] + 1e-15
               for i in range(len(values) - 1))


def test_theorem1_bound_formula_value():
    eps, s, n, c, base = 0.5, 1.5, 4096, 2.0, 2.0
    rep = theorem1_bound(eps, s, n, c=c, log_base=base)
    expected = c * s * (math.log(n) / math.log(base)) / (eps ** 17 * n ** 0.25)
    assert rep.raw_value == pytest.approx(expected, rel=1e-12)


def test_theorem1_bound_input_validation():
    with pytest.raises(ValueError):
        theorem1_bound(0.0, 2.0, 16)
    with pytest.raises(ValueError):
        theorem1_bound(1.5, 2.0, 16)
    with pytest.raises(ValueError):
        theorem1_bound(0.5, -1.0, 16)
    with pytest.raises(ValueError):
        theorem1_bound(0.5, 2.0, 1)
    with pytest.raises(ValueError):
        theorem1_bound(0.5, 2.0, 16, log_base=1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("arg", ["epsilon", "s_bits", "c", "log_base"])
def test_theorem1_bound_refuses_non_finite_inputs(arg, value):
    kwargs = {"epsilon": 0.5, "s_bits": 2.0, "c": 1.0, "log_base": 2.0}
    kwargs[arg] = value
    with pytest.raises(ValueError, match="must be finite"):
        theorem1_bound(n=16, **kwargs)
