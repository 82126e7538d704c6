"""Each player's description of the conditional state, from that player's
own context: `DepBreakComputer.description` against the per-context
oracle's one-sided states, at contexts where Alice's r_a and Bob's r_b
differ, and the embezzle reduction reading Alice's description at
(r_a, x_i) and Bob's at (r_b, y_i), three states per block.
"""

import numpy as np
import pytest

from _depbreak_oracle import PerContext
from _helpers import lopsided, random_strategy
from repgames import depbreak, reduction
from repgames.depbreak import ZERO_WEIGHT
from repgames.games import chsh
from repgames.reduction import ReductionConfig, SingleShotStrategy
from repgames.strategy import strategy_fixture

CASES = {
    "printing-n3": lambda: (chsh(), 3, strategy_fixture("printing", 3)),
    "lopsided-random": lambda: (lopsided(), 2,
                                random_strategy(lopsided(), 2, 3, 4)),
}


def _shot(name, **kwargs):
    g, n, s = CASES[name]()
    return SingleShotStrategy(ReductionConfig(game=g, n=n, strategy=s,
                                              C=(1,), **kwargs))


def _contexts(comp, i, seed):
    """Every (r, own question) of coordinate i for Alice and for Bob, with
    Bob's r drawn apart from Alice's."""
    g = comp.game
    size = comp.contexts(i).joint.shape[0]
    rng = np.random.default_rng(seed)
    r_a = np.repeat(np.arange(size), g.x_size * g.y_size)
    r_b = rng.permutation(r_a)
    x = np.tile(np.repeat(np.arange(g.x_size), g.y_size), size)
    y = np.tile(np.arange(g.y_size), size * g.x_size)
    return r_a, r_b, x, y


def _close_to(got, weight, want):
    """A stacked row against the oracle's (state, weight) pair."""
    state, want_w = want
    assert abs(weight - want_w) <= 1e-12
    if state is None:
        assert weight <= ZERO_WEIGHT and not got.any()
    else:
        assert np.abs(got - state).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(CASES))
def test_descriptions_match_the_per_context_oracle(name):
    comp = _shot(name).computer
    oracle = PerContext(comp)
    for i in comp.free:
        r_a, r_b, x, y = _contexts(comp, i, i)
        assert (r_a != r_b).any()
        alice, w_a = comp.description(i, "alice", r_a, x)
        bob, w_b = comp.description(i, "bob", r_b, y)
        for k in range(r_a.size):
            ra, rb, xk, yk = (int(v[k]) for v in (r_a, r_b, x, y))
            _close_to(alice[k], w_a[k],
                      oracle.state_variants(i, ra, xk, yk)["x"])
            _close_to(bob[k], w_b[k],
                      oracle.state_variants(i, rb, xk, yk)["y"])
        one = comp.description(i, "bob", int(r_b[0]), int(y[0]))
        assert np.array_equal(one[0], bob[0]) and one[1] == w_b[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_embezzle_block_aligns_each_player_to_their_own_description(
        name, monkeypatch):
    """One embezzle block forms three states (the reference and the two
    descriptions), and each player's isometry is built from their own
    description: Alice's at (r_a, x_i), Bob's at (r_b, y_i)."""
    shot = _shot(name, mode_quantum="embezzle", dprime=4)
    comp = shot.computer
    oracle = PerContext(comp)
    i = comp.free[0]
    law = shot.law(i, 1, 0)
    support = np.flatnonzero(law > depbreak.SUPPORT_MASS)
    r_a, r_b = support[:6], support[::-1][:6].copy()
    assert (r_a != r_b).any()
    x, y = np.ones(r_a.size, dtype=int), np.zeros(r_a.size, dtype=int)

    calls = {"dep_state": 0}
    seen = []

    def counted(*args):
        calls["dep_state"] += 1
        return dep_state(*args)

    def recorded(state, *args):
        seen.append(state)
        return qcs_isometry(state, *args)

    dep_state, qcs_isometry = depbreak.dep_state, reduction.qcs_isometry
    monkeypatch.setattr(depbreak, "dep_state", counted)
    monkeypatch.setattr(reduction, "qcs_isometry", recorded)
    _p, _err, valid = shot.context_wins(i, r_a, r_b, x, y)
    assert calls["dep_state"] == 3
    assert valid.all() and len(seen) == 2 * r_a.size
    for k in range(r_a.size):
        ra, rb = int(r_a[k]), int(r_b[k])
        assert np.abs(seen[2 * k] - oracle.state_variants(
            i, ra, 1, 0)["x"][0]).max() <= 1e-12
        assert np.abs(seen[2 * k + 1] - oracle.state_variants(
            i, rb, 1, 0)["y"][0]).max() <= 1e-12
