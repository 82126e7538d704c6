"""The operator stacks and the walks do not depend on the block size.

`DepBreakComputer` builds each operator stack, and each walk gathers from
it, in blocks of at most `depbreak.CHUNK_ENTRIES` d x d entries.  At a
budget that gives one-context blocks, at one that gives ragged blocks of
seven contexts and at the default, every stack equals one whole-stack
`aligned_operators` / `fine_povm` call bit for bit, and the usefulness,
weight and `context_wins` results are equal; sampleability sums per block,
so it may move by rounding.  The usefulness walk of a d = 16 coordinate
peaks near the bytes of the stacks it keeps.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from repgames import depbreak
from repgames.depbreak import (ALICE, BOB, DepBreakComputer,
                               aligned_operators, conditioned_contexts,
                               d_name, fine_povm, m_name, x_names_at,
                               y_names_at)
from repgames.games import chsh
from repgames.reduction import ReductionConfig, SingleShotStrategy
from repgames.strategy import strategy_fixture

CASES = (("printing", 4, (0, 1)), ("printing", 3, (1,)),
         ("tsirelson", 3, ()), ("printing", 2, (1,)))
# budgets in d x d entries, as functions of d
BUDGETS = {"one context": lambda d: 1, "seven contexts": lambda d: 7 * d * d,
           "default": lambda d: depbreak.CHUNK_ENTRIES}


@functools.lru_cache(maxsize=None)
def _born_computer(name, n, C):
    return DepBreakComputer(chsh(), n, strategy_fixture(name, n), C)


def _computer(name, n, C):
    """A shared computer of the case with no operator stack built yet."""
    comp = _born_computer(name, n, C)
    for i in comp.free:
        comp.release(i)
    return comp


def _whole_side(comp, side, i):
    """(own, fine) of one side from one kernel call each on the whole
    stack, flat over contexts."""
    own_q, k = ((x_names_at(i), comp.game.a_size) if side == "alice"
                else (y_names_at(i), comp.game.b_size))
    law, _ = comp._question_law(side, comp.omega_names(i) + (own_q,))
    fine = depbreak._contract(law, comp._op_tensor(
        side, comp.C + (i,))).reshape(-1, k, comp.d, comp.d)
    return fine_povm(fine, comp.rho)


def _whole_via(comp, side, i):
    """The via factors of one side from one `aligned_operators` call."""
    omega = comp.omega_names(i)
    n_omega = math.prod(comp._sizes[nm] for nm in omega)
    other = BOB if side == "alice" else ALICE
    law, _ = comp._question_law(side, omega + (d_name(i), m_name(i)))
    law = law.reshape(n_omega, 2, comp._sizes[m_name(i)], -1)[:, other]
    coarse = depbreak._contract(law.reshape(-1, law.shape[-1]),
                                comp._op_tensor(side, comp.C))
    return aligned_operators(coarse.reshape(-1, comp.d, comp.d),
                             comp.rho)[0]


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}{c[1]}{c[2]}")
def test_blocked_stacks_equal_one_whole_stack_call(monkeypatch, case, budget):
    comp = _computer(*case)
    monkeypatch.setattr(depbreak, "CHUNK_ENTRIES", BUDGETS[budget](comp.d))
    for i in comp.free:
        ops, via = comp.operators(i), comp.via_factors(i)
        for side in ("alice", "bob"):
            own, fine = _whole_side(comp, side, i)
            assert np.array_equal(ops[side].own.reshape(own.shape), own)
            assert np.array_equal(ops[side].fine.reshape(fine.shape), fine)
            want = _whole_via(comp, side, i)
            assert np.array_equal(via[side].reshape(want.shape), want)
        comp.release(i)


def _walks(comp):
    """Every walk's results on comp, with context_wins on each coordinate's
    conditioned contexts, Bob reading the contexts in reverse order."""
    shot = SingleShotStrategy(ReductionConfig(
        game=comp.game, n=comp.n, strategy=comp.strategy, C=comp.C))
    shot.computer = comp
    wins = []
    for i in comp.free:
        r, x, y, *_rest = conditioned_contexts(comp.game, comp.contexts(i))
        wins.append(shot.context_wins(i, r, r[::-1].copy(), x, y))
    return (comp.usefulness_check(), comp.weight_check(),
            comp.sampleability_distances(), wins)


@pytest.mark.parametrize("case", CASES[1:],
                         ids=lambda c: f"{c[0]}{c[1]}{c[2]}")
def test_walks_agree_across_block_budgets(monkeypatch, case):
    results = {}
    for budget, entries in BUDGETS.items():
        comp = _computer(*case)
        monkeypatch.setattr(depbreak, "CHUNK_ENTRIES", entries(comp.d))
        results[budget] = _walks(comp)
    use, wts, samp, wins = results.pop("default")
    assert use.contexts > 0 and wts.contexts > 0
    for other_use, other_wts, other_samp, other_wins in results.values():
        assert other_use == use and other_wts == wts
        for got, want in zip(other_wins, wins):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        for i in samp.coords:
            assert np.abs(np.subtract(other_samp.per_coord[i],
                                      samp.per_coord[i])).max() <= 1e-15
        for field in ("d_alice", "d_bob", "d_cross", "skipped_mass",
                      "max_triangle_slack"):
            assert abs(getattr(other_samp, field)
                       - getattr(samp, field)) <= 1e-15


def test_usefulness_peak_stays_near_the_stacks_it_keeps():
    """Printing n=4, C=(0,1), d = 16: with the context table built, the
    traced peak of the usefulness walk at coordinate 2, which builds and
    keeps both sides' stacks, stays within 1.6 times their bytes (whole-stack
    kernel calls peaked at 2.6 times)."""
    comp = DepBreakComputer(chsh(), 4, strategy_fixture("printing", 4),
                            (0, 1))
    comp.contexts(2)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        comp.usefulness_check(coords=(2,))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    kept = sum(side.own.nbytes + side.fine.nbytes
               for side in comp.operators(2).values())
    assert kept == 16 * 2 ** 20
    assert peak <= 1.6 * kept, peak / kept
