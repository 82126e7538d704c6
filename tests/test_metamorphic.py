"""Metamorphic relations: every exact number of the dependency-breaking
checks and of the exact oracle-state reduction stays put, within 1e-12,
when a case is written differently (`_metamorphic`): under local
unitaries, under the player swap with Alice's and Bob's numbers
exchanged, and under a round permutation with the per-coordinate numbers
moved along.  The relations need no reference computation, so they also
catch a fault that the package and its oracles would share.  The embezzle
modes are left out: their p-tilde depends on the local frame.
"""

import pytest

from _helpers import lopsided, random_strategy
from _metamorphic import (Case, exact_numbers, largest_gap, local_unitaries,
                          permutation_rename, player_swap, round_permutation,
                          swap_rename)
from repgames.games import asym3, chsh
from repgames.strategy import strategy_fixture

TOL = 1e-12


def _fixture(name, n):
    return Case(chsh(), n, strategy_fixture(name, n), (1,))


def _random(game, seed):
    g = game()
    return Case(g, 2, random_strategy(g, 2, 3, seed), (1,))


CASES = {
    "printing-n3": (lambda: _fixture("printing", 3), (2, 0, 1)),
    "tsirelson-n2": (lambda: _fixture("tsirelson", 2), (1, 0)),
    "chsh-random": (lambda: _random(chsh, 0), (1, 0)),
    "asym3-random": (lambda: _random(asym3, 1), (1, 0)),
    "lopsided-random": (lambda: _random(lopsided, 2), (1, 0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_numbers_are_invariant_under_the_three_transforms(name):
    make, perm = CASES[name]
    case = make()
    base = exact_numbers(case)
    gaps = {
        "local unitaries": largest_gap(
            base, exact_numbers(local_unitaries(case, 7)), lambda k: k),
        "player swap": largest_gap(
            base, exact_numbers(player_swap(case)), swap_rename),
        "round permutation": largest_gap(
            base, exact_numbers(round_permutation(case, perm)),
            permutation_rename(perm)),
    }
    assert max(gaps.values()) <= TOL, gaps


def test_the_transforms_move_what_they_should():
    """The relations are not vacuous: on the lopsided case the swap
    exchanges numbers that differ, and the permutation moves the holdout
    and the per-coordinate records with their round."""
    case = _random(lopsided, 2)
    base = exact_numbers(case)
    assert abs(base["d_alice"] - base["d_bob"]) > 1e-3
    assert abs(base["xi_alice"] - base["xi_bob"]) > 1e-3
    assert abs(base["avg2"] - base["avg3"]) > 1e-3
    swapped = player_swap(case)
    assert (swapped.game.x_size, swapped.game.a_size) == (3, 2)
    moved = round_permutation(case, (1, 0))
    assert moved.C == (0,)
    assert ("p_tilde", 1) in exact_numbers(moved)
