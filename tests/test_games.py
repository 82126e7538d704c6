import numpy as np
import pytest

from repgames.games import (Game, always_win, asym3, chsh, fixture,
                            load_game, save_game, win_set)
from repgames.prob import SUM_ATOL, FiniteDistribution
from repgames.strategy import born_joint, strategy_fixture
from _helpers import (answer_bits, enumerate_tuples, event_from_assignment,
                      intersect, mu_dist, random_strategy)


def test_chsh_definition():
    g = chsh()
    assert (g.x_size, g.y_size, g.a_size, g.b_size) == (2, 2, 2, 2)
    assert np.allclose(g.mu, 0.25)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    assert g.predicate[x, y, a, b] == ((a ^ b) == (x & y))


def test_validate_fixtures():
    for name in ("chsh", "always_win", "asym3"):
        g = fixture(name)
        assert g.mu.min() >= 0.0 and abs(g.mu.sum() - 1.0) <= SUM_ATOL


def test_validate_catches_bad_mu():
    g = chsh()
    with pytest.raises(ValueError, match="mu sums to 2.0"):
        Game(2, 2, 2, 2, np.array([[0.5, 0.5], [0.5, 0.5]]), g.predicate)


@pytest.mark.parametrize("sizes,mu,message", [
    ((2, 2, 2, 2), [[np.nan, 0.5], [0.25, 0.25]], "NaN or infinite"),
    ((2, 2, 2, 2), [[1.5, -0.5], [0.0, 0.0]], "negative weight"),
    ((2, 0, 2, 2), np.zeros((2, 0)), "sizes must be positive"),
], ids=["nan", "negative", "empty"])
def test_a_game_refuses_invalid_mu_when_it_is_built(sizes, mu, message):
    """Values, seesaw and Born tables never see a mu that is not a
    distribution: the constructor refuses it (a mu summing to 2:
    `test_validate_catches_bad_mu`)."""
    with pytest.raises(ValueError, match=message):
        Game(*sizes, mu, np.ones(sizes, dtype=bool))


def test_a_game_clips_a_rounding_negative_weight_as_tables_do():
    """A weight between WEIGHT_FLOOR and 0 is rounding: the game keeps 0,
    as `FiniteDistribution` does, so every reader of mu sees one law."""
    mu = [[1.0 + 5e-13, -5e-13]]
    g = Game(1, 2, 1, 1, mu, np.ones((1, 2, 1, 1), dtype=bool))
    assert g.mu[0, 1] == 0.0 and g.mu[0, 0] == 1.0 + 5e-13
    assert np.array_equal(g.mu, FiniteDistribution(("x", "y"), mu).table)


def test_fixture_unknown_name():
    with pytest.raises(ValueError):
        fixture("nope")


def test_answer_bits():
    assert abs(answer_bits(chsh()) - 2.0) < 1e-12
    assert abs(answer_bits(asym3()) - np.log2(asym3().a_size
                                             * asym3().b_size)) < 1e-12


def test_mu_dist_product_structure():
    g = chsh()
    d = mu_dist(g, 2)
    assert d.names == ("x1", "x2", "y1", "y2")
    assert np.allclose(d.table, 1.0 / 16.0)
    g3 = asym3()
    d3 = mu_dist(g3, 2)
    ev = event_from_assignment(
        {"x1": 0, "y1": 1, "x2": 2, "y2": 0},
        {n: (g3.x_size if n.startswith("x") else g3.y_size)
         for n in d3.names})
    assert abs(d3.prob(ev) - g3.mu[0, 1] * g3.mu[2, 0]) < 1e-12


def test_enumerate_tuples_counts_questions():
    g = chsh()
    tuples = list(enumerate_tuples(g, 2))
    assert len(tuples) == (2 * 2) ** 2
    assert abs(sum(w for _x, _y, w in tuples) - 1.0) < 1e-12


def test_born_joint_question_marginal_is_mu_power():
    # the Born table's question law against the two product oracles
    for g, s in ((chsh(), strategy_fixture("printing", 2)),
                 (asym3(), random_strategy(asym3(), 2, 2, 5))):
        joint = born_joint(g, 2, s)
        q = joint.marginal(("x1", "x2", "y1", "y2"))
        assert np.abs(q.table - mu_dist(g, 2).table).max() < 1e-15
        for xt, yt, w in enumerate_tuples(g, 2):
            assert abs(q.table[xt + yt] - w) < 1e-15


def test_win_set_single_round():
    g = chsh()
    ev = win_set(g, 1, (0,))
    assert set(ev.names) == {"x1", "y1", "a1", "b1"}
    # mask must equal the predicate itself on the matching axes
    mask = np.transpose(ev.mask, [ev.names.index(n)
                                  for n in ("x1", "y1", "a1", "b1")])
    assert np.array_equal(mask, np.asarray(g.predicate, dtype=bool))


def test_win_set_multiple_rounds_is_conjunction():
    g = chsh()
    ev01 = win_set(g, 2, (0, 1))
    ev0 = win_set(g, 2, (0,))
    ev1 = win_set(g, 2, (1,))
    both = intersect(ev0, ev1)
    order = [both.names.index(n) for n in ev01.names]
    assert np.array_equal(np.transpose(both.mask, order), ev01.mask)


def test_win_set_coordinates_are_zero_based():
    g = chsh()
    ev = win_set(g, 3, (2,))
    assert "x3" in ev.names
    with pytest.raises(ValueError):
        win_set(g, 3, (3,))
    with pytest.raises(ValueError):
        win_set(g, 3, (-1,))


def test_win_set_empty_is_certain():
    ev = win_set(chsh(), 2, ())
    assert ev.names == ()
    assert bool(np.asarray(ev.mask))


def test_win_set_cell_count_matches_predicate_sum():
    g = chsh()
    ev = win_set(g, 1, (0,))
    assert int(ev.mask.sum()) == 8
    assert int(ev.mask.sum()) == int(np.asarray(g.predicate).sum())


def test_win_set_two_round_cell_count():
    # both rounds must win, so the count is the single-round count squared
    ev = win_set(chsh(), 2, (0, 1))
    assert int(ev.mask.sum()) == 8 * 8


def test_win_set_is_kind_major_in_the_born_tables_order():
    ev = win_set(chsh(), 3, (2, 0))
    assert ev.names == ("x1", "x3", "y1", "y3", "a1", "a3", "b1", "b3")
    v = chsh().predicate
    assert np.array_equal(ev.mask, np.einsum("ikmo,jlnp->ijklmnop", v, v))


def test_win_set_lays_out_unequal_alphabets_by_kind():
    """X, Y, A and B all differ, so no two kinds can trade places."""
    rng = np.random.default_rng(3)
    mu = rng.random((2, 3))
    g = Game(2, 3, 4, 5, mu / mu.sum(), rng.random((2, 3, 4, 5)) < 0.5)
    ev = win_set(g, 2, (0, 1))
    assert ev.sizes == (2, 2, 3, 3, 4, 4, 5, 5)
    v = g.predicate
    assert np.array_equal(ev.mask, np.einsum("ikmo,jlnp->ijklmnop", v, v))
    born = born_joint(g, 2, random_strategy(g, 2, 2, 0))
    assert (ev.names, ev.sizes) == (born.names, born.sizes)


def test_save_load_roundtrip(tmp_path):
    g = asym3()
    path = tmp_path / "game.txt"
    save_game(g, path)
    g2 = load_game(path)
    assert (g2.x_size, g2.y_size, g2.a_size, g2.b_size) == (
        g.x_size, g.y_size, g.a_size, g.b_size)
    assert np.allclose(g2.mu, g.mu)
    assert np.array_equal(g2.predicate, g.predicate)


def test_game_arrays_frozen():
    g = chsh()
    with pytest.raises(ValueError):
        g.mu[0, 0] = 1.0


def test_always_win_predicate():
    g = always_win()
    assert np.all(g.predicate)


def _write_game(path, mu, x_size=2, y_size=2):
    pred = " ".join("1" for _ in range(x_size * y_size * 4))
    path.write_text(f"x_size {x_size}\ny_size {y_size}\na_size 2\nb_size 2\n"
                    f"mu {mu}\npredicate {pred}\n")
    return path


@pytest.mark.parametrize("mu,message", [
    ("1.5 -0.5 0 0", "mu has negative weight"),
    ("0.5 0.5 0.5 0.5", "mu sums to 2.0"),
    ("nan 0.5 0.25 0.25", "mu has NaN or infinite weights"),
    ("1/0 0 0 0", "divides by zero"),
])
def test_load_game_refuses_invalid_mu(tmp_path, mu, message):
    with pytest.raises(ValueError, match=message):
        load_game(_write_game(tmp_path / "game.txt", mu))


def test_load_game_keeps_warnings_as_warnings(tmp_path):
    # question x=1 never asked: allowed, not an error
    g = load_game(_write_game(tmp_path / "game.txt", "1/2 1/2 0 0"))
    assert g.mu[1].sum() == 0.0


@pytest.mark.parametrize("name", ["chsh", "always_win", "asym3"])
def test_builtin_games_load_back(tmp_path, name):
    path = tmp_path / f"{name}.txt"
    save_game(fixture(name), path)
    assert np.array_equal(load_game(path).predicate, fixture(name).predicate)
