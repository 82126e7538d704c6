import numpy as np
import pytest

from repgames.prob import FiniteDistribution, ZeroProbabilityEvent
from _helpers import condition, event_from_assignment, intersect, tv_distance


def make_pair():
    # joint law of a biased bit x and a noisy copy y
    table = np.array([[0.42, 0.18], [0.08, 0.32]])
    return FiniteDistribution(("x", "y"), table)


def test_table_must_normalize():
    with pytest.raises(ValueError):
        FiniteDistribution(("x",), np.array([0.5, 0.4]))
    d = FiniteDistribution(("x",), np.array([0.5, 0.4]), normalize=True)
    assert abs(d.table.sum() - 1.0) < 1e-12


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        FiniteDistribution(("x", "x"), np.full((2, 2), 0.25))


def test_marginal_sums_axes():
    d = make_pair()
    mx = d.marginal(("x",))
    assert np.allclose(mx.table, [0.6, 0.4])
    my = d.marginal(("y",))
    assert np.allclose(my.table, [0.5, 0.5])


def test_prob_of_assignment_event():
    d = make_pair()
    ev = event_from_assignment({"x": 0, "y": 1}, {"x": 2, "y": 2})
    assert abs(d.prob(ev) - 0.18) < 1e-12


def test_condition_renormalizes():
    d = make_pair()
    ev = event_from_assignment({"x": 1}, {"x": 2})
    c = condition(d, ev)
    assert abs(c.table.sum() - 1.0) < 1e-12
    assert np.allclose(c.marginal(("y",)).table, [0.2, 0.8])


def test_given_drops_fixed_variables():
    d = make_pair()
    c = d.given({"x": 0})
    assert c.names == ("y",)
    assert np.allclose(c.table, [0.7, 0.3])


def test_zero_probability_event_raises():
    d = FiniteDistribution(("x", "y"), np.array([[0.5, 0.0], [0.5, 0.0]]))
    with pytest.raises(ZeroProbabilityEvent):
        d.given({"y": 1})


def test_event_intersect():
    sizes = {"x": 2, "y": 2}
    e1 = event_from_assignment({"x": 0}, sizes)
    e2 = event_from_assignment({"y": 1}, sizes)
    both = intersect(e1, e2)
    d = make_pair()
    assert abs(d.prob(both) - 0.18) < 1e-12


def test_reordered_permutes_axes():
    d = make_pair()
    r = d.reordered(("y", "x"))
    assert r.names == ("y", "x")
    assert np.allclose(r.table, d.table.T)
    ev = event_from_assignment({"x": 0, "y": 1}, {"x": 2, "y": 2})
    assert abs(r.prob(ev) - d.prob(ev)) < 1e-15


def test_tv_distance_basic():
    p = FiniteDistribution(("x",), np.array([1.0, 0.0]))
    q = FiniteDistribution(("x",), np.array([0.0, 1.0]))
    assert abs(tv_distance(p, q) - 1.0) < 1e-12
    assert tv_distance(p, p) < 1e-15


def test_tv_distance_ignores_axis_order():
    d = make_pair()
    r = d.reordered(("y", "x"))
    assert tv_distance(d, r) < 1e-15


def test_sizes_and_axis_lookup():
    d = make_pair()
    assert d.axis("y") == 1
    assert d.size_of("x") == 2
    with pytest.raises(ValueError):
        d.axis("z")


def test_construction_copies_clips_and_normalizes():
    raw = np.array([[0.5, -1e-13], [0.25, 0.75]])
    before = raw.copy()
    dist = FiniteDistribution(("a", "b"), raw, normalize=True)
    want = np.clip(before, 0.0, None)
    assert np.array_equal(dist.table, want / want.sum())
    assert np.array_equal(raw, before)        # the caller's array is untouched
    assert not np.shares_memory(dist.table, raw)
