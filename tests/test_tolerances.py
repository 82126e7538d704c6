"""Every numerical cut is a named module constant, and each lands on its
documented side: a value at half the tolerance is accepted (or read as
zero), a value at twice it is refused (or kept).  README "Tolerances"
lists the cuts."""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repgames import (corrsamp, depbreak, infotheory, matcore, prob,
                      reduction, strategy)
from repgames.games import Game, chsh

SRC = Path(__file__).resolve().parent.parent / "src" / "repgames"


def tolerance_literals(path: Path) -> list:
    """(line, value) of every float literal with 0 < |v| < 1e-3 outside a
    module-level UPPER_CASE assignment."""
    tree = ast.parse(path.read_text())
    named = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if all(isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
                   for t in targets):
                named.update(id(sub) for sub in ast.walk(node))
    return [(sub.lineno, sub.value) for sub in ast.walk(tree)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float)
            and 0.0 < abs(sub.value) < 1e-3 and id(sub) not in named]


def test_no_tolerance_literal_outside_a_named_constant():
    found = [f"{path.name}:{line}: {value!r}"
             for path in sorted(SRC.glob("*.py"))
             for line, value in tolerance_literals(path)]
    assert found == []


def test_the_literal_guard_finds_a_literal_in_a_function(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("TOL = 1e-9\n_PRIVATE = -1e-12\nbig = 0.5\n"
                    "def f(x, tol=1e-6):\n    return x > 1e-12\n")
    assert tolerance_literals(path) == [(4, 1e-6), (5, 1e-12)]


def accepts(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return False
    return True


def _hermitian_dev(v):
    h = np.eye(2, dtype=complex)
    h[0, 1] = v
    return h


def _density_dev(v):
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = v
    return rho


def _povm(e0, e1):
    return strategy.POVMFamily(1, np.array([[e0, e1]], dtype=complex))


# (cut, tolerance, accepted(v) for a deviation v): half the tolerance must
# be accepted and twice it refused
REFUSALS = {
    "is_hermitian": (matcore.HERMITIAN_ATOL,
                     lambda v: matcore.is_hermitian(_hermitian_dev(v))),
    "eigh_desc hermitian": (matcore.HERMITIAN_ATOL,
                            lambda v: accepts(matcore.eigh_desc, _hermitian_dev(v))),
    "mat_sqrt hermitian": (matcore.HERMITIAN_ATOL,
                           lambda v: accepts(matcore.mat_sqrt, _hermitian_dev(v))),
    "density hermitian": (matcore.DENSITY_HERMITIAN_ATOL,
                          lambda v: accepts(matcore.check_density, _density_dev(v))),
    "density eigenvalue": (-matcore.PSD_EIG_FLOOR,
                           lambda v: accepts(matcore.check_density,
                                             np.diag([1.0 + v, -v]))),
    "mat_sqrt eigenvalue": (-matcore.PSD_EIG_FLOOR,
                            lambda v: accepts(matcore.mat_sqrt, np.diag([1.0, -v]))),
    "coarse eigenvalue": (-matcore.PSD_EIG_FLOOR,
                          lambda v: accepts(depbreak._coarse_support,
                                            np.diag([1.0, -v]))),
    "POVM eigenvalue": (-matcore.PSD_EIG_FLOOR,
                        lambda v: accepts(_povm, np.diag([1.0 + v, 1.0]),
                                          np.diag([-v, 0.0]))),
    "POVM completeness": (strategy.POVM_COMPLETENESS_ATOL,
                          lambda v: accepts(_povm, np.diag([1.0 + v, 1.0]),
                                            np.zeros((2, 2)))),
    "density trace": (matcore.TRACE_ATOL,
                      lambda v: accepts(matcore.check_density,
                                        np.diag([0.5 + v, 0.5]))),
    "check_pure norm": (matcore.NORM_ATOL,
                        lambda v: accepts(matcore.check_pure,
                                          np.array([1.0 + v, 0.0]))),
    "schmidt norm": (matcore.NORM_ATOL,
                     lambda v: accepts(matcore.schmidt,
                                       np.array([1.0 + v, 0.0, 0.0, 0.0]))),
    "qcs_isometry norm": (matcore.NORM_ATOL,
                          lambda v: accepts(corrsamp.qcs_isometry,
                                            np.array([1.0 + v, 0.0, 0.0, 0.0]), 4)),
    "table weight": (-prob.WEIGHT_FLOOR,
                     lambda v: accepts(prob.FiniteDistribution, ("x",),
                                       [1.0 + v, -v])),
    "game weight": (-prob.WEIGHT_FLOOR,
                    lambda v: accepts(Game, 1, 2, 1, 1, [[1.0 + v, -v]],
                                      np.ones((1, 2, 1, 1)))),
    "divergence weight": (-prob.WEIGHT_FLOOR,
                          lambda v: accepts(infotheory.classical_relative_entropy,
                                            [1.0 + v, -v], [0.5, 0.5])),
    "cq weight": (-prob.WEIGHT_FLOOR,
                  lambda v: accepts(infotheory.CQState, [1.0 + v, -v],
                                    np.stack([np.eye(2) / 2] * 2))),
    "table sum": (prob.SUM_ATOL,
                  lambda v: accepts(prob.FiniteDistribution, ("x",),
                                    [0.5 + v, 0.5])),
    "game sum": (prob.SUM_ATOL,
                 lambda v: accepts(Game, 1, 2, 1, 1, [[0.5 + v, 0.5]],
                                   np.ones((1, 2, 1, 1)))),
    "divergence sum": (prob.SUM_ATOL,
                       lambda v: accepts(infotheory.classical_relative_entropy,
                                         [0.5 + v, 0.5], [0.5, 0.5])),
    "cq sum": (prob.SUM_ATOL,
               lambda v: accepts(infotheory.CQState, [0.5 + v, 0.5],
                                 np.stack([np.eye(2) / 2] * 2))),
    "usefulness residual": (depbreak.CHECK_ATOL,
                            lambda v: depbreak.UsefulnessReport(
                                (), 1, 0, v, 0.0).ok()),
    "usefulness null mass": (depbreak.CHECK_ATOL,
                             lambda v: depbreak.UsefulnessReport(
                                 (), 1, 0, 0.0, v).ok()),
    "weight error": (depbreak.CHECK_ATOL,
                     lambda v: depbreak.WeightReport((), 1, v, 0.0).ok()),
    "weight sum error": (depbreak.CHECK_ATOL,
                         lambda v: depbreak.WeightReport((), 1, 0.0, v).ok()),
    "xi information bound": (depbreak.XI_SLACK,
                             lambda v: depbreak.XiRazReport(
                                 "alice", v, 0.0, 0.0, ()).ok()),
    "sampleability triangle": (depbreak.TRIANGLE_SLACK,
                               lambda v: depbreak.SampleabilityReport(
                                   (), 0.0, 0.0, 0.0, {}, 0.0, v).ok()),
    "main-bound margin": (reduction.COMPARE_SLACK,
                          lambda v: reduction.main_bound_compare(SimpleNamespace(
                              avg_p_tilde=0.5 - v, avg_p_ref=0.5,
                              error_budget=0.0))["pass_threshold"]),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_refusing_cut_accepts_half_and_refuses_twice_its_tolerance(name):
    tol, accepted = REFUSALS[name]
    assert accepted(tol / 2)
    assert not accepted(2 * tol)


def _leak(v):
    """D(rho || |0><0|) for rho with weight v off sigma's support."""
    return infotheory.relative_entropy(np.diag([1.0 - v, v]), np.diag([1.0, 0.0]))


def _small_support(v):
    """D(I/2 || sigma) for sigma with eigenvalue v next to 1 - v."""
    return infotheory.relative_entropy(np.eye(2) / 2, np.diag([1.0 - v, v]))


def _given(v):
    d = prob.FiniteDistribution(("x", "y"), [[1.0 - v, 0.0], [v, 0.0]])
    try:
        return d.given({"x": 1}).table[0]
    except prob.ZeroProbabilityEvent:
        return 0.0


def _degenerate_pair(v):
    """Whether singular values 1 and 1 - v are joined into one block."""
    u = np.eye(3, dtype=complex)[:, [1, 0, 2]]
    s = np.array([1.0, 1.0 - v, 0.5])
    out, _ = corrsamp._canonical_degenerate_blocks(u, s, u.conj().T)
    return not np.array_equal(out, u)


def _product_row(v):
    """tv of a law whose x = 1 row has mass v from mu times its kernel: 0.25
    when the row is cut, 0.5 - v when its kernel is kept."""
    won = np.array([[[1.0 - v], [v]]])
    return depbreak._product_distance(won, np.array([[0.5], [0.5]]), 1)


def _pivot_is_first(v):
    vec = np.array([v, np.sqrt(1.0 - v * v)], dtype=complex)[None, :, None]
    return matcore._pivots(vec)[0, 0] == v


def _refuses_w_c(fn) -> bool:
    """Whether fn() refuses because the held rounds are never all won."""
    try:
        fn()
    except prob.ZeroProbabilityEvent as exc:
        assert str(exc) == "holdout rounds are never all won"
        return True
    return False


def _held_won_table(v):
    """A context table whose one held-won context has mass v, P(W_C)."""
    return depbreak.ContextTable(("r",), (2,), 0,
                                 np.array([1.0 - v, v]).reshape(2, 1, 1, 1, 1),
                                 np.array([False, True]), v)


def _p_win_c(v):
    """chsh n=2, C=(1,) on the Tsirelson strategy, with P(W_C) set to v."""
    comp = depbreak.DepBreakComputer(chsh(), 2,
                                     strategy.strategy_fixture("tsirelson", 2),
                                     (1,))
    comp.p_win_c = v
    return comp


def _holdout_skipped(v):
    """Whether choose_C skips C=(0,) on a chsh n=2 table where round 1 is
    won with probability v and round 2 always."""
    names = ("x1", "y1", "a1", "b1", "x2", "y2", "a2", "b2")
    table = np.zeros((2,) * 8)
    table[0, 0, 0, 0, 0, 0, 0, 0] = v           # both rounds won
    table[0, 0, 0, 1, 0, 0, 0, 0] = 1.0 - v     # round 1 lost
    sel = depbreak.choose_C(prob.FiniteDistribution(names, table), chsh(), 2, 1)
    assert sel.C == (() if sel.skipped else (0,))
    return sel.skipped == 1


# (cut, tolerance, read_as_zero(v)): a value at half the tolerance must be
# read as zero and one at twice it kept
ZERO_CUTS = {
    "prob.ZERO_MASS": (prob.ZERO_MASS, lambda v: _given(v) == 0.0),
    "cq state weight": (prob.ZERO_MASS, lambda v: accepts(
        infotheory.CQState, [1.0 - v, v],
        np.stack([np.eye(2) / 2, np.diag([2.0, -1.0])]))),
    "support eigenvalue": (infotheory.SUPPORT_TOL,
                           lambda v: _small_support(v) == np.inf),
    "support leak": (infotheory.SUPPORT_TOL, lambda v: _leak(v) < np.inf),
    "min-entropy leak": (infotheory.SUPPORT_TOL,
                         lambda v: infotheory.relative_min_entropy(
                             np.diag([1.0 - v, v]), np.diag([1.0, 0.0])) < np.inf),
    "PHASE_ATOL": (matcore.PHASE_ATOL, lambda v: not _pivot_is_first(v)),
    "GRID_FLOOR": (corrsamp.GRID_FLOOR,
                   lambda v: corrsamp._grid_round(np.array([1.0, v]), 0.01)[1] == 0.0),
    "DEGENERATE_GAP": (corrsamp.DEGENERATE_GAP, _degenerate_pair),
    "ZERO_WEIGHT": (depbreak.ZERO_WEIGHT, lambda v: depbreak.dep_state(
        np.sqrt(v) * np.eye(2), np.eye(2), np.array([1.0, 0, 0, 0]))[0] is None),
    "SUPPORT_MASS": (depbreak.SUPPORT_MASS, lambda v: _product_row(v) < 0.3),
    "COARSE_SUPPORT": (depbreak.COARSE_SUPPORT, lambda v: not depbreak._coarse_support(
        np.diag([1.0, v]))[2][0]),
    # the one W_C cut: every held round is won with probability at most
    # ZERO_MASS, so no law conditions on it
    "held-won table": (prob.ZERO_MASS,
                       lambda v: _refuses_w_c(_held_won_table(v).law)),
    "context table P(W_C)": (
        prob.ZERO_MASS, lambda v: _refuses_w_c(_p_win_c(v).contexts(0).law)),
    "skew_report P(W_C)": (prob.ZERO_MASS,
                           lambda v: _refuses_w_c(_p_win_c(v).skew_report)),
    "xi_raz_check P(W_C)": (prob.ZERO_MASS,
                            lambda v: _refuses_w_c(_p_win_c(v).xi_raz_check)),
    "choose_C P(W_C)": (prob.ZERO_MASS, _holdout_skipped),
}


@pytest.mark.parametrize("name", list(ZERO_CUTS))
def test_a_zero_cut_drops_half_and_keeps_twice_its_tolerance(name):
    tol, read_as_zero = ZERO_CUTS[name]
    assert read_as_zero(tol / 2)
    assert not read_as_zero(2 * tol)
