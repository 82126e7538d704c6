"""Context tables, question table and P(win C) contracted from the Born
table, against the extended-table path they replaced.

`DepBreakComputer` never builds the extended table: these tests compare
every table, law, report and exact reduction payload with
`ExtendedTableComputer`, which reads them off that table, check that no
walk calls `extended_joint`, and check the new tables' size refusals, the
n=4, C=() runs the extended table could not reach, and the memory of an
exact reduction.
"""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from repgames import cli, depbreak, reduction
from repgames.depbreak import DepBreakComputer
from repgames.games import Game, chsh, fixture, save_game
from repgames.reduction import ReductionConfig, run_reduction
from repgames.strategy import save_strategy, strategy_fixture
from _depbreak_oracle import ExtendedTableComputer, skew_distances
from _helpers import random_strategy

TSIRELSON = math.cos(math.pi / 8) ** 2

# asym3 at n=3 with C=() is left out: its extended table would need
# 10 077 696 cells, above the entry cap, so there is no reference
CASES = [(game, n, C)
         for game in ("chsh", "asym3")
         for n, holdouts in ((2, ((), (0,), (1,))),
                             (3, ((), (0,), (1,), (0, 1))))
         for C in holdouts
         if (game, n, C) != ("asym3", 3, ())]


def case_id(case):
    game, n, C = case
    return f"{game}-n{n}-C{''.join(map(str, C)) or 'none'}"


@functools.lru_cache(maxsize=None)
def computers(game, n, C):
    """(contracted, extended-table) computers on one seeded random
    strategy, d=2, whose shared state is not maximally entangled."""
    g = fixture(game)
    s = random_strategy(g, n, 2, 1300 + 10 * n + len(C) + sum(C))
    return (DepBreakComputer(g, n, s, C), ExtendedTableComputer(g, n, s, C),
            s)


def assert_close(got, want, what, tol=1e-12):
    """Numbers within tol, everything else equal, through dicts, lists,
    tuples and dataclass-like reports."""
    if isinstance(got, dict):
        assert got.keys() == want.keys(), what
        for k in got:
            assert_close(got[k], want[k], f"{what}.{k}", tol)
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want), what
        for k, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{what}[{k}]", tol)
    elif hasattr(got, "__dataclass_fields__"):
        assert_close(vars(got), vars(want), what, tol)
    elif isinstance(got, (bool, str, type(None))) or isinstance(
            want, (bool, str, type(None))):
        assert got == want, what
    elif isinstance(got, (int, np.integer)) and isinstance(
            want, (int, np.integer)):
        assert got == want, what
    else:
        assert abs(float(got) - float(want)) <= tol, (what, got, want)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_tables_and_laws_match_the_extended_table_path(case):
    comp, ref, _s = computers(*case)
    g = comp.game
    assert comp.qext.names == ref.qext.names
    assert np.abs(comp.qext.table - ref.qext.table).max() <= 1e-12
    assert abs(comp.p_win_c - ref.p_win_c) <= 1e-12
    for i in comp.free:
        got, want = comp.contexts(i), ref.contexts(i)
        assert (got.names, got.sizes, got.held) == (want.names, want.sizes,
                                                    want.held)
        assert np.array_equal(got.held_won, want.held_won)
        assert got.joint.shape == want.joint.shape
        assert np.abs(got.joint - want.joint).max() <= 1e-12
        # the reference win off the Born table is the law given W_C's
        p_ref = comp.win_given_held(i)
        assert abs(p_ref - ref.win_given_held(i)) <= 1e-12
        assert abs(p_ref - float((got.given_won * g.predicate).sum())) <= 1e-15
        evidence = [(None, None)] + [(x, None) for x in range(g.x_size)] + [
            (None, y) for y in range(g.y_size)] + [
            (x, y) for x in range(g.x_size) for y in range(g.y_size)]
        for x, y in evidence:
            law, law_ref = got.law(x, y), want.law(x, y)
            assert (law is None) == (law_ref is None), (i, x, y)
            if law is not None:
                assert np.abs(law - law_ref).max() <= 1e-12, (i, x, y)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reports_match_the_extended_table_path(case):
    comp, ref, _s = computers(*case)
    assert_close(comp.usefulness_check(), ref.usefulness_check(),
                 "usefulness")
    assert_close(comp.weight_check(), ref.weight_check(), "weights")
    assert_close(comp.sampleability_distances(),
                 ref.sampleability_distances(), "sampleability")
    for side in ("alice", "bob"):
        assert_close(comp.xi_raz_check(side), ref.xi_raz_check(side),
                     f"xi {side}")
    assert_close(comp.skew_report(),
                 skew_distances(ref.ext, comp.game, comp.n, comp.C), "skew")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_exact_reduction_payload_matches_the_extended_table_path(
        case, monkeypatch):
    game, n, C = case
    cfg = ReductionConfig(game=fixture(game), n=n,
                          strategy=computers(*case)[2], C=C)
    got = run_reduction(cfg)
    monkeypatch.setattr(reduction, "DepBreakComputer", ExtendedTableComputer)
    want = run_reduction(cfg)
    assert_close(got, want, "payload")


@pytest.mark.parametrize("game", ["chsh", "asym3"])
@pytest.mark.parametrize("C", [(0,), (1,), (0, 1)])
def test_skew_report_matches_the_extended_table_oracle(game, C):
    comp, _ref, _s = computers(game, 3, C)
    got = comp.skew_report()
    want = skew_distances(comp.ext, comp.game, 3, C)
    assert_close(got, want, "skew")
    assert got.free == tuple(want.free)


def test_no_walk_builds_the_extended_table(monkeypatch, tmp_path):
    calls = []
    real = depbreak.extended_joint

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(depbreak, "extended_joint", counted)
    g, s = chsh(), strategy_fixture("printing", 2)
    for mode in ({}, {"mode_classical": "holenstein"},
                 {"mode_classical": "holenstein", "mode_quantum": "embezzle",
                  "dprime": 16}):
        run_reduction(ReductionConfig(game=g, n=2, strategy=s, C=(1,),
                                      trials=100, **mode))
    for suite in ("usefulness", "skew", "xi", "sampleability"):
        assert cli.main(["verify", "--suite", suite, "--strategy", "printing",
                         "--n", "2", "--C", "2",
                         "--out", str(tmp_path / suite)]) == 0
    assert calls == []
    # the reference table is built on its first read, and only once
    comp = DepBreakComputer(g, 2, s, (1,))
    assert comp.ext is comp.ext and len(calls) == 1


def six_question_game():
    """Six questions and two answers a side: at n=3 the Born table has
    2 985 984 cells, but questions and pointers take 36^3 * 12^3."""
    return Game(6, 6, 2, 2, np.full((6, 6), 1.0 / 36.0),
                np.ones((6, 6, 2, 2), dtype=bool), name="six")


QUESTION_REFUSAL = ("question table would need 80621568 cells, above the "
                    "10000000 entry cap")


def test_question_table_is_refused_before_it_is_allocated(monkeypatch):
    g = six_question_game()
    s = random_strategy(g, 3, 1, 0)

    def no_born_table(*_args):
        raise AssertionError("the Born table was built before the refusal")

    monkeypatch.setattr(depbreak, "born_joint", no_born_table)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{QUESTION_REFUSAL}$"):
            DepBreakComputer(g, 3, s, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_context_table_is_refused_before_it_is_allocated(monkeypatch):
    # the question table has 64 cells and the context table 256
    monkeypatch.setattr(depbreak, "MAX_TABLE_ENTRIES", 100)
    comp = DepBreakComputer(chsh(), 2, strategy_fixture("printing", 2), (1,))
    with pytest.raises(ValueError, match=(
            "^context table of coordinate 0 would need 256 cells, above "
            "the 100 entry cap$")):
        comp.contexts(0)


def test_cli_refuses_oversized_tables_in_one_line(monkeypatch, tmp_path,
                                                  capsys):
    g = six_question_game()
    save_game(g, tmp_path / "six.game")
    save_strategy(random_strategy(g, 3, 1, 0), tmp_path / "six.strategy")
    assert cli.main(["run", "reduction", "--game", str(tmp_path / "six.game"),
                     "--strategy", str(tmp_path / "six.strategy"),
                     "--n", "3", "--C", ""]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {QUESTION_REFUSAL}\n"
    monkeypatch.setattr(depbreak, "MAX_TABLE_ENTRIES", 100)
    assert cli.main(["verify", "--suite", "usefulness", "--strategy",
                     "printing", "--n", "2", "--C", "2"]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: context table of coordinate 0 would need "
                   "256 cells, above the 100 entry cap\n")


def test_cli_exact_reduction_at_n4_without_holdout(tmp_path):
    out = tmp_path / "tsirelson-n4"
    assert cli.main(["run", "reduction", "--game", "chsh", "--strategy",
                     "tsirelson", "--n", "4", "--C", "",
                     "--out", str(out)]) == 0
    rows = json.loads(out.with_suffix(".json").read_text())["per_coord"]
    assert [row["coord"] for row in rows] == [0, 1, 2, 3]
    for row in rows:
        assert abs(row["p_tilde"] - TSIRELSON) <= 1e-12
        assert abs(row["p_ref"] - TSIRELSON) <= 1e-12


def test_exact_printing_reduction_at_n4_without_holdout():
    rep = run_reduction(ReductionConfig(
        game=chsh(), n=4, strategy=strategy_fixture("printing", 4), C=()))
    assert rep.invalid_contexts == 0
    assert rep.max_context_crosscheck <= 1e-12


@pytest.mark.parametrize("suite", ["usefulness", "skew", "xi",
                                   "sampleability"])
def test_cli_verify_suites_at_n4_without_holdout(suite, tmp_path):
    assert cli.main(["verify", "--suite", suite, "--n", "4", "--C", "",
                     "--out", str(tmp_path / suite)]) == 0


def test_exact_reduction_peak_memory_is_below_the_extended_table():
    """printing n=4, C=(0,): the extended table alone is 4 194 304 cells,
    32 MiB; the whole exact reduction stays below that."""
    cfg = ReductionConfig(game=chsh(), n=4,
                          strategy=strategy_fixture("printing", 4), C=(0,))
    tracemalloc.start()
    try:
        rep = run_reduction(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.max_context_crosscheck <= 1e-12
    assert peak < 32 * 2 ** 20


def test_operators_make_one_svd_per_side(monkeypatch):
    """The fine POVMs are conjugated by the unitary `aligned_operators`
    returns, so a coordinate's operators make one SVD per side: the polar
    factor of the aligned stack."""
    comp = DepBreakComputer(chsh(), 3, strategy_fixture("printing", 3), (1,))
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    comp.operators(0)
    assert len(calls) == 2
