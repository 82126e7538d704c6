"""Context tables contracted from the Born table, question laws formed
round by round and P(win C), against the extended-table path they replaced.

`DepBreakComputer` never builds the extended table: these tests compare
every table, law, report and exact reduction payload with
`ExtendedTableComputer`, which reads them off that table, check that no
walk calls `extended_joint`, and check the size refusals of the context
tables and question laws, the runs the extended table or a whole question
table could not reach, and the memory of an exact reduction and of the
constructor.
"""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from repgames import cli, depbreak, matcore, reduction
from repgames.depbreak import (DepBreakComputer, d_name, m_name, x_names_at,
                               y_names_at)
from repgames.games import Game, asym3, chsh, save_game
from repgames.reduction import ReductionConfig, run_reduction
from repgames.strategy import (EntangledStrategy, POVMFamily, save_strategy,
                               strategy_fixture)
from _depbreak_oracle import ExtendedTableComputer, skew_distances
from _helpers import lopsided, random_strategy

TSIRELSON = math.cos(math.pi / 8) ** 2

GAMES = {"chsh": chsh, "asym3": asym3, "lopsided": lopsided}

# asym3 at n=3 with C=() is left out: its extended table would need
# 10 077 696 cells, above the entry cap, so there is no reference.
# lopsided (X=2, Y=3, A=3, B=2) shows an x/y or a/b swap in a layout that
# the square chsh and asym3 hide; at n=3, C=(0, 1) its extended table has
# 279 936 cells
CASES = [(game, n, C)
         for game in ("chsh", "asym3")
         for n, holdouts in ((2, ((), (0,), (1,))),
                             (3, ((), (0,), (1,), (0, 1))))
         for C in holdouts
         if (game, n, C) != ("asym3", 3, ())] + [("lopsided", 3, (0, 1))]


def case_id(case):
    game, n, C = case
    return f"{game}-n{n}-C{''.join(map(str, C)) or 'none'}"


@functools.lru_cache(maxsize=None)
def computers(game, n, C):
    """(contracted, extended-table) computers on one seeded random
    strategy, d=2, whose shared state is not maximally entangled."""
    g = GAMES[game]()
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


def assert_question_laws_match(comp, ref, tol):
    """Every evidence tuple the walks condition a side's questions on (the
    own question of round i, round i's pointer, and xi's whole omega):
    the product law and its mass against the extended-table law."""
    for side, own in (("alice", x_names_at), ("bob", y_names_at)):
        evidence = [comp.omega_names(None)] + [
            comp.omega_names(i) + extra for i in comp.free
            for extra in ((own(i),), (d_name(i), m_name(i)))]
        for names in evidence:
            law, mass = comp._question_law(side, names)
            law_ref, mass_ref = ref._question_law(side, names)
            assert law.shape == law_ref.shape, (side, names)
            assert np.abs(law - law_ref).max() <= tol, (side, names)
            assert np.abs(mass - mass_ref).max() <= tol, (side, names)


@pytest.mark.parametrize("C", [(), (0,), (1,), (0, 1)])
def test_chsh_question_laws_equal_the_extended_table_path(C):
    """A deterministic strategy's Born table holds mu^(x)n exactly, and on
    chsh every weight is dyadic: the two laws are equal, bit for bit."""
    s = strategy_fixture("detprod", 3)
    assert_question_laws_match(DepBreakComputer(chsh(), 3, s, C),
                               ExtendedTableComputer(chsh(), 3, s, C), 0.0)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_tables_and_laws_match_the_extended_table_path(case):
    comp, ref, _s = computers(*case)
    g = comp.game
    # the extended table's question marginal carries the Born table's
    # rounding, so laws agree to the last bits
    assert_question_laws_match(comp, ref, 1e-15)
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
    cfg = ReductionConfig(game=GAMES[game](), n=n,
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
    """Six questions and two answers a side, won when a xor b is the
    parity of x + y: at n=3 the Born table has 2 985 984 cells, and a
    whole question table would need 36^3 * 12^3."""
    x, y, a, b = np.ix_(*(np.arange(k) for k in (6, 6, 2, 2)))
    return Game(6, 6, 2, 2, np.full((6, 6), 1.0 / 36.0),
                (a ^ b) == (x + y) % 2, name="six")


def test_six_question_game_runs_at_n3_without_holdout(tmp_path):
    """A whole question table would need 80 621 568 cells, above the cap;
    each question law the walks read has at most 373 248."""
    g = six_question_game()
    save_game(g, tmp_path / "six.game")
    save_strategy(random_strategy(g, 3, 1, 0), tmp_path / "six.strategy")
    files = ["--game", str(tmp_path / "six.game"),
             "--strategy", str(tmp_path / "six.strategy"), "--n", "3"]
    out = tmp_path / "reduction"
    assert cli.main(["run", "reduction", *files, "--C", "",
                     "--out", str(out)]) == 0
    report = json.loads(out.with_suffix(".json").read_text())
    assert [row["coord"] for row in report["per_coord"]] == [0, 1, 2]
    assert report["invalid_contexts"] == 0
    assert report["max_context_crosscheck"] <= 1e-12
    for row in report["per_coord"]:
        assert abs(row["p_tilde"] - row["p_ref"]) <= 1e-12
    for suite in ("usefulness", "xi", "sampleability"):
        assert cli.main(["verify", "--suite", suite, *files, "--C", "",
                         "--out", str(tmp_path / suite)]) == 0


def oversized_law_game():
    """Alice has six questions and two answers, Bob one question and one
    answer.  At n=4, C=() the Born table has 20 736 cells, but Alice's
    question law given the other rounds' pointers and her own round-i
    question has 12^3 * 6 rows of 6^4 question tuples."""
    return Game(6, 1, 2, 1, np.full((6, 1), 1.0 / 6.0),
                np.ones((6, 1, 2, 1), dtype=bool), name="wide")


def uniform_strategy(g, n):
    """d=1: every answer tuple equally likely, whatever the questions."""
    def family(q_size, a_size):
        return POVMFamily(n, np.full((q_size,) * n + (a_size,) * n + (1, 1),
                                     1.0 / a_size ** n))
    return EntangledStrategy(1, n, np.ones(1), family(g.x_size, g.a_size),
                             family(g.y_size, g.b_size))


LAW_REFUSAL = ("question law would need 13436928 cells, above the 10000000 "
               "entry cap")


def test_question_law_is_refused_before_it_is_allocated():
    g = oversized_law_game()
    comp = DepBreakComputer(g, 4, uniform_strategy(g, 4), ())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{LAW_REFUSAL}$"):
            comp.usefulness_check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_context_table_is_refused_before_it_is_allocated(monkeypatch):
    # the context table has 256 cells; the laws its walks read, at most 64
    monkeypatch.setattr(depbreak, "MAX_TABLE_ENTRIES", 100)
    comp = DepBreakComputer(chsh(), 2, strategy_fixture("printing", 2), (1,))
    with pytest.raises(ValueError, match=(
            "^context table of coordinate 0 would need 256 cells, above "
            "the 100 entry cap$")):
        comp.contexts(0)


def test_cli_refuses_oversized_tables_in_one_line(monkeypatch, tmp_path,
                                                  capsys):
    g = oversized_law_game()
    save_game(g, tmp_path / "wide.game")
    save_strategy(uniform_strategy(g, 4), tmp_path / "wide.strategy")
    assert cli.main(["verify", "--suite", "usefulness",
                     "--game", str(tmp_path / "wide.game"),
                     "--strategy", str(tmp_path / "wide.strategy"),
                     "--n", "4", "--C", ""]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {LAW_REFUSAL}\n"
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


def test_constructor_and_usefulness_stay_near_the_born_table():
    """asym3 n=4, C=(): the Born table is 1 679 616 cells; a whole
    question table would be 8 503 056.  The constructor and one
    coordinate's usefulness check stay under three Born tables."""
    g = asym3()
    s = random_strategy(g, 4, 2, 0)
    tracemalloc.start()
    try:
        comp = DepBreakComputer(g, 4, s, ())
        rep = comp.usefulness_check(coords=(0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok() and rep.contexts > 0
    assert peak < 3 * comp.born.table.nbytes


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


def test_operators_decompose_each_coarse_operator_once(monkeypatch):
    """`fine_povm` takes a context's aligned factor and its fine POVM from
    one eigendecomposition of the coarse operator: printing n=3, C=(1,)
    has 64 own coarse operators per side at coordinate 0, and 128 are
    decomposed."""
    comp = DepBreakComputer(chsh(), 3, strategy_fixture("printing", 3), (1,))
    rows = []
    psd_eigh = matcore.psd_eigh

    def counted(p, name="operator"):
        if name == "coarse operator":
            rows.append(math.prod(np.shape(p)[:-2]))
        return psd_eigh(p, name)

    monkeypatch.setattr(matcore, "psd_eigh", counted)
    ops = comp.operators(0)
    assert sum(rows) == 128 == sum(ops[side].own.size // comp.d ** 2
                                   for side in ("alice", "bob"))
