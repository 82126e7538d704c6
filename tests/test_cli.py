import itertools
import json
import re
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest

from repgames import __version__, cli, suites, values
from repgames.cli import main
from repgames.games import chsh
from repgames.reduction import (CLASSICAL_MODES, QUANTUM_MODES,
                                ReductionConfig, main_bound_compare,
                                run_reduction)
from repgames.strategy import save_strategy, strategy_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv):
    """Exit code, stdout and stderr of a refusal, whether main returns 2 or
    argparse exits with it."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_matcore_suite(capsys):
    code, out, _err = run_cli(capsys, "verify", "--suite", "matcore",
                              "--trials", "30")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    names = [c["name"] for c in payload["checks"]]
    assert names == [c.name for c in suites.run_matrix_suite(1, 0)]
    assert all(c["violations"] == 0 for c in payload["checks"])


def test_verify_entropy_suite(capsys):
    code, out, _err = run_cli(capsys, "verify", "--suite", "entropy",
                              "--trials", "20")
    assert code == 0
    payload = json.loads(out)
    assert ([c["name"] for c in payload["checks"]]
            == [c.name for c in suites.run_entropy_suite(1, 0)])
    assert payload["passed"]


def test_verify_all_runs_every_sweep(capsys):
    code, out, _err = run_cli(capsys, "verify", "--suite", "all",
                              "--trials", "10")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["checks"]) == 8


def test_verify_usefulness_with_one_based_holdout(capsys):
    code, out, _err = run_cli(capsys, "verify", "--suite", "usefulness",
                              "--game", "chsh", "--strategy", "printing",
                              "--n", "2", "--C", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert {c["name"] for c in payload["checks"]} == {"usefulness", "weights"}


def test_verify_xi_suite_both_sides(capsys):
    for side in ("alice", "bob"):
        code, out, _err = run_cli(capsys, "verify", "--suite", "xi",
                                  "--strategy", "printing", "--n", "2",
                                  "--C", "2", "--side", side)
        assert code == 0
        assert json.loads(out)["passed"]


def test_verify_unknown_suite_usage_error(capsys):
    code, out, err = refused(capsys, "verify", "--suite", "bogus")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "usage error: argument --suite: invalid choice: 'bogus' (choose from "
        + ", ".join(map(repr, cli.SUITES)) + ")"]


def test_verify_rejects_out_of_range_holdout(capsys):
    code, _out, err = run_cli(capsys, "verify", "--suite", "usefulness",
                              "--n", "2", "--C", "3")
    assert code == 2
    assert "outside" in err


def test_run_values_reports_classical_points(capsys):
    code, out, _err = run_cli(capsys, "run", "values", "--n", "2",
                              "--seeds", "3")
    assert code == 0
    payload = json.loads(out)
    by_n = {e["n"]: e for e in payload["results"]
            if "classical_value" in e}
    assert by_n[1]["classical_value"] == 0.75
    assert by_n[2]["classical_value"] == 0.625
    seesaw = [e for e in payload["results"] if "seesaw_value" in e]
    assert seesaw and seesaw[0]["seesaw_value"] >= 0.85


def test_run_values_refuses_n_above_the_classical_cap_first(capsys,
                                                            monkeypatch):
    def never(*_args, **_kwargs):
        raise AssertionError("ran before the refusal")

    monkeypatch.setattr(cli, "classical_value", never)
    monkeypatch.setattr(cli, "seesaw_best", never)
    code, out, err = run_cli(capsys, "run", "values", "--game", "asym3")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "--n 2" in err and "the largest allowed is --n 1" in err


def test_run_values_asym3_one_round_prints_the_seesaw_row(capsys):
    code, out, _err = run_cli(capsys, "run", "values", "--game", "asym3",
                              "--n", "1", "--seeds", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert [e["n"] for e in results if "classical_value" in e] == [1]
    seesaw = [e for e in results if "seesaw_value" in e]
    assert len(seesaw) == 1 and seesaw[0]["n"] == 1


def test_run_values_restarts_seesaw_from_seed(capsys):
    # a single restart from seed 0 stops at 0.75, one from seed 3 does not
    code, out, _err = run_cli(capsys, "run", "values", "--n", "1",
                              "--seeds", "1", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    want = values.seesaw_best(chsh(), 2, seeds=[3], max_iters=500)
    seesaw = [e for e in payload["results"] if "seesaw_value" in e]
    assert seesaw[0]["seesaw_value"] == want.value > 0.85
    assert payload["config"]["seed"] == 3


def test_run_bound_grid(capsys):
    code, out, _err = run_cli(capsys, "run", "bound", "--eps", "0.9",
                              "--s", "2", "--n-grid", "2^36..2^40")
    assert code == 0
    payload = json.loads(out)
    rows = payload["results"]
    assert len(rows) == 5
    assert all(r["bound_value"] <= 1.0 for r in rows)
    nonvacuous = [r for r in rows if not r["vacuous"]]
    assert nonvacuous
    assert all(r["bound_value"] == r["raw_value"] for r in nonvacuous)


def test_run_bound_default_grid_is_vacuous(capsys):
    code, out, _err = run_cli(capsys, "run", "bound", "--n-grid",
                              "2^10,2^20,2^30")
    assert code == 0
    payload = json.loads(out)
    assert all(r["vacuous"] for r in payload["results"])
    assert all(r["bound_value"] == 1.0 for r in payload["results"])


def test_run_corrsamp_bounded_disagreement(capsys):
    code, out, _err = run_cli(capsys, "run", "corrsamp", "--tv", "0.1",
                              "--trials", "20000")
    assert code == 0
    res = json.loads(out)["results"]
    assert 1.0 - res["agree_rate"] <= 0.42
    assert res["tv_a"] <= 0.02 and res["tv_b"] <= 0.02
    assert res["fail_rate"] == 0.0


def test_run_corrsamp_rejects_unreachable_tv(capsys):
    code, _out, err = run_cli(capsys, "run", "corrsamp", "--tv", "0.3")
    assert code == 2
    assert "tv" in err


@pytest.mark.parametrize("flag", ["--trials", "--max-draws"])
def test_run_corrsamp_refuses_empty_runs(capsys, flag):
    code, out, err = run_cli(capsys, "run", "corrsamp", flag, "0")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_run_corrsamp_all_fail_report_is_strict_json(capsys, recwarn):
    code, out, err = run_cli(capsys, "run", "corrsamp", "--trials", "1",
                             "--max-draws", "1")
    assert code == 0 and err == ""
    assert len(recwarn) == 0
    res = json.loads(out, parse_constant=pytest.fail)["results"]
    assert res["fail_rate"] == 1.0
    assert res["chi2_pvalue_a"] is None


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0", "-0.5"])
def test_run_reduction_refuses_bad_alpha(capsys, alpha):
    code, out, err = run_cli(capsys, "run", "reduction", "--mode",
                             "embezzle", "--n", "1", f"--alpha={alpha}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "alpha" in err


def test_verify_has_no_workers_flag(capsys):
    for argv in (["verify", "--suite", "matcore", "--workers", "2"],
                 ["run", "values", "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("run", "bound", "--trials", "abc"),
    ("run", "bound", "--c", "-inf"),
    ("run", "bound", "--bogus", "1"),
    ("verify",),
], ids=" ".join)
def test_an_argv_argparse_refuses_is_one_usage_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("usage error: ")


def test_help_still_prints_the_usage_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: repgames run")
    assert len(captured.out.splitlines()) > 9


def test_run_reduction_refuses_a_fixture_above_the_povm_cap(capsys):
    # printing at n=7 would be a (2,)*14 + (128, 128) array per side
    code, out, err = run_cli(capsys, "run", "reduction", "--strategy",
                             "printing", "--n", "7")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "no POVM array for n=7 rounds" in err


def test_run_reduction_refuses_a_strategy_file_of_forty_rounds(tmp_path,
                                                                capsys):
    path = tmp_path / "strategy.txt"
    save_strategy(strategy_fixture("tsirelson", 1), path)
    path.write_text(path.read_text().replace("\nn 1\n", "\nn 40\n"))
    code, out, err = run_cli(capsys, "run", "reduction", "--strategy",
                             str(path), "--n", "40")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "no POVM array for n=40 rounds" in err


def test_run_reduction_auto_at_one_round_is_the_empty_holdout(capsys):
    code, auto, err = run_cli(capsys, "run", "reduction", "--n", "1",
                              "--C", "auto")
    assert code == 0 and err == ""
    assert json.loads(auto)["config"]["C"] == []
    assert auto == run_cli(capsys, "run", "reduction", "--n", "1",
                           "--C", "none")[1]


def test_run_reduction_writes_reports(tmp_path, capsys):
    out_base = tmp_path / "report"
    code, out, _err = run_cli(capsys, "run", "reduction", "--strategy",
                              "detprod", "--n", "2", "--C", "2",
                              "--out", str(out_base))
    assert code == 0
    assert "wrote" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["avg_residual"] <= 1e-8
    assert payload["compare"]["pass_threshold"]
    assert payload["config"]["C"] == [1]
    csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("coord,")


def test_run_reduction_three_rounds_exact(tmp_path, capsys):
    out_base = tmp_path / "r3"
    code, _out, _err = run_cli(capsys, "run", "reduction", "--game", "chsh",
                               "--strategy", "tsirelson", "--n", "3",
                               "--mode", "exact", "--out", str(out_base))
    assert code == 0
    payload = json.loads((tmp_path / "r3.json").read_text())
    assert payload["avg_residual"] <= 1e-8


def test_run_reduction_auto_holdout_at_four_rounds(capsys):
    # the empty-holdout extended table of n=4 is over the cell cap, so the
    # automatic choice must not build it
    code, out, err = run_cli(capsys, "run", "reduction", "--strategy",
                             "printing", "--n", "4", "--C", "auto")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["config"]["C"] and payload["compare"]["pass_threshold"]


def test_run_outputs_deterministic(capsys):
    _code, out1, _ = run_cli(capsys, "run", "corrsamp", "--trials", "500",
                             "--seed", "4")
    _code, out2, _ = run_cli(capsys, "run", "corrsamp", "--trials", "500",
                             "--seed", "4")
    assert out1 == out2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"trials": 25, "seed": 9}))
    code, out, _err = run_cli(capsys, "--config", str(cfg), "verify",
                              "--suite", "matcore")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["trials"] == 25
    assert payload["config"]["seed"] == 9


def test_config_file_flags_still_win(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"trials": 25, "seed": 9}))
    code, out, _err = run_cli(capsys, "--config", str(cfg), "verify",
                              "--suite", "matcore", "--trials", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["trials"] == 40
    assert payload["config"]["seed"] == 9


def test_config_file_malformed_is_reported(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text("{not json")
    code, _out, err = run_cli(capsys, "--config", str(cfg), "verify",
                              "--suite", "matcore")
    assert code == 2
    assert "config error" in err


def test_verify_out_writes_files(tmp_path, capsys):
    out_base = tmp_path / "suite"
    code, _out, _err = run_cli(capsys, "verify", "--suite", "matcore",
                               "--trials", "10", "--out", str(out_base))
    assert code == 0
    payload = json.loads((tmp_path / "suite.json").read_text())
    assert payload["passed"]
    lines = (tmp_path / "suite.csv").read_text().strip().splitlines()
    assert lines[0] == "name,trials,violations,max_slack,details"
    assert len(lines) == 1 + len(payload["checks"])


def test_run_mode_shorthand_sets_both_modes(capsys):
    code, out, _err = run_cli(capsys, "run", "reduction", "--strategy",
                              "tsirelson", "--n", "2", "--C", "",
                              "--mode", "holenstein", "--trials", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["mode_classical"] == "holenstein"
    assert payload["config"]["mode_quantum"] == "oracle_state"
    assert payload["trials_run"] == 200



@pytest.mark.parametrize("config,argv,line", [
    ({}, ("--mode", "exact", "--mode-quantum", "embezzle"),
     "unrecognized arguments: --mode-quantum embezzle"),
    ({}, ("--mode-classical", "holenstein", "--mode", "holenstein"),
     "unrecognized arguments: --mode-classical holenstein"),
    ({"mode_quantum": "embezzle"}, ("--mode", "exact"),
     "--config key names no flag of verify or run: 'mode_quantum'"),
    ({"mode": "embezzle"}, ("--mode-classical", "exact_conditional"),
     "unrecognized arguments: --mode-classical exact_conditional"),
], ids=["flags", "flags-reversed", "config-quantum", "config-mode"])
def test_mode_beside_a_long_mode_flag_is_refused(tmp_path, capsys, config,
                                                 argv, line):
    """--mode alone names the sampling-mode pair, so a long mode flag
    beside it, on the command line or in --config, is refused in one line
    rather than overridden or ignored."""
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    code, out, err = refused(capsys, "--config", str(cfg), "run",
                             "reduction", *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"usage error: {line}"]


@pytest.mark.parametrize("config,argv,line", [
    ({}, ("run", "values", "--game", "a\nb"),
     "usage error: unknown game fixture or missing file: a\\x0ab"),
    ({}, ("run", "reduction", "--strategy", "x\ry"),
     "usage error: unknown strategy fixture or missing file: x\\x0dy"),
    ({"game": "a\nb"}, ("run", "values"),
     "usage error: unknown game fixture or missing file: a\\x0ab"),
    ({}, ("run", "values", "--game", "a\u2028b\u2029c"),
     "usage error: unknown game fixture or missing file: a\\u2028b\\u2029c"),
], ids=["game", "strategy", "config-game", "unicode-separators"])
def test_a_name_with_a_line_break_is_refused_on_one_line(tmp_path, capsys,
                                                         config, argv, line):
    """A control character in a name the user gave is escaped, so the
    refusal that quotes it stays one line."""
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    code, out, err = refused(capsys, "--config", str(cfg), *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [line]


def test_the_modes_name_each_sampling_mode_pair_once():
    pairs = set(itertools.product(CLASSICAL_MODES, QUANTUM_MODES))
    assert set(cli.MODES.values()) == pairs
    assert len(cli.MODES) == len(pairs)


@pytest.mark.parametrize("mode", sorted(cli.MODES))
def test_each_mode_reports_a_direct_run_of_its_pair(capsys, mode):
    code, out, _err = run_cli(capsys, "run", "reduction", "--strategy",
                              "printing", "--n", "2", "--C", "2", "--mode",
                              mode, "--trials", "200", "--dprime", "16")
    assert code == 0
    classical, quantum = cli.MODES[mode]
    report = run_reduction(ReductionConfig(
        game=chsh(), n=2, strategy=strategy_fixture("printing", 2), C=(1,),
        mode_classical=classical, mode_quantum=quantum, trials=200,
        dprime=16))
    direct = {"version": __version__, **asdict(report),
              "compare": main_bound_compare(report)}
    assert json.loads(out) == json.loads(json.dumps(direct))


@pytest.mark.parametrize("config", [
    {"trails": 5}, {"mode_classical": "holenstein"},
    {"mode_quantum": "embezzle"}, {"target": "bound"}, {"help": True},
    {"trials": 5, "trails": 5, "Seed": 1},
], ids=lambda c: ",".join(c))
def test_an_unknown_config_key_is_refused(tmp_path, capsys, config):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    names = ", ".join(repr(k) for k in sorted(config) if k != "trials")
    for argv in (("verify", "--suite", "matcore"), ("run", "bound")):
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"usage error: --config key names no flag of verify or run: "
            f"{names}"]


def _flags_in(text: str) -> set:
    return set(re.findall(r"(?<![\w-])--[A-Za-z][A-Za-z-]*", text))


def test_readme_command_line_names_every_flag_and_no_other():
    parser = cli.build_parser()
    defined = {flag for p in (parser, *parser.sub_commands.values())
               for action in p._actions for flag in action.option_strings
               if flag.startswith("--")}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^## Command line\n(.*?)(?=^## |\Z)", readme,
                        re.M | re.S).group(1)
    assert _flags_in(section) == defined


@pytest.mark.parametrize("grid,message", [
    ("2^20000", "--n-grid value 2^20000 has more than 4300 digits"),
    ("9" * 4301, "--n-grid value " + "9" * 32 + "... has more than 4300 "
                 "digits"),
    ("2^1..2^100000000", "--n-grid value 2^100000000 has more than 4300 "
                         "digits"),
    ("2^3..2^x", "--n-grid value 2^x is not an integer"),
    ("2^3,,4", "--n-grid value  is not an integer"),
], ids=["power", "integer", "range", "exponent", "empty"])
def test_an_n_grid_value_is_checked_before_it_is_formed(capsys, grid,
                                                         message):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", "bound", "--n-grid", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.splitlines() == [f"usage error: {message}"]
    assert peak < 2 ** 20


@pytest.mark.parametrize("grid,points", [
    ("2^1..2^14284", 14284),
    (",".join(["2^3"] * 1025), 1025),
    ("7," * 10 ** 6 + "7", 10 ** 6 + 1),
], ids=["range", "list", "long_list"])
def test_an_n_grid_over_the_point_cap_is_refused_before_it_is_formed(
        capsys, grid, points):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", "bound", "--n-grid", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"usage error: --n-grid has {points} points, more than "
        f"{cli.GRID_MAX_POINTS}"]
    # the grid text itself is the only allocation of its size
    assert peak < len(grid) + 2 ** 20


def test_an_n_grid_at_the_point_cap_runs(capsys):
    cap = cli.GRID_MAX_POINTS
    for grid in (f"2^1..2^{cap}", ",".join(["16"] * cap)):
        code, out, _err = run_cli(capsys, "run", "bound", "--n-grid", grid)
        assert code == 0
        assert len(json.loads(out)["results"]) == cap


def test_the_largest_printable_power_runs(capsys):
    code, out, _err = run_cli(capsys, "run", "bound", "--n-grid",
                              "2^14284,9" + "9" * 4299)
    assert code == 0
    assert [r["n"] for r in json.loads(out)["results"]] == [
        2 ** 14284, 10 ** 4300 - 1]

def test_unknown_run_target(capsys):
    code, out, err = refused(capsys, "run", "nonsense")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "usage error: argument target: invalid choice: 'nonsense' (choose "
        "from 'values', 'reduction', 'bound', 'corrsamp')"]


def test_missing_game_file(capsys):
    code, _out, err = run_cli(capsys, "verify", "--suite", "usefulness",
                              "--game", "/nonexistent/game.txt")
    assert code == 2
    assert "unknown game" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "all", "--trials", "0"),
    ("verify", "--suite", "matcore", "--trials", "-1"),
    ("run", "values", "--n", "0"),
    ("run", "values", "--d", "0"),
    ("run", "values", "--seeds", "0"),
    ("run", "reduction", "--n", "-1"),
], ids=" ".join)
def test_zero_work_runs_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("usage error: --") and "must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "matcore", "--seed", "-1"),
    ("run", "values", "--seed", "-2"),
    ("run", "reduction", "--seed", "-1"),
], ids=" ".join)
def test_negative_seed_is_a_usage_error_naming_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"usage error: --seed must be at least 0, got {argv[-1]}"]


def test_config_seed_that_is_not_an_integer_is_a_usage_error(tmp_path,
                                                             capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"seed": None}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "run", "bound")
    assert code == 2 and out == ""
    assert err.splitlines() == ["usage error: --seed must be at least 0, "
                                "got None"]


@pytest.mark.parametrize("config, argv, line", [
    ({"trials": None}, ("verify", "--suite", "matcore"),
     "--trials must be an integer, got None"),
    ({"trials": 2.5}, ("verify", "--suite", "matcore"),
     "--trials must be an integer, got 2.5"),
    ({"trials": True}, ("verify", "--suite", "matcore"),
     "--trials must be an integer, got True"),
    ({"trials": [25]}, ("verify", "--suite", "matcore"),
     "--trials must be an integer, got [25]"),
    ({"game": {"name": "chsh"}}, ("run", "values"),
     "--game must be a string, got {'name': 'chsh'}"),
    ({"eps": "big"}, ("run", "bound"), "--eps must be a number, got big"),
    ({"C": 5}, ("run", "reduction"), "coordinate 5 outside 1..2"),
    ({"mode": "bogus"}, ("run", "reduction"),
     "--mode must be one of exact, holenstein, embezzle, exact-embezzle, "
     "got bogus"),
    ({"side": "carol"}, ("verify", "--suite", "xi"),
     "--side must be one of alice, bob, got carol"),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else " ".join(v)
    if isinstance(v, tuple) else "")
def test_config_value_that_the_flag_refuses_is_a_usage_error(tmp_path, capsys,
                                                            config, argv,
                                                            line):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"usage error: {line}"]


def test_config_values_parse_as_their_command_line_text(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"trials": "25", "seed": 3, "C": 2,
                               "side": "bob", "eps": 1}))
    code, out, _err = run_cli(capsys, "--config", str(cfg), "verify",
                              "--suite", "matcore")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["trials"], config["seed"], config["C"]) == (25, 3, "2")
    code, out, _err = run_cli(capsys, "--config", str(cfg), "run", "bound",
                              "--n-grid", "16")
    assert code == 0 and json.loads(out)["config"]["eps"] == 1.0


def test_config_file_that_is_not_an_object_is_a_config_error(tmp_path,
                                                              capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "--config", str(cfg), "run", "bound")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "config error: the config file must hold one JSON object"]


@pytest.mark.parametrize("flag", ["--eps", "--s", "--c", "--log-base"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_bound_refuses_a_non_finite_flag(capsys, flag, value):
    argv = {"--eps": "0.5", "--s": "2", "--c": "1", "--log-base": "2"}
    argv[flag] = value
    code, out, err = run_cli(capsys, "run", "bound", "--n-grid", "16",
                             *[t for kv in argv.items() for t in kv])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ") and "must be finite" in err


@pytest.mark.parametrize("argv", [
    ("run", "corrsamp", "--trials", "100000000000"),
    ("run", "reduction", "--strategy", "tsirelson", "--n", "2", "--mode",
     "holenstein", "--trials", "100000000000"),
    ("run", "values", "--d", "100000"),
], ids=" ".join)
def test_a_count_above_the_entry_cap_is_refused_before_allocating(capsys,
                                                                   argv):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "entry cap" in err
    assert peak < 2 ** 24


@pytest.mark.parametrize("mode", ["exact", "holenstein", "embezzle"])
def test_run_reduction_report_keys_are_the_dataclass_fields(tmp_path, capsys,
                                                            mode):
    from dataclasses import fields

    from repgames.reduction import PerCoordinate, ReductionReport

    out_base = tmp_path / mode
    code, _out, err = run_cli(capsys, "run", "reduction", "--mode", mode,
                              "--trials", "200", "--dprime", "16",
                              "--out", str(out_base))
    assert code == 0, err
    payload = json.loads((tmp_path / f"{mode}.json").read_text())
    assert set(payload) == ({"version", "compare"}
                            | {f.name for f in fields(ReductionReport)})
    header = (tmp_path / f"{mode}.csv").read_text().splitlines()[0]
    assert header.split(",") == [f.name for f in fields(PerCoordinate)]
    assert all(set(c) == {f.name for f in fields(PerCoordinate)}
               for c in payload["per_coord"])


def test_invalid_game_file_exits_2(tmp_path, capsys):
    path = tmp_path / "game.txt"
    path.write_text("x_size 2\ny_size 2\na_size 2\nb_size 2\n"
                    "mu 1.5 -0.5 0 0\n"
                    "predicate " + " ".join(["1"] * 16) + "\n")
    code, _out, err = run_cli(capsys, "run", "values", "--game", str(path),
                              "--n", "1")
    assert code == 2
    assert err.splitlines() == [
        "config error: invalid game file: mu has negative weight -5.000e-01"]


@pytest.mark.parametrize("bad", ["povm carol 0 0", "povm alice 0"])
def test_malformed_povm_line_exits_2(tmp_path, capsys, bad):
    from repgames.strategy import save_strategy, strategy_fixture

    path = tmp_path / "strategy.txt"
    save_strategy(strategy_fixture("tsirelson", 1), path)
    lines = path.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("povm"))
    lines[first] = bad
    path.write_text("\n".join(lines) + "\n")
    code, _out, err = run_cli(capsys, "run", "reduction", "--strategy",
                              str(path), "--n", "1", "--C", "none")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert f"povm line {bad!r}" in err
