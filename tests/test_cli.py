import json

import pytest

from repgames import suites
from repgames.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
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
            == [c.name for c in suites.run_entropy_suite(1, 0, 1)])
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
    code, _out, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "usage error" in err


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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "matcore", "--workers", "2"])
    assert exc.value.code == 2


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


def test_unknown_run_target(capsys):
    code, _out, err = run_cli(capsys, "run", "nonsense")
    assert code == 2
    assert "unknown run target" in err


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
