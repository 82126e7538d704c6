import functools
import json
import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from _helpers import born_table_mixed_loop, condition, random_strategy
from repgames import depbreak, matcore, reduction, strategy
from repgames.corrsamp import qcs_execute, qcs_isometry
from repgames.games import chsh, fixture, win_set
from repgames.cli import main
from repgames.reduction import (PerCoordinate, ReductionConfig,
                                SingleShotStrategy, main_bound_compare,
                                run_reduction)
from repgames.strategy import born_joint, strategy_fixture
from repgames.values import _random_povm

TSIRELSON_VALUE = math.cos(math.pi / 8) ** 2
README = Path(__file__).resolve().parent.parent / "README.md"


def make_config(**kw):
    name = kw.pop("strategy", "detprod")
    n = kw.pop("n", 2)
    base = dict(game=chsh(), n=n, strategy=strategy_fixture(name, n), C=())
    base.update(kw)
    return ReductionConfig(**base)


def test_config_rejects_unknown_modes():
    with pytest.raises(ValueError):
        make_config(mode_classical="guess")
    with pytest.raises(ValueError):
        make_config(mode_quantum="teleport")
    with pytest.raises(ValueError):
        make_config(mode_classical="holenstein", trials=0)
    with pytest.raises(ValueError):
        make_config(mode_classical="holenstein", max_draws=0)
    for alpha in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            make_config(mode_quantum="embezzle", alpha=alpha)


def test_exact_mode_matches_conditional_target_product_fixture():
    report = run_reduction(make_config(strategy="detprod", C=(1,)))
    assert report.avg_residual <= 1e-10
    assert report.mean_abs_residual <= 1e-10
    assert report.invalid_contexts == 0
    assert report.max_context_crosscheck <= 1e-8


def test_exact_mode_tsirelson_empty_holdout():
    report = run_reduction(make_config(strategy="tsirelson"))
    assert report.avg_residual <= 1e-10
    # with nothing to condition on, each reference is the one-round value
    for p in report.per_coord:
        assert abs(p.p_ref - TSIRELSON_VALUE) < 1e-10
        assert abs(p.p_tilde - TSIRELSON_VALUE) < 1e-8
    assert abs(report.p_win_c - 1.0) < 1e-12


def test_exact_mode_printing_nonempty_holdout():
    report = run_reduction(make_config(strategy="printing", C=(1,)))
    assert report.avg_residual <= 1e-8
    assert report.invalid_contexts == 0


def test_reference_equals_brute_force_conditional():
    g = chsh()
    s = strategy_fixture("printing", 2)
    report = run_reduction(ReductionConfig(game=g, n=2, strategy=s, C=(1,)))
    joint = born_joint(g, 2, s)
    cond = condition(joint, win_set(g, 2, (1,)))
    expect = cond.prob(win_set(g, 2, (0,)))
    assert abs(report.per_coord[0].p_ref - expect) < 1e-12


def test_auto_holdout_selection():
    cfg = make_config(strategy="tsirelson", C="auto")
    shot = SingleShotStrategy(cfg)
    assert shot.C == ()   # conditioning is inert for a product strategy
    report = run_reduction(cfg)
    assert report.config["C"] == []


def test_auto_holdout_builds_one_born_table(monkeypatch):
    """choose_C reads the Born table the dependency-breaking computer keeps
    (its symmetrized strategy has the same output distribution)."""
    calls = []
    real = strategy.born_joint

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(strategy, "born_joint", counted)
    monkeypatch.setattr(depbreak, "born_joint", counted)
    report = run_reduction(make_config(strategy="printing", n=3, C="auto"))
    assert calls == [3]
    assert report.config["C"] == [0, 1]


def test_holdout_spec_other_than_auto_is_refused():
    with pytest.raises(ValueError, match="tuple or 'auto'"):
        SingleShotStrategy(make_config(C="best"))


def test_holenstein_mode_deterministic_per_seed():
    cfg1 = make_config(mode_classical="holenstein", trials=400, seed=5)
    cfg2 = make_config(mode_classical="holenstein", trials=400, seed=5)
    r1 = run_reduction(cfg1)
    r2 = run_reduction(cfg2)
    assert asdict(r1) == asdict(r2)
    r3 = run_reduction(make_config(mode_classical="holenstein", trials=400,
                                   seed=6))
    assert asdict(r3) != asdict(r1)


def test_holenstein_mode_tracks_exact_value():
    exact = run_reduction(make_config(strategy="detprod"))
    sampled = run_reduction(make_config(strategy="detprod",
                                        mode_classical="holenstein",
                                        trials=4000, seed=0))
    assert sampled.trials_run == 4000
    assert abs(sampled.avg_p_tilde - exact.avg_p_tilde) < 0.05
    assert sampled.stderr > 0.0
    assert sampled.failures == 0


def test_holenstein_within_budget_of_exact_printing():
    exact = run_reduction(make_config(strategy="printing", C=(1,)))
    for seed in range(5):
        sampled = run_reduction(make_config(
            strategy="printing", C=(1,), mode_classical="holenstein",
            trials=3000, seed=seed))
        assert sampled.failures == 0
        assert (abs(sampled.avg_p_tilde - exact.avg_p_tilde)
                <= sampled.error_budget)


def test_sampled_coordinate_evaluates_each_context_once(monkeypatch):
    shot = SingleShotStrategy(make_config(strategy="printing", n=3, C=(0,),
                                          mode_classical="holenstein"))
    calls = []
    real = shot.context_wins

    def counting(i, r_a, r_b, x, y):
        calls.append((i, r_a, r_b, x, y))
        return real(i, r_a, r_b, x, y)

    monkeypatch.setattr(shot, "context_wins", counting)
    trials = 2000
    stats = reduction._sampled_coordinate(shot, 1, trials,
                                          np.random.default_rng(3))
    assert stats.failures == 0
    assert stats.disagreements > 0
    # one stacked call per coordinate, each distinct context once in it
    assert len(calls) == 1
    i, r_a, r_b, x, y = calls[0]
    keys = set(zip(r_a.tolist(), r_b.tolist(), x.tolist(), y.tolist()))
    assert i == 1 and len(keys) == r_a.size
    assert 1 < r_a.size < trials
    assert (r_a != r_b).any()
    # context keys are flat r indices of the coordinate's r variables
    for ra, rb, _x, _y in keys:
        assert shot.r_to_flat(i, shot.flat_to_r(i, ra)) == ra
        assert shot.r_to_flat(i, shot.flat_to_r(i, rb)) == rb


def test_holenstein_disagreements_counted_identical_laws():
    # with an empty holdout both players condition on the same law, so the
    # shared-stream sampler never disagrees
    report = run_reduction(make_config(strategy="tsirelson",
                                       mode_classical="holenstein",
                                       trials=600, seed=2))
    assert report.disagreements == 0
    assert report.error_budget >= 0.0


def test_embezzle_mode_residual_within_budget():
    report = run_reduction(make_config(strategy="tsirelson",
                                       mode_quantum="embezzle",
                                       dprime=64))
    assert report.avg_embezzle_err > 0.0
    assert report.max_embezzle_err >= report.avg_embezzle_err
    assert report.avg_residual <= report.error_budget + 1e-9
    assert report.invalid_contexts == 0


@pytest.mark.parametrize("seed", range(3))
def test_exact_embezzle_max_error_is_the_largest_context_error(seed):
    """In exact mode max_embezzle_err is the largest error of a visited
    context, not the largest per-coordinate weighted mean."""
    g = chsh()
    cfg = ReductionConfig(game=g, n=2, strategy=random_strategy(g, 2, 2, seed),
                          C=(1,), mode_quantum="embezzle", dprime=256)
    report = run_reduction(cfg)
    shot = SingleShotStrategy(cfg)
    r, x, y, _w, _mass, _count = depbreak.conditioned_contexts(
        g, shot.computer.contexts(0))
    _p, err, valid = shot.context_wins(0, r, r, x, y)
    largest = float(np.minimum(err[valid], 1.0).max())
    assert report.max_embezzle_err == largest
    assert report.max_embezzle_err > report.avg_embezzle_err


def test_embezzle_error_shrinks_with_dimension():
    small = run_reduction(make_config(strategy="tsirelson",
                                      mode_quantum="embezzle", dprime=16))
    large = run_reduction(make_config(strategy="tsirelson",
                                      mode_quantum="embezzle", dprime=256))
    assert large.avg_embezzle_err < small.avg_embezzle_err


def test_always_win_game_is_exactly_saturated():
    from repgames.games import always_win
    from repgames.strategy import tsirelson

    for mode in ("exact_conditional", "holenstein"):
        cfg = ReductionConfig(game=always_win(), n=2, strategy=tsirelson(2),
                              C=(), mode_classical=mode, trials=300, seed=1)
        report = run_reduction(cfg)
        assert report.avg_p_tilde == 1.0
        assert report.avg_p_ref == 1.0
    out = main_bound_compare(report)
    assert out["pass_threshold"]
    # both sides win every trial, so only float roundoff enters the budget
    assert abs(out["margin"]) < 1e-12


def test_exact_p_tilde_stays_a_probability():
    # six questions a side, every answer wins: thousands of contexts of
    # weight mu * P(r | x, y, W_C) whose unrenormalised total rounds above
    # 1, so the weighted mean read 1.000000000000003 before it was clipped
    from repgames.games import Game

    g = Game(6, 6, 2, 2, np.full((6, 6), 1 / 36), np.ones((6, 6, 2, 2)),
             name="always6")
    report = run_reduction(ReductionConfig(
        game=g, n=3, strategy=random_strategy(g, 3, 1, 0), C=()))
    assert len(report.per_coord) == 3
    for p in report.per_coord:
        assert 0.0 <= p.p_tilde <= 1.0
        assert p.residual <= report.max_context_crosscheck
    assert report.avg_p_tilde <= 1.0


def _random_reports(**mode):
    """(case, config, report) of the oracle-state reduction on random
    strategies: chsh and asym3, n=2, d=3, C=(1,), seeds 0-19; exact unless
    mode sets other `ReductionConfig` fields."""
    for name in ("chsh", "asym3"):
        g = fixture(name)
        for seed in range(20):
            cfg = ReductionConfig(game=g, n=2, C=(1,),
                                  strategy=random_strategy(g, 2, 3, seed),
                                  **mode)
            yield f"{name} seed {seed}", cfg, run_reduction(cfg)


@functools.lru_cache(maxsize=None)
def _skew_cases() -> tuple:
    """(case, |p_tilde_i - p_ref_i|, item1_i, the budget's other terms +
    max_context_crosscheck, compare margin) per free coordinate of the
    exact `_random_reports`; each record's item1 is the skew report's."""
    out = []
    for case, cfg, rep in _random_reports():
        skew = depbreak.DepBreakComputer(cfg.game, 2, cfg.strategy,
                                         cfg.C).skew_report()
        assert skew.free == tuple(p.coord for p in rep.per_coord)
        assert tuple(p.item1 for p in rep.per_coord) == skew.item1
        margin = main_bound_compare(rep)["margin"]
        out += [(f"{case} coord {p.coord}", abs(p.p_tilde - p.p_ref),
                 p.item1, p.avg_err + p.bad_mass + rep.max_context_crosscheck,
                 margin) for p in rep.per_coord]
    return tuple(out)


def test_exact_residual_is_within_the_question_skew_and_budget():
    """With the oracle state p_tilde_i and p_ref_i average the same
    per-context win, under mu(x_i, y_i) and under P(x_i, y_i | every held
    round won): their gap is at most the distance item1_i of those laws,
    plus the skipped and invalid mass and the per-context crosscheck."""
    assert [case for case, gap, item1, rest, _m in _skew_cases()
            if gap > item1 + rest] == []


def test_without_the_skew_term_an_exact_residual_exceeds_the_budget():
    """Negative control: the budget's other terms alone miss the skew."""
    assert [case for case, gap, _item1, rest, _m in _skew_cases()
            if gap > rest]


def test_exact_budget_holds_on_random_strategies():
    """With the mean question skew in the exact-mode budget, the main-bound
    comparison passes on all 40 random strategies (18 failed without it,
    the worst margin -1.54e-3)."""
    assert [case for case, *_rest, margin in _skew_cases()
            if margin < -reduction.COMPARE_SLACK] == []


def test_sampled_budget_adds_the_question_skew():
    """Holenstein mode draws (x_i, y_i) from mu, as exact mode weights
    them, so its budget adds the mean item1 too; with it all 40 random
    strategies pass the comparison at 20 000 trials."""
    for case, _cfg, rep in _random_reports(mode_classical="holenstein",
                                           trials=20_000):
        per = rep.per_coord
        rest = (rep.avg_embezzle_err + float(np.mean([p.bad_mass for p in per]))
                + 3.0 * rep.stderr)
        assert rep.error_budget == rest + float(np.mean(
            [p.item1 for p in per])), case
        assert main_bound_compare(rep)["pass_threshold"], case


def _bob_answers_the_next_question(orig):
    def fine_families(self, i, r_a, r_b, x_i, y_i):
        return orig(self, i, r_a, r_b, x_i, (y_i + 1) % self.game.y_size)
    return fine_families


def _alice_reads_the_next_context(orig):
    def fine_families(self, i, r_a, r_b, x_i, y_i):
        size = self.contexts(i).joint.shape[0]
        return orig(self, i, (r_a + 1) % size, r_b, x_i, y_i)
    return fine_families


@pytest.mark.parametrize("broken, fails", [
    (_bob_answers_the_next_question, 7), (_alice_reads_the_next_context, 8)])
def test_exact_budget_catches_a_broken_reduction(monkeypatch, broken, fails):
    """The skew term does not hide a broken measurement: Bob measuring for
    question (y + 1) mod Y, or Alice measuring with the fine family of
    context r + 1, fails the comparison on some of the 40 strategies."""
    monkeypatch.setattr(depbreak.DepBreakComputer, "fine_families",
                        broken(depbreak.DepBreakComputer.fine_families))
    failed = [case for case, _cfg, rep in _random_reports()
              if not main_bound_compare(rep)["pass_threshold"]]
    assert len(failed) == fails, failed


def test_main_bound_compare_margin():
    report = run_reduction(make_config(strategy="detprod"))
    out = main_bound_compare(report)
    assert out["pass_threshold"]
    assert set(out) == {"pass_threshold", "margin"}
    assert abs(out["margin"] - (report.avg_p_tilde - report.avg_p_ref
                                + report.error_budget)) < 1e-15


def test_report_serialization_roundtrip(tmp_path, capsys):
    """The CLI writes the report's JSON and one CSV row per coordinate."""
    report = run_reduction(make_config(strategy="detprod"))
    assert main(["run", "reduction", "--strategy", "detprod",
                 "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["avg_residual"] == report.avg_residual
    assert payload["config"]["mode_classical"] == "exact_conditional"
    assert payload["per_coord"] == [asdict(p) for p in report.per_coord]
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == ("coord,p_tilde,p_ref,residual,trials,stderr,"
                        "failures,disagreements,invalid,bad_mass,avg_err,"
                        "max_err,crosscheck,item1")
    assert len(lines) == 3


AGGREGATE_MODES = {
    "exact": {},
    "holenstein": {"mode_classical": "holenstein", "trials": 600},
    "embezzle": {"mode_classical": "holenstein", "mode_quantum": "embezzle",
                 "trials": 300, "dprime": 32},
    "exact+embezzle": {"mode_quantum": "embezzle", "dprime": 32},
}


@pytest.mark.parametrize("mode", list(AGGREGATE_MODES))
def test_report_aggregates_are_built_from_the_per_coordinate_records(mode):
    """Every aggregate of the report is, bit for bit, the sum, mean or
    maximum of the per-coordinate records it summarizes."""
    report = run_reduction(make_config(strategy="printing", n=3, C=(1,),
                                       seed=3, **AGGREGATE_MODES[mode]))
    per = report.per_coord
    assert [p.coord for p in per] == [0, 2]
    assert all(type(p) is PerCoordinate for p in per)
    col = {f.name: [getattr(p, f.name) for p in per]
           for f in fields(PerCoordinate)}
    for total, name in (("trials_run", "trials"), ("failures", "failures"),
                        ("disagreements", "disagreements"),
                        ("invalid_contexts", "invalid")):
        assert getattr(report, total) == sum(col[name])
    avg_err = float(np.mean(col["avg_err"]))
    stderr = float(np.sqrt(np.sum(np.square(col["stderr"]))) / len(per))
    assert report.avg_embezzle_err == avg_err
    assert report.max_embezzle_err == max(avg_err, *col["max_err"])
    assert report.stderr == stderr
    skew = float(np.mean(col["item1"]))
    assert report.error_budget == (avg_err + float(np.mean(col["bad_mass"]))
                                   + 3.0 * stderr + skew)
    assert report.max_context_crosscheck == max(col["crosscheck"])
    assert report.avg_p_tilde == float(np.mean(col["p_tilde"]))
    assert report.avg_p_ref == float(np.mean(col["p_ref"]))
    assert report.mean_abs_residual == float(np.mean(col["residual"]))
    if mode.startswith("exact"):
        assert col["trials"] == col["failures"] == col["disagreements"] \
            == [0, 0]
    if "embezzle" in mode:
        assert report.avg_embezzle_err > 0.0
    else:
        assert col["avg_err"] == col["max_err"] == [0.0, 0.0]


@pytest.mark.parametrize("seed", range(4))
def test_born_table_mixed_matches_the_kron_loop(seed):
    """The embezzle-mode answer table on a produced density: one
    contraction over rho against one np.kron per answer pair."""
    rng = np.random.default_rng(seed)
    d = 3 if seed % 2 else 4
    psi = matcore.random_pure(d * d, rng=rng)
    other = psi + 1e-3 * matcore.random_pure(d * d, rng=rng)
    rho = qcs_execute(qcs_isometry(psi, 256),
                      qcs_isometry(other / np.linalg.norm(other), 256),
                      d).produced_target
    fa = np.stack(_random_povm(d, 3, rng))
    fb = np.stack(_random_povm(d, 2, rng))
    got = reduction._born_table_mixed(rho, fa, fb)
    assert got.shape == (3, 2)
    assert np.abs(got - born_table_mixed_loop(rho, fa, fb)).max() <= 1e-14


def test_readme_report_table_names_every_report_field():
    """README's `run reduction` table has a row for every field of the
    report and of its per-coordinate record."""
    text = README.read_text()
    section = text[text.index("### The `run reduction` report"):]
    rows = [line.split("|")[1] for line in section.splitlines()
            if line.startswith("| `")]
    named = {name for cell in rows for name in re.findall(r"`([^`]+)`", cell)}
    named |= {name.split("[]")[0] for name in named}   # per_coord itself
    want = ({f.name for f in fields(reduction.ReductionReport)}
            | {f"per_coord[].{f.name}" for f in fields(PerCoordinate)})
    assert want - named == set()
