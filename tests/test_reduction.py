import json
import math

import numpy as np
import pytest

from repgames.games import chsh, win_set
from repgames import reduction
from repgames.reduction import (ReductionConfig, SingleShotStrategy,
                                main_bound_compare, report_to_csv,
                                report_to_json, run_reduction)
from repgames.strategy import born_joint, strategy_fixture

TSIRELSON_VALUE = math.cos(math.pi / 8) ** 2


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
    cond = joint.condition(win_set(g, 2, (1,)))
    expect = cond.prob(win_set(g, 2, (0,)))
    assert abs(report.per_coord[0].p_ref - expect) < 1e-12


def test_auto_holdout_selection():
    cfg = make_config(strategy="tsirelson", C="auto")
    shot = SingleShotStrategy(cfg)
    assert shot.C == ()   # conditioning is inert for a product strategy
    report = run_reduction(cfg)
    assert report.config["C"] == []


def test_holenstein_mode_deterministic_per_seed():
    cfg1 = make_config(mode_classical="holenstein", trials=400, seed=5)
    cfg2 = make_config(mode_classical="holenstein", trials=400, seed=5)
    r1 = run_reduction(cfg1)
    r2 = run_reduction(cfg2)
    assert report_to_json(r1) == report_to_json(r2)
    r3 = run_reduction(make_config(mode_classical="holenstein", trials=400,
                                   seed=6))
    assert report_to_json(r3) != report_to_json(r1)


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
    real = shot.context_win

    def counting(i, ra, rb, x, y):
        calls.append((i, ra, rb, x, y))
        return real(i, ra, rb, x, y)

    monkeypatch.setattr(shot, "context_win", counting)
    stats = reduction._sampled_coordinate(shot, 1, 2000,
                                          np.random.default_rng(3))
    assert stats["failures"] == 0
    assert stats["disagreements"] > 0
    assert len(calls) == len(set(calls))
    assert len(calls) < 2000
    # context keys are flat r indices of the coordinate's r variables
    for i, ra, rb, _x, _y in calls:
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


def test_embezzle_error_shrinks_with_dimension():
    small = run_reduction(make_config(strategy="tsirelson",
                                      mode_quantum="embezzle", dprime=16))
    large = run_reduction(make_config(strategy="tsirelson",
                                      mode_quantum="embezzle", dprime=256))
    assert large.avg_embezzle_err < small.avg_embezzle_err


def test_meets_hypothesis_threshold():
    report = run_reduction(make_config(strategy="tsirelson"))
    # avg_p_ref is cos^2(pi/8) = 0.8535...; eps = 0.3 needs >= 0.85
    assert report.meets_hypothesis(0.3)
    assert not report.meets_hypothesis(0.2)


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


def test_main_bound_compare_margin():
    report = run_reduction(make_config(strategy="detprod"))
    out = main_bound_compare(report, eps=0.6)
    assert out["pass_threshold"]
    assert "hypothesis_met" in out
    assert abs(out["margin"] - (report.avg_p_tilde - report.avg_p_ref
                                + report.error_budget)) < 1e-15


def test_report_serialization_roundtrip():
    report = run_reduction(make_config(strategy="detprod"))
    payload = json.loads(report_to_json(report))
    assert payload["avg_residual"] == report.avg_residual
    assert payload["config"]["mode_classical"] == "exact_conditional"
    assert len(payload["per_coord"]) == 2
    csv_text = report_to_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "coord,p_tilde,p_ref,residual,trials,stderr"
    assert len(lines) == 3
