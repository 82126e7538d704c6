"""Command-line driver for verification suites and batch experiments.

Two subcommands: `verify` runs a named assertion suite and exits 0 only
when every check passes; `run` produces JSON and CSV reports for value,
reduction, sampling, and bound computations.  All randomness is seeded,
so identical invocations reproduce identical payloads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__, suites
from .corrsamp import corr_sample_experiment
from .depbreak import DepBreakComputer
from .games import Game, fixture, load_game
from .prob import FiniteDistribution
from .reduction import (PerCoordinate, ReductionConfig, main_bound_compare,
                        run_reduction)
from .strategy import EntangledStrategy, load_strategy, strategy_fixture
from .values import (classical_value, max_classical_rounds, seesaw_best,
                     theorem1_bound)

GAME_FIXTURES = ("chsh", "always_win", "asym3")
STRATEGY_FIXTURES = ("tsirelson", "printing", "detprod")
GRID_MAX_DIGITS = 4300   # Python's default cap on an int written as text
GRID_MAX_POINTS = 1024   # --n-grid points in one run bound
# the (classical, quantum) sampling modes that --mode sets
MODES = {"exact": ("exact_conditional", "oracle_state"),
         "holenstein": ("holenstein", "oracle_state"),
         "embezzle": ("holenstein", "embezzle"),
         "exact-embezzle": ("exact_conditional", "embezzle")}
SUITES = ("matcore", "entropy", "all", "usefulness", "skew", "xi",
          "sampleability")


class UsageError(ValueError):
    pass


def _escaped(match) -> str:
    """A matched character as repr writes it: \\xNN or \\uNNNN."""
    c = ord(match.group())
    return f"\\x{c:02x}" if c < 0x100 else f"\\u{c:04x}"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Refuse a bad argv in one line, like every other refusal."""
        self.exit(2, f"usage error: {message}\n")


def _require_positive(flag: str, value: int) -> None:
    """Refuse a count below one: a run over no items would pass vacuously."""
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")


def _load_game(spec: str) -> Game:
    if spec in GAME_FIXTURES:
        return fixture(spec)
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"unknown game fixture or missing file: {spec}")
    return load_game(path)


def _load_strategy(spec: str, n: int) -> EntangledStrategy:
    _require_positive("--n", n)
    if spec in STRATEGY_FIXTURES:
        return strategy_fixture(spec, n)
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"unknown strategy fixture or missing file: {spec}")
    s = load_strategy(path)
    if s.n != n:
        raise UsageError(f"strategy file is for n={s.n}, requested n={n}")
    return s


def _parse_c(spec: str, n: int) -> tuple | str:
    """Coordinate set given 1-based, or 'auto'; empty string means empty."""
    if spec == "auto":
        return "auto"
    if spec.strip() in ("", "none"):
        return ()
    vals = []
    for tok in spec.split(","):
        v = int(tok)
        if v < 1 or v > n:
            raise UsageError(f"coordinate {v} outside 1..{n}")
        vals.append(v - 1)
    return tuple(sorted(set(vals)))


def _grid_int(tok: str, power: bool) -> int:
    """One --n-grid integer, or with power the exponent k of 2^k, refused
    before the number is formed if it has more than GRID_MAX_DIGITS digits,
    which json cannot print."""
    tok = tok.strip()
    shown = ("2^" if power else "") + (tok[:32] + "..." if len(tok) > 32
                                       else tok)
    if not re.fullmatch(r"[+-]?[0-9]+", tok):
        raise UsageError(f"--n-grid value {shown} is not an integer")
    size = len(tok.lstrip("+-").lstrip("0"))
    if power:   # 2^k has floor(k log10 2) + 1 digits
        size = int(int(tok) * math.log10(2)) + 1 if size < 10 else math.inf
    if size > GRID_MAX_DIGITS:
        raise UsageError(f"--n-grid value {shown} has more than "
                         f"{GRID_MAX_DIGITS} digits")
    return int(tok)


def _grid_points(count: int) -> None:
    if count > GRID_MAX_POINTS:
        raise UsageError(f"--n-grid has {count} points, more than "
                         f"{GRID_MAX_POINTS}")


def _parse_n_grid(spec: str) -> list:
    """Grid like '2^10..2^60', a comma list, or one integer, of at most
    GRID_MAX_POINTS points, counted before the list is formed."""
    spec = spec.strip()
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        if not (lo.startswith("2^") and hi.startswith("2^")):
            raise UsageError("grid ranges must use the 2^a..2^b form")
        a, b = _grid_int(lo[2:], True), _grid_int(hi[2:], True)
        if a > b:
            raise UsageError("empty grid range")
        _grid_points(b - a + 1)
        return [2 ** k for k in range(a, b + 1)]
    _grid_points(spec.count(",") + 1)
    toks = [tok.strip() for tok in spec.split(",")]
    return [2 ** _grid_int(tok[2:], True) if tok.startswith("2^")
            else _grid_int(tok, False) for tok in toks]


def _csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(payload: dict, csv_text: str, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    if out:
        Path(out + ".json").write_text(text + "\n")
        Path(out + ".csv").write_text(csv_text)
        print(f"wrote {out}.json and {out}.csv")
    else:
        print(text)


def cmd_verify(args) -> int:
    from .infotheory import CheckResult

    _require_positive("--trials", args.trials)
    config = {"suite": args.suite, "trials": args.trials, "seed": args.seed,
              "game": args.game, "strategy": args.strategy, "n": args.n,
              "C": args.C}
    if args.suite == "matcore":
        checks = suites.run_matrix_suite(args.trials, args.seed)
    elif args.suite == "entropy":
        checks = suites.run_entropy_suite(args.trials, args.seed)
    elif args.suite == "all":
        checks = suites.run_all(args.trials, args.seed)
    else:
        g = _load_game(args.game)
        s = _load_strategy(args.strategy, args.n)
        c_spec = _parse_c(args.C, args.n)
        if c_spec == "auto":
            raise UsageError("verification suites need an explicit C")
        comp = DepBreakComputer(g, args.n, s, c_spec)
        if args.suite == "usefulness":
            rep = comp.usefulness_check()
            wrep = comp.weight_check()
            checks = [
                CheckResult("usefulness", rep.contexts,
                            0 if rep.ok() else 1, rep.max_residual,
                            f"null_mass={rep.max_null_mass:.3e}"),
                CheckResult("weights", wrep.contexts,
                            0 if wrep.ok() else 1, wrep.max_abs_error,
                            f"sum_error={wrep.max_sum_error:.3e}"),
            ]
        elif args.suite == "skew":
            rep = comp.skew_report()
            checks = [CheckResult(
                "skew_distances", len(rep.free), 0 if rep.ok() else 1,
                max(rep.avg1, rep.avg2, rep.avg3),
                f"avg1={rep.avg1:.6e} avg2={rep.avg2:.6e} "
                f"avg3={rep.avg3:.6e} delta={rep.delta:.6e}")]
        elif args.suite == "xi":
            rep = comp.xi_raz_check(side=args.side)
            checks = [CheckResult(
                "xi_information_bound", len(rep.per_coord),
                0 if rep.ok() else 1, rep.avg_mi,
                f"delta={rep.delta:.6e} tight={rep.tight_bound:.6e}")]
        else:
            rep = comp.sampleability_distances()
            checks = [CheckResult(
                "sampleability", len(rep.per_coord), 0 if rep.ok() else 1,
                rep.max_triangle_slack,
                f"d_alice={rep.d_alice:.6e} d_bob={rep.d_bob:.6e} "
                f"d_cross={rep.d_cross:.6e}")]

    payload = {"version": __version__, "suite": args.suite, "config": config,
               "checks": [{**asdict(c), "ok": c.ok}
                          for c in checks],
               "passed": all(c.ok for c in checks)}
    rows = [[c.name, c.trials, c.violations, repr(c.max_slack), c.details]
            for c in checks]
    _emit(payload, _csv(["name", "trials", "violations", "max_slack",
                         "details"], rows), args.out)
    return 0 if payload["passed"] else 1


def _run_values(args) -> int:
    _require_positive("--n", args.n)
    _require_positive("--d", args.d)
    _require_positive("--seeds", args.seeds)
    g = _load_game(args.game)
    top = max_classical_rounds(g, args.n)
    if top < args.n:
        largest = (f"the largest allowed is --n {top}" if top
                   else "even --n 1 is above it")
        raise UsageError(f"--n {args.n} exceeds the classical enumeration "
                         f"cap for {args.game}; {largest}")
    rows = []
    entries = []
    for k in range(1, args.n + 1):
        v = classical_value(g, k)
        entries.append({"n": k, "classical_value": v})
        rows.append([k, repr(v), ""])
    best = seesaw_best(g, args.d,
                       seeds=range(args.seed, args.seed + args.seeds),
                       max_iters=500)
    entries.append({"n": 1, "seesaw_value": best.value,
                    "iterations": best.iterations})
    rows.append([1, "", repr(best.value)])
    payload = {"version": __version__,
               "config": {"game": args.game, "n": args.n, "d": args.d,
                          "seeds": args.seeds, "seed": args.seed},
               "results": entries}
    _emit(payload, _csv(["n", "classical_value", "seesaw_value"], rows),
          args.out)
    return 0


def _run_reduction(args) -> int:
    g = _load_game(args.game)
    s = _load_strategy(args.strategy, args.n)
    mode_classical, mode_quantum = MODES[args.mode]
    cfg = ReductionConfig(
        game=g, n=args.n, strategy=s, C=_parse_c(args.C, args.n),
        mode_classical=mode_classical, mode_quantum=mode_quantum,
        dprime=args.dprime, alpha=args.alpha, seed=args.seed,
        trials=args.trials, max_draws=args.max_draws)
    report = run_reduction(cfg)
    payload = {"version": __version__, **asdict(report),
               "compare": main_bound_compare(report)}
    rows = [[repr(v) if isinstance(v, float) else v for v in astuple(p)]
            for p in report.per_coord]
    _emit(payload, _csv([f.name for f in fields(PerCoordinate)], rows),
          args.out)
    return 0


def _run_bound(args) -> int:
    grid = _parse_n_grid(args.n_grid)
    rows = []
    entries = []
    for n in grid:
        rep = theorem1_bound(args.eps, args.s, n, c=args.c,
                             log_base=args.log_base)
        entries.append({"n": n, "raw_value": rep.raw_value,
                        "bound_value": rep.bound_value,
                        "vacuous": rep.vacuous})
        rows.append([n, repr(rep.raw_value), repr(rep.bound_value),
                     int(rep.vacuous)])
    payload = {"version": __version__,
               "config": {"eps": args.eps, "s": args.s, "c": args.c,
                          "log_base": args.log_base, "n_grid": args.n_grid},
               "results": entries}
    _emit(payload, _csv(["n", "raw_value", "bound_value", "vacuous"], rows),
          args.out)
    return 0


def _run_corrsamp(args) -> int:
    if not 0.0 <= args.tv < 0.25:
        raise UsageError("tv must lie in [0, 0.25) for the 4-point pair")
    names = ("u",)
    base = np.full(4, 0.25)
    # moving tv of mass from one cell to another leaves the total at one
    # and makes the pair's total variation distance exactly tv
    shifted = np.array([0.25 - args.tv, 0.25 + args.tv, 0.25, 0.25])
    p = FiniteDistribution(names, base.copy())
    q = FiniteDistribution(names, shifted)
    stats = corr_sample_experiment(p, q, args.trials, args.seed,
                                   args.max_draws)
    payload = {"version": __version__,
               "config": {"tv": args.tv, "trials": args.trials,
                          "seed": args.seed, "max_draws": args.max_draws},
               "results": {
                   "agree_rate": stats.agree_rate,
                   "fail_rate": stats.fail_rate,
                   "tv_a": stats.tv_a, "tv_b": stats.tv_b,
                   "chi2_pvalue_a": stats.chi2_pvalue_a}}
    rows = [[stats.n_runs, repr(stats.agree_rate), repr(stats.fail_rate),
             repr(stats.tv_a), repr(stats.tv_b)]]
    _emit(payload, _csv(["runs", "agree_rate", "fail_rate", "tv_a", "tv_b"],
                        rows), args.out)
    return 0


RUN_TARGETS = {"values": _run_values, "reduction": _run_reduction,
               "bound": _run_bound, "corrsamp": _run_corrsamp}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repgames",
        description="verification and experiment driver for repeated-game "
                    "strategy analysis")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run an assertion suite")
    ver.add_argument("--suite", required=True, choices=SUITES)
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--game", default="chsh")
    ver.add_argument("--strategy", default="tsirelson")
    ver.add_argument("--n", type=int, default=2)
    ver.add_argument("--C", default="2",
                     help="1-based coordinate list, e.g. '2' or '1,3'")
    ver.add_argument("--side", default="alice", choices=("alice", "bob"))
    ver.add_argument("--out", default=None)

    run = sub.add_parser("run", help="run an experiment and emit reports")
    run.add_argument("target", choices=tuple(RUN_TARGETS))
    run.add_argument("--game", default="chsh")
    run.add_argument("--strategy", default="tsirelson")
    run.add_argument("--n", type=int, default=2)
    run.add_argument("--C", default="")
    run.add_argument("--mode", default="exact", choices=tuple(MODES),
                     help="sampling modes (classical, quantum): " + "; ".join(
                         f"{k} = {c}, {q}" for k, (c, q) in MODES.items()))
    run.add_argument("--dprime", type=int, default=256)
    run.add_argument("--alpha", type=float, default=0.01)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=10000)
    run.add_argument("--max-draws", type=int, default=4000)
    run.add_argument("--d", type=int, default=2)
    run.add_argument("--seeds", type=int, default=10,
                     help="number of seesaw restarts")
    run.add_argument("--eps", type=float, default=0.25)
    run.add_argument("--s", type=float, default=2.0)
    run.add_argument("--c", type=float, default=1.0)
    run.add_argument("--log-base", type=float, default=2.0)
    run.add_argument("--n-grid", default="2^10..2^40")
    run.add_argument("--tv", type=float, default=0.1)
    run.add_argument("--out", default=None)
    parser.sub_commands = {"verify": ver, "run": run}
    return parser


def _config_value(action: argparse.Action, value):
    """A --config value parsed as its text would be on the command line."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError
        parsed = (action.type or str)(str(value))
        if action.choices is not None and parsed not in action.choices:
            raise ValueError
        return parsed
    except ValueError:
        wanted = ("at least 0" if action.dest == "seed"   # main's seed rule
                  else "one of " + ", ".join(action.choices) if action.choices
                  else {int: "an integer", float: "a number"}.get(action.type, "a string"))
        raise UsageError(f"{action.option_strings[0]} must be {wanted}, "
                         f"got {value}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            defaults = json.loads(Path(args.config).read_text())
            if not isinstance(defaults, dict):
                raise ValueError("the config file must hold one JSON object")
            flags = {a.dest for sub in parser.sub_commands.values()
                     for a in sub._actions
                     if a.option_strings and a.dest != "help"}
            unknown = sorted(set(defaults) - flags)
            if unknown:
                raise UsageError("--config key names no flag of verify or "
                                 "run: " + ", ".join(map(repr, unknown)))
            # defaults must land on the subcommand parsers: each subparser
            # re-applies its own defaults over the shared namespace, so
            # setting them on the top-level parser alone has no effect.
            for sub in parser.sub_commands.values():
                sub.set_defaults(**{a.dest: _config_value(a, defaults[a.dest])
                                    for a in sub._actions if a.dest in defaults})
            args = parser.parse_args(argv)
        if args.seed < 0:
            raise UsageError(f"--seed must be at least 0, got {args.seed}")
        if args.command == "verify":
            return cmd_verify(args)
        return RUN_TARGETS[args.target](args)
    except (ValueError, OSError) as exc:
        # escape C0, DEL, C1 and the two Unicode line and paragraph
        # separators, every character str.splitlines() splits at, so a name
        # the user gave stays on one line
        kind = "usage" if isinstance(exc, UsageError) else "config"
        text = re.sub(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]", _escaped,
                      str(exc))
        print(f"{kind} error: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
