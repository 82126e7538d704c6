"""Single-shot strategy assembled from the dependency-breaking pieces.

Players receiving one question pair (x_i, y_i) use shared randomness to
pick a coordinate and a dependency-breaking value r, prepare (or
approximate) the conditional shared state, and measure with the fine
answer operators.  The residual of interest is the gap between the
assembled strategy's win probability and the conditional win probability
it is meant to reproduce.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .corrsamp import (qcs_error_against, qcs_execute, qcs_isometry,
                       shared_stream_sample)
from .depbreak import (SUPPORT_MASS, DepBreakComputer, choose_C,
                       pure_born_table)
from .games import Game, win_set
from .prob import ZERO_MASS, ZeroProbabilityEvent
from .strategy import EntangledStrategy

CLASSICAL_MODES = ("exact_conditional", "holenstein")
QUANTUM_MODES = ("oracle_state", "embezzle")


@dataclass
class ReductionConfig:
    game: Game
    n: int
    strategy: EntangledStrategy
    C: tuple | str = ()
    mode_classical: str = "exact_conditional"
    mode_quantum: str = "oracle_state"
    dprime: int = 256
    alpha: float = 0.01
    seed: int = 0
    trials: int = 10_000
    max_draws: int = 4_000
    auto_eps: float = 0.5
    auto_tmax: int = 2

    def __post_init__(self):
        if self.mode_classical not in CLASSICAL_MODES:
            raise ValueError("unknown classical sampling mode")
        if self.mode_quantum not in QUANTUM_MODES:
            raise ValueError("unknown quantum preparation mode")
        if self.is_sampled and (self.trials < 1 or self.max_draws < 1):
            raise ValueError(
                "Monte Carlo modes need at least one trial and one draw")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be a positive finite number")

    @property
    def is_sampled(self) -> bool:
        return self.mode_classical == "holenstein"

    def summary(self) -> dict:
        return {
            "game": self.game.name, "n": self.n,
            "strategy": self.strategy.name, "C": list(self.C),
            "mode_classical": self.mode_classical,
            "mode_quantum": self.mode_quantum,
            "dprime": self.dprime, "alpha": self.alpha,
            "seed": self.seed,
            "trials": self.trials if self.is_sampled else 0,
            "max_draws": self.max_draws,
        }


@dataclass
class PerCoordinate:
    coord: int
    p_tilde: float
    p_ref: float
    residual: float
    trials: int
    stderr: float


@dataclass
class ReductionReport:
    config: dict
    per_coord: list
    avg_p_tilde: float
    avg_p_ref: float
    avg_residual: float
    mean_abs_residual: float
    stderr: float
    trials_run: int
    failures: int
    disagreements: int
    invalid_contexts: int
    avg_embezzle_err: float
    max_embezzle_err: float
    error_budget: float
    max_context_crosscheck: float
    p_win_c: float

    def meets_hypothesis(self, eps: float) -> bool:
        """Whether the conditional score clears the 1 - eps/2 threshold."""
        return self.avg_p_ref >= 1.0 - eps / 2.0


class SingleShotStrategy:
    """One-round strategy simulating coordinate i of the repeated game.

    Exposes exact per-context win probabilities plus a batched sampler of
    r pairs; the classical mode controls how the dependency-breaking value
    is drawn and the quantum mode controls how the shared state is prepared.
    """

    def __init__(self, cfg: ReductionConfig):
        self.cfg = cfg
        g, n = cfg.game, cfg.n
        c_set = cfg.C
        if isinstance(c_set, str):
            if c_set != "auto":
                raise ValueError("C must be a tuple or 'auto'")
            probe = DepBreakComputer(g, n, cfg.strategy, ())
            sel = choose_C(probe.ext, g, n, cfg.auto_eps, cfg.auto_tmax)
            c_set = sel.C
        self.computer = DepBreakComputer(g, n, cfg.strategy, c_set)
        self.C = self.computer.C
        self.free = self.computer.free
        self.p_win_c = float(self.computer.ext.prob(win_set(g, n, self.C)))
        if self.p_win_c <= ZERO_MASS:
            raise ZeroProbabilityEvent("holdout rounds are never all won")
        self._law_cache = {}
        self._win_cache = {}
        win = np.asarray(g.predicate, dtype=float)
        self._win_pairs = {
            (x, y): np.argwhere(win[x, y] > 0.0)
            for x in range(g.x_size) for y in range(g.y_size)}

    # ---- dependency-breaking value bookkeeping ---------------------------

    def r_dims(self, i: int) -> tuple:
        table = self.computer.contexts(i)
        return table.names, table.sizes

    def r_to_flat(self, i: int, r: tuple) -> int:
        """Flat index of r given as flat_to_r returns it."""
        omega, a_c, b_c = r
        names, sizes = self.r_dims(i)
        return int(np.ravel_multi_index(
            tuple(omega[nm] for nm in names[:len(omega)]) + a_c + b_c, sizes))

    def flat_to_r(self, i: int, flat: int) -> tuple:
        """(omega, a_C, b_C) of a flat r index."""
        return self.computer.contexts(i).split(flat)

    def law(self, i: int, kind: str, x: int | None = None,
            y: int | None = None) -> np.ndarray | None:
        """Flat conditional law of r given the named evidence, or None.

        kind "joint" conditions on both questions, "alice" only on x,
        "bob" only on y; all are further conditioned on winning C.
        """
        key = (i, kind, x, y)
        if key not in self._law_cache:
            self._law_cache[key] = self.computer.contexts(i).law(
                x if kind in ("joint", "alice") else None,
                y if kind in ("joint", "bob") else None)
        return self._law_cache[key]

    # ---- per-context evaluation ------------------------------------------

    def _born_table_mixed(self, rho: np.ndarray, fa: np.ndarray,
                          fb: np.ndarray) -> np.ndarray:
        ka, kb = fa.shape[0], fb.shape[0]
        out = np.zeros((ka, kb))
        for a in range(ka):
            for b in range(kb):
                out[a, b] = float(np.real(
                    np.trace(np.kron(fa[a], fb[b]) @ rho)))
        return out

    def context_win(self, i: int, ra: int, rb: int, x: int,
                    y: int) -> tuple:
        """(win probability, embezzlement error, valid) for one context.

        ra and rb are flat indices of Alice's and Bob's r values.
        """
        key = (i, ra, rb, x, y)
        if key in self._win_cache:
            return self._win_cache[key]
        out = self._context_win(i, ra, rb, x, y)
        self._win_cache[key] = out
        return out

    def _context_win(self, i: int, r_a: int, r_b: int, x: int,
                     y: int) -> tuple:
        ref_state, _w = self.computer.state_for(i, r_a, x, y)
        if ref_state is None:
            return 0.0, 0.0, False
        fa, fb = self.computer.fine_families(i, r_a, r_b, x, y)
        err = 0.0
        if self.cfg.mode_quantum == "embezzle":
            state_a, _ = self.computer.state_variants(i, r_a, x, y)["x"]
            state_b, _ = self.computer.state_variants(i, r_b, x, y)["y"]
            if state_a is None or state_b is None:
                return 0.0, 0.0, False
            iso_a = qcs_isometry(state_a, self.cfg.dprime, self.cfg.alpha)
            iso_b = qcs_isometry(state_b, self.cfg.dprime, self.cfg.alpha)
            res = qcs_execute(iso_a, iso_b, self.computer.d)
            err = qcs_error_against(iso_a, iso_b, ref_state)
            table = self._born_table_mixed(res.produced_target, fa, fb)
        else:
            table = pure_born_table(ref_state, fa, fb)
        pairs = self._win_pairs[(x, y)]
        p = float(np.clip(sum(table[a, b] for a, b in pairs), 0.0, 1.0))
        return p, float(err), True

    # ---- trial protocol ----------------------------------------------------

    def sample_r_pair(self, i: int, x: int, y: int, m: int,
                      rng: np.random.Generator) -> tuple:
        """m shared-stream draws of (r_a, r_b) for the question pair (x, y).

        Alice samples from her law of r given x, Bob from his given y.
        Returns flat (r_a, r_b) arrays with agreed and failed masks; every
        run fails when either side's law does not exist.
        """
        pa = self.law(i, "alice", x=x)
        pb = self.law(i, "bob", y=y)
        if pa is None or pb is None:
            ra, rb = np.full((2, m), -1, dtype=np.int64)
            return ra, rb, np.zeros(m, dtype=bool), np.ones(m, dtype=bool)
        return shared_stream_sample(pa, pb, m, rng, self.cfg.max_draws)


def _reference_win(shot: SingleShotStrategy, i: int) -> float:
    """P(win round i | every held round won), from the context table."""
    table = shot.computer.contexts(i)
    won = table.joint[table.held_won]
    return float((won * shot.cfg.game.predicate).sum() / won.sum())


def _exact_coordinate(shot: SingleShotStrategy, i: int) -> tuple:
    """Closed-form P-tilde for one coordinate plus error accounting.

    Contexts are weighted by mu(x, y) P(r | x, y, every held round won);
    r of conditional probability at most SUPPORT_MASS is left out.
    """
    g = shot.cfg.game
    joint = shot.computer.contexts(i).joint
    p_tilde = 0.0
    err_acc = 0.0
    crosscheck = 0.0
    invalid_mass = 0.0
    invalid_count = 0
    for x in range(g.x_size):
        for y in range(g.y_size):
            w_q = float(g.mu[x, y])
            if w_q <= 0.0:
                continue
            law = shot.law(i, "joint", x, y)
            if law is None:
                invalid_mass += w_q
                invalid_count += 1
                continue
            for flat in np.flatnonzero(law > SUPPORT_MASS).tolist():
                w = w_q * float(law[flat])
                p, err, valid = shot.context_win(i, flat, flat, x, y)
                if not valid:
                    invalid_mass += w
                    invalid_count += 1
                    continue
                p_tilde += w * p
                err_acc += w * min(err, 1.0)
                if shot.cfg.mode_quantum == "oracle_state":
                    cell = joint[flat, x, y]
                    brute = float((cell * g.predicate[x, y]).sum()
                                  / cell.sum())
                    crosscheck = max(crosscheck, abs(p - brute))
    return p_tilde, err_acc, crosscheck, invalid_mass, invalid_count


def _sampled_coordinate(shot: SingleShotStrategy, i: int, trials: int,
                        rng: np.random.Generator) -> dict:
    """Monte Carlo estimate for one coordinate with per-trial exact wins.

    Trials are drawn one question-pair group at a time, and each distinct
    context is evaluated once.
    """
    g = shot.cfg.game
    mu_flat = np.asarray(g.mu, dtype=float).ravel()
    qs = rng.choice(mu_flat.size, size=trials, p=mu_flat / mu_flat.sum())
    ra = np.empty(trials, dtype=np.int64)
    rb = np.empty(trials, dtype=np.int64)
    agreed = np.empty(trials, dtype=bool)
    failed = np.empty(trials, dtype=bool)
    for q in np.unique(qs):
        rows = np.flatnonzero(qs == q)
        x, y = divmod(int(q), g.y_size)
        ra[rows], rb[rows], agreed[rows], failed[rows] = shot.sample_r_pair(
            i, x, y, rows.size, rng)
    ok = np.flatnonzero(~failed)
    wins = np.zeros(trials)
    errs = np.zeros(trials)
    invalid = 0
    if ok.size:
        r_size = math.prod(shot.r_dims(i)[1])
        keys, inverse = np.unique(
            (qs[ok] * r_size + ra[ok]) * r_size + rb[ok], return_inverse=True)
        outs = []
        for key in keys.tolist():
            q, r_pair = divmod(key, r_size * r_size)
            outs.append(shot.context_win(i, *divmod(r_pair, r_size),
                                         *divmod(q, g.y_size)))
        p, err, valid = (np.array(col) for col in zip(*outs))
        # an invalid context reports p = err = 0, so it scores as a loss
        wins[ok] = p[inverse]
        errs[ok] = np.minimum(err, 1.0)[inverse]
        invalid = int(ok.size - valid[inverse].sum())
    p_tilde = float(wins.mean())
    stderr = float(wins.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.5
    return {"p_tilde": p_tilde, "stderr": stderr, "trials": trials,
            "failures": int(failed.sum()),
            "disagreements": int((~failed & ~agreed).sum()),
            "invalid": invalid,
            "avg_err": float(errs.mean()), "max_err": float(errs.max())}


def run_reduction(cfg: ReductionConfig) -> ReductionReport:
    """Evaluate the assembled strategy against its conditional target.

    Exact classical mode enumerates every context in closed form; the
    holenstein mode runs seeded Monte Carlo trials.  Either way the
    reference values come from the brute-force conditional table.
    """
    shot = SingleShotStrategy(cfg)
    rng = np.random.default_rng([int(cfg.seed)])
    per = []
    failures = disagreements = invalid = 0
    err_avg_acc = []
    bad_mass_acc = []
    err_max = 0.0
    crosscheck = 0.0
    trials_run = 0
    for i in shot.free:
        p_ref = _reference_win(shot, i)
        if cfg.is_sampled:
            trials_i = max(1, cfg.trials // len(shot.free))
            stats = _sampled_coordinate(shot, i, trials_i, rng)
            p_tilde = stats["p_tilde"]
            stderr = stats["stderr"]
            failures += stats["failures"]
            disagreements += stats["disagreements"]
            invalid += stats["invalid"]
            err_avg_acc.append(stats["avg_err"])
            err_max = max(err_max, stats["max_err"])
            trials_run += stats["trials"]
            bad_mass_acc.append(
                (stats["failures"] + stats["disagreements"]
                 + stats["invalid"]) / stats["trials"])
            reported_trials = stats["trials"]
        else:
            p_tilde, err_acc, cc, bad_mass, bad_count = _exact_coordinate(
                shot, i)
            stderr = 0.0
            err_avg_acc.append(err_acc)
            err_max = max(err_max, err_acc)
            crosscheck = max(crosscheck, cc)
            bad_mass_acc.append(bad_mass)
            invalid += bad_count
            reported_trials = 0
        per.append(PerCoordinate(i, p_tilde, p_ref,
                                 abs(p_tilde - p_ref), reported_trials,
                                 stderr))
    avg_p_tilde = float(np.mean([p.p_tilde for p in per]))
    avg_p_ref = float(np.mean([p.p_ref for p in per]))
    stderr_avg = float(np.sqrt(np.sum([p.stderr ** 2 for p in per]))
                       / len(per))
    avg_err = float(np.mean(err_avg_acc)) if err_avg_acc else 0.0
    bad_rate = float(np.mean(bad_mass_acc)) if bad_mass_acc else 0.0
    budget = avg_err + bad_rate + 3.0 * stderr_avg
    summary = cfg.summary()
    summary["C"] = list(shot.C)   # record the resolved holdout, not "auto"
    return ReductionReport(
        summary, per, avg_p_tilde, avg_p_ref,
        abs(avg_p_tilde - avg_p_ref),
        float(np.mean([p.residual for p in per])), stderr_avg,
        trials_run, failures, disagreements, invalid,
        avg_err, err_max, budget, crosscheck, shot.p_win_c)


def main_bound_compare(report: ReductionReport, eps: float | None = None,
                       tol: float = 1e-8) -> dict:
    """Check the assembled value against the conditional score minus budget."""
    margin = report.avg_p_tilde - report.avg_p_ref + report.error_budget
    out = {"pass_threshold": bool(margin >= -tol), "margin": float(margin)}
    if eps is not None:
        out["hypothesis_met"] = report.meets_hypothesis(eps)
    return out


def report_to_json(report: ReductionReport) -> str:
    payload = {
        "version": __version__,
        "config": report.config,
        "per_coord": [{
            "coord": p.coord, "p_tilde": p.p_tilde, "p_ref": p.p_ref,
            "residual": p.residual, "trials": p.trials, "stderr": p.stderr,
        } for p in report.per_coord],
        "avg_p_tilde": report.avg_p_tilde,
        "avg_p_ref": report.avg_p_ref,
        "avg_residual": report.avg_residual,
        "mean_abs_residual": report.mean_abs_residual,
        "stderr": report.stderr,
        "trials_run": report.trials_run,
        "failures": report.failures,
        "disagreements": report.disagreements,
        "invalid_contexts": report.invalid_contexts,
        "avg_embezzle_err": report.avg_embezzle_err,
        "max_embezzle_err": report.max_embezzle_err,
        "error_budget": report.error_budget,
        "max_context_crosscheck": report.max_context_crosscheck,
        "p_win_c": report.p_win_c,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def report_to_csv(report: ReductionReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["coord", "p_tilde", "p_ref", "residual", "trials",
                     "stderr"])
    for p in report.per_coord:
        writer.writerow([p.coord, repr(p.p_tilde), repr(p.p_ref),
                         repr(p.residual), p.trials, repr(p.stderr)])
    return buf.getvalue()
