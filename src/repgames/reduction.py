"""Single-shot strategy assembled from the dependency-breaking pieces.

Players receiving one question pair (x_i, y_i) use shared randomness to
pick a coordinate and a dependency-breaking value r, prepare (or
approximate) the conditional shared state, and measure with the fine
answer operators.  The residual of interest is the gap between the
assembled strategy's win probability and the conditional win probability
it is meant to reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrsamp import qcs_execute, qcs_isometry, shared_stream_sample
from .depbreak import (ZERO_WEIGHT, DepBreakComputer, chunks,
                       conditioned_contexts)
from .games import Game
from .prob import MAX_TABLE_ENTRIES
from .strategy import EntangledStrategy, pure_born_table

CLASSICAL_MODES = ("exact_conditional", "holenstein")
QUANTUM_MODES = ("oracle_state", "embezzle")
COMPARE_SLACK = 1e-8    # rounding slack of the main-bound comparison


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

    def __post_init__(self):
        if self.mode_classical not in CLASSICAL_MODES:
            raise ValueError("unknown classical sampling mode")
        if self.mode_quantum not in QUANTUM_MODES:
            raise ValueError("unknown quantum preparation mode")
        if self.is_sampled and not 1 <= self.trials <= MAX_TABLE_ENTRIES:
            raise ValueError(f"Monte Carlo modes need 1 to {MAX_TABLE_ENTRIES}"
                             f" trials (the entry cap), got {self.trials}")
        if self.max_draws < 1:
            raise ValueError(f"max_draws must be at least 1, got "
                             f"{self.max_draws}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be a positive finite number")
        if self.dprime < 1:
            raise ValueError(f"dprime must be at least 1, got {self.dprime}")

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
    """One free coordinate's score and error accounting.

    p_ref is P(win round coord | W_C) and residual is |p_tilde - p_ref|.
    bad_mass is the failed, disagreeing and invalid share of the trials,
    or in exact mode the weight of the question pairs with no law of r and
    of the invalid contexts; avg_err and max_err are the mean and largest
    embezzlement error, clipped at 1; crosscheck is the largest gap between
    a context's oracle-state win and its brute-force Born-table win.
    item1 is the total variation between P(x_i, y_i) and P(x_i, y_i | W_C)
    (`ContextTable.question_skew`): every mode takes (x_i, y_i) from the
    first law, exactly or by sampling, and p_ref weights them by the
    second.  Exact mode leaves trials, stderr, failures and disagreements
    at 0.
    """
    coord: int
    p_tilde: float
    p_ref: float
    residual: float
    trials: int = 0
    stderr: float = 0.0
    failures: int = 0
    disagreements: int = 0
    invalid: int = 0
    bad_mass: float = 0.0
    avg_err: float = 0.0
    max_err: float = 0.0
    crosscheck: float = 0.0
    item1: float = 0.0


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


def _born_table_mixed(rho: np.ndarray, fa: np.ndarray,
                      fb: np.ndarray) -> np.ndarray:
    """Joint answer table tr((F_a (x) G_b) rho) of two `(k, d, d)` POVM
    families on a density over C^d (x) C^d, one contraction over rho as
    (d, d, d, d)."""
    d = fa.shape[-1]
    return np.einsum("aij,bkl,jlik->ab", fa, fb,
                     rho.reshape(d, d, d, d)).real


class SingleShotStrategy:
    """One-round strategy simulating coordinate i of the repeated game.

    Exposes exact per-context win probabilities plus a batched sampler of
    r pairs; the classical mode controls how the dependency-breaking value
    is drawn and the quantum mode controls how the shared state is prepared.
    """

    def __init__(self, cfg: ReductionConfig):
        self.cfg = cfg
        self.computer = DepBreakComputer(cfg.game, cfg.n, cfg.strategy, cfg.C)
        self.C = self.computer.C
        self.free = self.computer.free

    # ---- dependency-breaking value bookkeeping ---------------------------

    def r_to_flat(self, i: int, r: tuple) -> int:
        """Flat index of r given as flat_to_r returns it."""
        omega, a_c, b_c = r
        table = self.computer.contexts(i)
        return int(np.ravel_multi_index(
            tuple(omega[nm] for nm in table.names[:len(omega)]) + a_c + b_c,
            table.sizes))

    def flat_to_r(self, i: int, flat: int) -> tuple:
        """(omega, a_C, b_C) of a flat r index."""
        return self.computer.contexts(i).split(flat)

    def law(self, i: int, x: int | None = None,
            y: int | None = None) -> np.ndarray | None:
        """`ContextTable.law` of free coordinate i."""
        return self.computer.contexts(i).law(x, y)

    # ---- per-context evaluation ------------------------------------------

    def context_win(self, i: int, ra: int, rb: int, x: int,
                    y: int) -> tuple:
        """(win probability, embezzlement error, valid) for one context:
        `context_wins` on a stack of one, ra and rb flat r indices."""
        p, err, valid = self.context_wins(i, *(np.array([v]) for v in
                                               (ra, rb, x, y)))
        return float(p[0]), float(err[0]), bool(valid[0])

    def context_wins(self, i: int, r_a: np.ndarray, r_b: np.ndarray,
                     x: np.ndarray, y: np.ndarray) -> tuple:
        """(win probability, embezzlement error, valid) arrays for the
        contexts (r_a[k], r_b[k], x[k], y[k]) of coordinate i.

        The reference state comes from r_a, Alice's fine family from r_a
        and Bob's from r_b; they are read from the coordinate's operator
        stacks a block of contexts at a time (`depbreak.chunks`).  An
        invalid context (no reference state, or no one-sided state to
        embezzle) reports p = err = 0.
        """
        g, comp = self.cfg.game, self.computer
        p = np.zeros(r_a.size)
        err = np.zeros(r_a.size)
        valid = np.zeros(r_a.size, dtype=bool)
        for part in chunks(r_a.size, comp.d ** 2):
            ra, rb, xs, ys = r_a[part], r_b[part], x[part], y[part]
            ref, weight = comp.state_for(i, ra, xs, ys)
            ok = weight > ZERO_WEIGHT
            fa, fb = comp.fine_families(i, ra, rb, xs, ys)
            errs = np.zeros(ok.size)
            if self.cfg.mode_quantum == "embezzle":
                state_a, w_a = comp.state_variants(i, ra, xs, ys)["x"]
                state_b, w_b = comp.state_variants(i, rb, xs, ys)["y"]
                ok &= (w_a > ZERO_WEIGHT) & (w_b > ZERO_WEIGHT)
                tables = np.zeros(fa.shape[:2] + fb.shape[1:2])
                for k in np.flatnonzero(ok).tolist():
                    iso_a = qcs_isometry(state_a[k], self.cfg.dprime,
                                         self.cfg.alpha)
                    iso_b = qcs_isometry(state_b[k], self.cfg.dprime,
                                         self.cfg.alpha)
                    res = qcs_execute(iso_a, iso_b, comp.d, ref[k])
                    errs[k] = res.ref_err
                    tables[k] = _born_table_mixed(res.produced_target,
                                                  fa[k], fb[k])
            else:
                tables = pure_born_table(ref, fa, fb)
            won = tables[:, :g.a_size, :g.b_size] * g.predicate[xs, ys]
            p[part] = np.where(ok, np.clip(won.sum(axis=(1, 2)), 0.0, 1.0),
                               0.0)
            err[part] = np.where(ok, errs, 0.0)
            valid[part] = ok
        return p, err, valid

    # ---- trial protocol ----------------------------------------------------

    def sample_r_pair(self, i: int, x: int, y: int, m: int,
                      rng: np.random.Generator) -> tuple:
        """m shared-stream draws of (r_a, r_b) for the question pair (x, y).

        Alice samples from her law of r given x, Bob from his given y.
        Returns flat (r_a, r_b) arrays with agreed and failed masks; every
        run fails when either side's law does not exist.
        """
        pa = self.law(i, x=x)
        pb = self.law(i, y=y)
        if pa is None or pb is None:
            ra, rb = np.full((2, m), -1, dtype=np.int64)
            return ra, rb, np.zeros(m, dtype=bool), np.ones(m, dtype=bool)
        return shared_stream_sample(pa, pb, m, rng, self.cfg.max_draws)


def _record(shot: SingleShotStrategy, i: int, p_tilde: float,
            **terms) -> PerCoordinate:
    """Coordinate i's record, scored against P(win round i | W_C), with
    the question skew of its context table."""
    p_ref = shot.computer.win_given_held(i)
    return PerCoordinate(i, p_tilde, p_ref, abs(p_tilde - p_ref), **terms,
                         item1=shot.computer.contexts(i).question_skew())


def _exact_coordinate(shot: SingleShotStrategy, i: int) -> PerCoordinate:
    """Closed-form P-tilde for one coordinate plus error accounting.

    Contexts are weighted by mu(x, y) P(r | x, y, every held round won);
    r of conditional probability at most SUPPORT_MASS is left out.
    """
    g = shot.cfg.game
    table = shot.computer.contexts(i)
    r, x, y, w, invalid_mass, invalid_count = conditioned_contexts(g, table)
    p, err, valid = shot.context_wins(i, r, r, x, y)
    invalid_mass += float(w[~valid].sum())
    invalid_count += int(valid.size - valid.sum())
    r, x, y, w, p, err = (v[valid] for v in (r, x, y, w, p, err))
    err = np.minimum(err, 1.0)
    crosscheck = 0.0
    if shot.cfg.mode_quantum == "oracle_state" and p.size:
        cell = table.joint[r, x, y]
        brute = ((cell * g.predicate[x, y]).sum(axis=(1, 2))
                 / cell.sum(axis=(1, 2)))
        crosscheck = float(np.abs(p - brute).max())
    # the weights' total is not renormalised, so its rounding can carry
    # the weighted mean of probabilities past 1; clip it as p is clipped
    return _record(shot, i, float(np.clip(w @ p, 0.0, 1.0)),
                   invalid=invalid_count, bad_mass=invalid_mass,
                   avg_err=float(w @ err),
                   max_err=float(err.max(initial=0.0)), crosscheck=crosscheck)


def _sampled_coordinate(shot: SingleShotStrategy, i: int, trials: int,
                        rng: np.random.Generator) -> PerCoordinate:
    """Monte Carlo estimate for one coordinate with per-trial exact wins.

    Trials are drawn one question-pair group at a time, and the distinct
    contexts are evaluated together in one `context_wins` call.
    """
    g = shot.cfg.game
    mu_flat = np.asarray(g.mu, dtype=float).ravel()
    qs = rng.choice(mu_flat.size, size=trials, p=mu_flat / mu_flat.sum())
    ra = np.empty(trials, dtype=np.int64)
    rb = np.empty(trials, dtype=np.int64)
    agreed = np.empty(trials, dtype=bool)
    failed = np.empty(trials, dtype=bool)
    # the question pairs drawn, ascending (np.unique would import numpy.ma)
    for q in np.flatnonzero(np.bincount(qs)):
        rows = np.flatnonzero(qs == q)
        x, y = divmod(int(q), g.y_size)
        ra[rows], rb[rows], agreed[rows], failed[rows] = shot.sample_r_pair(
            i, x, y, rows.size, rng)
    ok = np.flatnonzero(~failed)
    wins = np.zeros(trials)
    errs = np.zeros(trials)
    invalid = 0
    if ok.size:
        r_size = math.prod(shot.computer.contexts(i).sizes)
        keys, inverse = np.unique(
            (qs[ok] * r_size + ra[ok]) * r_size + rb[ok], return_inverse=True)
        q, r_pair = np.divmod(keys, r_size * r_size)
        p, err, valid = shot.context_wins(i, *np.divmod(r_pair, r_size),
                                          *np.divmod(q, g.y_size))
        # an invalid context reports p = err = 0, so it scores as a loss
        wins[ok] = p[inverse]
        errs[ok] = np.minimum(err, 1.0)[inverse]
        invalid = int(ok.size - valid[inverse].sum())
    failures = int(failed.sum())
    disagreements = int((~failed & ~agreed).sum())
    return _record(
        shot, i, float(wins.mean()),
        stderr=(float(wins.std(ddof=1) / np.sqrt(trials)) if trials > 1
                else 0.5),
        trials=trials, failures=failures, disagreements=disagreements,
        invalid=invalid,
        bad_mass=(failures + disagreements + invalid) / trials,
        avg_err=float(errs.mean()), max_err=float(errs.max()))


def run_reduction(cfg: ReductionConfig) -> ReductionReport:
    """Evaluate the assembled strategy against its conditional target.

    Exact classical mode enumerates every context in closed form; the
    holenstein mode runs seeded Monte Carlo trials.  Either way the
    reference value of round i is P(win round i | W_C), read off the Born
    table (`DepBreakComputer.win_given_held`).  The error budget sums the
    mean embezzlement error, the mean bad mass, three standard errors and
    the mean question skew item1: every mode weights or draws (x_i, y_i)
    by mu where p_ref weights them by P(x_i, y_i | W_C).
    """
    shot = SingleShotStrategy(cfg)
    rng = np.random.default_rng([int(cfg.seed)])
    trials = max(1, cfg.trials // len(shot.free))
    per = []
    for i in shot.free:
        per.append(_sampled_coordinate(shot, i, trials, rng)
                   if cfg.is_sampled else _exact_coordinate(shot, i))
        shot.computer.release(i)     # each coordinate is visited once

    def mean(name: str) -> float:
        return float(np.mean([getattr(p, name) for p in per]))

    avg_p_tilde, avg_p_ref, avg_err = (mean("p_tilde"), mean("p_ref"),
                                       mean("avg_err"))
    stderr_avg = float(np.sqrt(np.sum([p.stderr ** 2 for p in per]))
                       / len(per))
    # a mean exceeds the largest term only by rounding
    max_err = max(avg_err, *(p.max_err for p in per))
    summary = cfg.summary()
    summary["C"] = list(shot.C)   # record the resolved holdout, not "auto"
    return ReductionReport(
        summary, per, avg_p_tilde, avg_p_ref, abs(avg_p_tilde - avg_p_ref),
        mean("residual"), stderr_avg, sum(p.trials for p in per),
        sum(p.failures for p in per), sum(p.disagreements for p in per),
        sum(p.invalid for p in per), avg_err, max_err,
        avg_err + mean("bad_mass") + 3.0 * stderr_avg + mean("item1"),
        max(p.crosscheck for p in per), shot.computer.p_win_c)


def main_bound_compare(report: ReductionReport) -> dict:
    """Check the assembled value against the conditional score minus budget."""
    margin = report.avg_p_tilde - report.avg_p_ref + report.error_budget
    return {"pass_threshold": bool(margin >= -COMPARE_SLACK),
            "margin": float(margin)}
