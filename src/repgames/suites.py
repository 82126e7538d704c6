"""Randomized verification sweeps for the matrix and entropy facts.

Each sweep draws seeded random instances, checks one inequality or
identity at its stated slack, and reports a CheckResult.  A nonzero
violation count in any result is a correctness failure, not noise.  Trials
are drawn grouped by dimension (by (k, d) for the cq sweeps); each group is
one stack for the kernels, checked with whole-array operations.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import matcore
from .infotheory import (CheckResult, CQState, chain_rule_check,
                         raz_lemma_check, relative_entropy,
                         relative_min_entropy)

SWEEP_SLACK = 1e-9      # rounding slack of every matrix and entropy inequality
GROUP_CHUNK = 1024      # trials per stack, so a sweep's memory does not grow with its trials
SWEEP_DIMS = range(2, 9)   # matrix dimensions a matrix or entropy sweep draws
RAZ_TRIALS = 500        # the entropy suite's cap on the raz sweep's trials


def _draw(seed: int, tag: int, trials: int, ranges, check) -> list:
    """Join the outputs of check(rng, n, *combo) over the groups of trials.

    Each trial draws a combination of the ranges uniformly; the n trials of
    a combination are one group (split into stacks of at most GROUP_CHUNK),
    and check returns arrays of n entries.
    """
    if trials < 1:
        raise ValueError(f"a sweep needs at least one trial, got {trials}")
    rng = np.random.default_rng([int(seed), int(tag)])
    combos = list(itertools.product(*ranges))
    counts = rng.multinomial(trials, [1.0 / len(combos)] * len(combos))
    outs = [check(rng, min(GROUP_CHUNK, int(n) - start), *c)
            for c, n in zip(combos, counts) for start in range(0, n, GROUP_CHUNK)]
    return [np.concatenate(parts) for parts in zip(*outs)]


def _result(name: str, trials: int, slack, bad, details: str = "") -> CheckResult:
    """Violations are the `bad` trials; max_slack ignores NaN slacks."""
    return CheckResult(name, trials, int(np.count_nonzero(bad)),
                       float(np.fmax.reduce(slack)), details)


def _finite_gap(a, b) -> np.ndarray:
    """a - b where both are finite, NaN (left out of max_slack) elsewhere."""
    both = np.isfinite(a) & np.isfinite(b)
    return np.where(both, np.where(both, a, 0.0) - np.where(both, b, 0.0), np.nan)


def _densities(rng, n: int, d: int) -> list:
    """Two stacks of n random densities on C^d."""
    return [matcore.random_density(d, rng=rng, count=n) for _ in range(2)]


def _transposed(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y transposed in the eigenbasis v (one basis per matrix of the stack)."""
    return v @ (matcore.dagger(v) @ y @ v).swapaxes(-1, -2) @ matcore.dagger(v)


def sweep_ando(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Purified two-sided expectations against the transposed trace form.

    For psi the symmetric purification of rho, the expectation of X (x) Y
    equals Tr(X sqrt(rho) Y_t sqrt(rho)) with the transpose taken in the
    eigenbasis of rho.
    """
    def check(rng, n, d):
        rho = matcore.random_density(d, rng=rng, count=n)
        psi = matcore.symmetric_purification(rho).reshape(n, d, d)
        x = matcore.random_matrix(d, rng, count=n)
        y = matcore.random_matrix(d, rng, count=n)
        # <psi| X (x) Y |psi> with psi = vec(M): (X (x) Y) vec(M) = vec(X M Y^T)
        lhs = (psi.conj() * (x @ psi @ y.swapaxes(-1, -2))).sum((-2, -1))
        _, v = matcore.eigh_desc(rho, "density matrix")
        sq = matcore.mat_sqrt(rho, "density matrix")
        rhs = np.trace(x @ sq @ _transposed(v, y) @ sq, axis1=-2, axis2=-1)
        return (np.abs(lhs - rhs),)
    (slack,) = _draw(seed, 1, trials, [SWEEP_DIMS], check)
    return _result("ando_identity", trials, slack, slack > SWEEP_SLACK)


def sweep_powers_stormer(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Frobenius gap of square roots against the trace gap of squares."""
    def check(rng, n, d):
        a, b = (matcore.random_psd(d, rng=rng, count=n) for _ in range(2))
        return np.linalg.norm(a - b, axis=(-2, -1)) ** 2, matcore.trace_norm(a @ a - b @ b)
    lhs, rhs = _draw(seed, 2, trials, [SWEEP_DIMS], check)
    return _result("powers_stormer", trials, lhs - rhs, lhs > rhs + SWEEP_SLACK)


def sweep_fuchs_van_de_graaf(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Both fidelity bounds on the trace distance."""
    def check(rng, n, d):
        rho, sigma = _densities(rng, n, d)
        td = matcore.trace_distance(rho, sigma)
        fid = matcore.fidelity(rho, sigma)
        high = np.sqrt(np.maximum(0.0, 1.0 - fid ** 2))
        return (np.maximum(1.0 - fid - td, td - high),)
    (slack,) = _draw(seed, 3, trials, [SWEEP_DIMS], check)
    return _result("fuchs_van_de_graaf", trials, slack, slack > SWEEP_SLACK)


def sweep_pure_state_bound(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Trace norm of a pure-state difference against the vector gap."""
    def check(rng, n, d):
        v, w = (matcore.random_pure(d, rng, count=n) for _ in range(2))
        proj = (v[:, :, None] * v.conj()[:, None, :]
                - w[:, :, None] * w.conj()[:, None, :])
        return matcore.trace_norm(proj), 2.0 * np.linalg.norm(v - w, axis=-1)
    lhs, rhs = _draw(seed, 4, trials, [SWEEP_DIMS], check)
    return _result("pure_state_trace_bound", trials, lhs - rhs,
                   lhs > rhs + SWEEP_SLACK)


def sweep_pinsker(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Half the squared trace norm against the relative entropy in bits.

    The nat-convention margin (relative entropy in nats minus the same
    quadratic term) is tracked in the details string.
    """
    def check(rng, n, d):
        rho, sigma = _densities(rng, n, d)
        l1 = 2.0 * matcore.trace_distance(rho, sigma)
        return relative_entropy(rho, sigma), 0.5 * l1 * l1
    rel, quad = _draw(seed, 5, trials, [SWEEP_DIMS], check)
    nat_margin = float(np.min(rel * np.log(2.0) - quad))
    return _result("pinsker", trials, quad - rel, quad > rel + SWEEP_SLACK,
                   details=f"min_nat_margin={nat_margin:.6e}")


def sweep_min_entropy(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Relative min-entropy dominates the relative entropy."""
    def check(rng, n, d):
        rho, sigma = _densities(rng, n, d)
        return relative_min_entropy(rho, sigma), relative_entropy(rho, sigma)
    s_inf, s_rel = _draw(seed, 6, trials, [SWEEP_DIMS], check)
    return _result("min_entropy_dominates", trials, _finite_gap(s_rel, s_inf),
                   s_inf + SWEEP_SLACK < s_rel)


def _weights(rng, n: int, size: int) -> np.ndarray:
    """n random probability vectors of the given size, no entry near zero."""
    q = rng.random((n, size)) + 0.05
    return q / q.sum(-1, keepdims=True)


def _random_cq(n: int, k: int, d: int, rng: np.random.Generator) -> CQState:
    """A stack of n cq states with k labels on C^d."""
    probs = _weights(rng, n, k)
    return CQState(probs, matcore.random_density(d, rng=rng, count=n * k).reshape(n, k, d, d))


def sweep_raz(trials: int = 500, seed: int = 0) -> CheckResult:
    """Per-coordinate information sum against the product divergence."""
    def check(rng, n, s1, s2, d):
        cq = _random_cq(n, s1 * s2, d, rng)
        parts = [_weights(rng, n, s1), _weights(rng, n, s2)]
        sigma_a = matcore.random_density(d, rng=rng, count=n)
        lhs, rhs, holds = raz_lemma_check(cq, (s1, s2), parts, sigma_a)
        return _finite_gap(lhs, rhs), ~holds
    slack, bad = _draw(seed, 7, trials, [range(2, 4), range(2, 4), range(2, 5)], check)
    return _result("raz_lemma", trials, slack, bad)


def sweep_chain_rule(trials: int = 1000, seed: int = 0) -> CheckResult:
    """Decomposition of the cq relative entropy into two stages."""
    def check(rng, n, k, d):
        cq_prime, cq = _random_cq(n, k, d, rng), _random_cq(n, k, d, rng)
        lhs, rhs, holds = chain_rule_check(cq_prime, cq)
        return np.abs(_finite_gap(lhs, rhs)), ~holds
    slack, bad = _draw(seed, 8, trials, [range(2, 5), range(2, 4)], check)
    return _result("chain_rule", trials, slack, bad)


def run_matrix_suite(trials: int = 1000, seed: int = 0) -> list:
    return [sweep_ando(trials, seed), sweep_powers_stormer(trials, seed),
            sweep_fuchs_van_de_graaf(trials, seed),
            sweep_pure_state_bound(trials, seed)]


def run_entropy_suite(trials: int = 1000, seed: int = 0) -> list:
    return [sweep_pinsker(trials, seed), sweep_min_entropy(trials, seed),
            sweep_raz(min(trials, RAZ_TRIALS), seed),
            sweep_chain_rule(trials, seed)]


def run_all(trials: int = 1000, seed: int = 0) -> list:
    return run_matrix_suite(trials, seed) + run_entropy_suite(trials, seed)
