"""Reference values computed apart from repgames.

Only numpy and the raw fixture data (the game's mu and predicate, the
strategy's state and POVM elements) are used here; no repgames function is
called.  Each workload operation compares the program's output with one of
these or with a property the method must have.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TSIRELSON = math.cos(math.pi / 8) ** 2      # CHSH quantum value
CHSH_CLASSICAL = {1: 0.75, 2: 0.625}         # one and two rounds
DETPROD_ROUND = 0.75                         # always answer 0: lose at x=y=1


def digits(count: int, base: int, n: int) -> np.ndarray:
    """(count, n) array of the base-`base` digits of 0..count-1, most
    significant first: row k is the k-th tuple in lexicographic order."""
    k = np.arange(count)
    return np.stack([(k // base ** (n - 1 - i)) % base for i in range(n)],
                    axis=1)


def born_table(game, strategy) -> np.ndarray:
    """Exact table P[xt, yt, at, bt] over flat question and answer tuples.

    Uses the state-vector form <psi| A (x) B |psi> = <(A (x) 1) psi,
    (1 (x) B) psi> for Hermitian A, with (A (x) 1) psi = vec(A m) and
    (1 (x) B) psi = vec(m B^T) for the state matrix m; so every joint
    probability is one inner product of two explicit vectors.
    """
    d, n = strategy.d, strategy.n
    m = np.asarray(strategy.psi).reshape(d, d)
    xs = itertools.product(range(game.x_size), repeat=n)
    ys = itertools.product(range(game.y_size), repeat=n)
    left = np.stack([(e @ m).ravel() for q in xs
                     for e in strategy.alice.ops[q].reshape(-1, d, d)])
    right = np.stack([(m @ e.T).ravel() for q in ys
                      for e in strategy.bob.ops[q].reshape(-1, d, d)])
    nx, ny = game.x_size ** n, game.y_size ** n
    na, nb = game.a_size ** n, game.b_size ** n
    amp = (left.conj() @ right.T).real.reshape(nx, na, ny, nb)
    xd, yd = digits(nx, game.x_size, n), digits(ny, game.y_size, n)
    mu = np.asarray(game.mu, dtype=float)
    weight = np.prod(mu[xd[:, None, :], yd[None, :, :]], axis=2)
    return weight[:, :, None, None] * amp.transpose(0, 2, 1, 3)


def round_wins(game, n: int) -> np.ndarray:
    """Boolean W[i, xt, yt, at, bt]: round i of the tuple is won."""
    nx, ny = game.x_size ** n, game.y_size ** n
    na, nb = game.a_size ** n, game.b_size ** n
    xd, yd = digits(nx, game.x_size, n), digits(ny, game.y_size, n)
    ad, bd = digits(na, game.a_size, n), digits(nb, game.b_size, n)
    pred = np.asarray(game.predicate, dtype=bool)
    return np.stack([pred[xd[:, i][:, None, None, None],
                          yd[:, i][None, :, None, None],
                          ad[:, i][None, None, :, None],
                          bd[:, i][None, None, None, :]] for i in range(n)])


def win_profile(game, strategy, C) -> dict:
    """P(win C) and P(win round i | win C) for every i outside C."""
    n = strategy.n
    table = born_table(game, strategy)
    wins = round_wins(game, n)
    held = np.ones(table.shape, dtype=bool)
    for c in C:
        held &= wins[c]
    p_c = float(table[held].sum())
    per = {i: float(table[held & wins[i]].sum()) / p_c
           for i in range(n) if i not in C}
    return {"p_win_c": p_c, "per_round": per, "table": table}


def classical_value(game, n: int = 1) -> float:
    """Best deterministic strategy by trying every pair of answer maps."""
    xs = list(itertools.product(range(game.x_size), repeat=n))
    ys = list(itertools.product(range(game.y_size), repeat=n))
    amaps = itertools.product(
        list(itertools.product(range(game.a_size), repeat=n)), repeat=len(xs))
    best = 0.0
    bmaps = list(itertools.product(
        list(itertools.product(range(game.b_size), repeat=n)),
        repeat=len(ys)))
    for fa in amaps:
        for fb in bmaps:
            v = 0.0
            for ix, xt in enumerate(xs):
                for iy, yt in enumerate(ys):
                    w = 1.0
                    for i in range(n):
                        w *= game.mu[xt[i], yt[i]]
                    if all(game.predicate[xt[i], yt[i], fa[ix][i], fb[iy][i]]
                           for i in range(n)):
                        v += w
            best = max(best, v)
    return best


def decay_bound(eps: float, s_bits: float, n: int, c: float = 1.0,
                log_base: float = 2.0) -> float:
    """Unclamped c * s * log_b(n) / (eps^17 * n^(1/4))."""
    return c * s_bits * math.log(n, log_base) / (eps ** 17 * n ** 0.25)


def density_defect(rho: np.ndarray) -> float:
    """Largest violation of Hermitian, unit-trace, PSD for a matrix."""
    rho = np.asarray(rho)
    herm = float(np.abs(rho - rho.conj().T).max())
    trace = abs(float(np.trace(rho).real) - 1.0)
    low = -float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    return max(herm, trace, low, 0.0)


def disagreement_rate(p: np.ndarray, q: np.ndarray) -> float:
    """Exact disagreement of shared-stream rejection sampling:
    1 - sum(min(p, q)) / sum(max(p, q)), i.e. 2 eps / (1 + eps) at TV eps."""
    return 1.0 - float(np.minimum(p, q).sum() / np.maximum(p, q).sum())
