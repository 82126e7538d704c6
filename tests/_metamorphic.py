"""Transforms that write a (game, strategy, C) case differently without
changing it, and the exact numbers that must not move under them.

- (a) local unitaries: psi -> (U (x) V) psi, Alice's POVMs conjugated by U
  and Bob's by V;
- (b) the player swap: X<->Y, A<->B, mu transposed, the predicate's axes
  (1, 0, 3, 2), psi's matrix transposed and the two POVM families
  exchanged; Alice's and Bob's numbers trade places;
- (d) a round permutation: new round k is old round perm[k], and C is
  mapped through it; per-coordinate numbers move with their round.

`exact_numbers` reads every number of the four dependency-breaking checks
and of the exact oracle-state reduction into one flat dict, and each
transform's `rename` says where a key of the original lands.
"""

from dataclasses import dataclass

import numpy as np

from _helpers import random_unitary
from repgames.depbreak import DepBreakComputer
from repgames.games import Game
from repgames.reduction import ReductionConfig, run_reduction
from repgames.strategy import EntangledStrategy, POVMFamily


@dataclass(frozen=True)
class Case:
    game: Game
    n: int
    strategy: EntangledStrategy
    C: tuple


def _strategy(s: EntangledStrategy, psi, alice, bob) -> EntangledStrategy:
    return EntangledStrategy(s.d, s.n, np.asarray(psi).reshape(-1),
                             POVMFamily(s.n, alice), POVMFamily(s.n, bob),
                             name=s.name)


def local_unitaries(case: Case, seed: int) -> Case:
    """(a): Haar-random U on Alice's side and V on Bob's."""
    s = case.strategy
    u, v = random_unitary(s.d, seed, count=2)
    return Case(case.game, case.n, _strategy(
        s, u @ s.psi_matrix @ v.T, u @ s.alice.ops @ u.conj().T,
        v @ s.bob.ops @ v.conj().T), case.C)


def player_swap(case: Case) -> Case:
    """(b): Bob plays Alice's part and Alice Bob's."""
    g, s = case.game, case.strategy
    game = Game(g.y_size, g.x_size, g.b_size, g.a_size, g.mu.T,
                g.predicate.transpose(1, 0, 3, 2), name=g.name)
    return Case(game, case.n, _strategy(s, s.psi_matrix.T, s.bob.ops,
                                        s.alice.ops), case.C)


def round_permutation(case: Case, perm: tuple) -> Case:
    """(d): new round k is old round perm[k]."""
    n, s = case.n, case.strategy
    axes = list(perm) + [n + p for p in perm] + [2 * n, 2 * n + 1]
    return Case(case.game, n, _strategy(
        s, s.psi, s.alice.ops.transpose(axes), s.bob.ops.transpose(axes)),
        tuple(sorted(perm.index(c) for c in case.C)))


SIDE_SWAP = {"avg2": "avg3", "avg3": "avg2", "item2": "item3",
             "item3": "item2", "d_alice": "d_bob",
             "d_bob": "d_alice", "xi_alice": "xi_bob", "xi_bob": "xi_alice"}


def swap_rename(key):
    """Where a key lands under (b)."""
    if isinstance(key, tuple):
        return (SIDE_SWAP.get(key[0], key[0]),) + key[1:]
    return SIDE_SWAP.get(key, key)


def permutation_rename(perm: tuple):
    """Where a key lands under (d): a per-coordinate key follows its
    round, old round perm[k] being new round k."""
    def rename(key):
        if isinstance(key, tuple):
            return key[:1] + (perm.index(key[1]),)
        return key
    return rename


def exact_numbers(case: Case) -> dict:
    """Every exact number of the usefulness, weight, skew, xi and
    sampleability checks and of the exact oracle-state reduction; a
    per-coordinate number is keyed (name, coordinate)."""
    comp = DepBreakComputer(case.game, case.n, case.strategy, case.C)
    use, wts = comp.usefulness_check(), comp.weight_check()
    skew, samp = comp.skew_report(), comp.sampleability_distances()
    out = {"p_win_c": comp.p_win_c, "avg1": skew.avg1, "avg2": skew.avg2,
           "avg3": skew.avg3, "d_alice": samp.d_alice, "d_bob": samp.d_bob,
           "d_cross": samp.d_cross, "useful_residual": use.max_residual,
           "useful_null": use.max_null_mass,
           "weight_error": wts.max_abs_error,
           "weight_sum_error": wts.max_sum_error}
    for k, i in enumerate(comp.free):
        out.update(((f"item{m}", i), getattr(skew, f"item{m}")[k])
                   for m in (1, 2, 3))
        out.update(zip([(nm, i) for nm in ("d_alice", "d_bob", "d_cross")],
                       samp.per_coord[i]))
    for side in ("alice", "bob"):
        xi = comp.xi_raz_check(side)
        out[f"xi_{side}"] = xi.avg_mi
        out.update(((f"xi_{side}", i), v)
                   for i, v in zip(comp.free, xi.per_coord))
    rep = run_reduction(ReductionConfig(case.game, case.n, case.strategy,
                                        case.C))
    out.update(avg_p_tilde=rep.avg_p_tilde, avg_p_ref=rep.avg_p_ref,
               error_budget=rep.error_budget)
    for rec in rep.per_coord:
        for name in ("p_tilde", "p_ref", "residual", "bad_mass"):
            out[name, rec.coord] = getattr(rec, name)
    return out


def largest_gap(base: dict, moved: dict, rename) -> float:
    """The largest |base[key] - moved[rename(key)]|; the two must hold the
    same keys once renamed."""
    assert {rename(key) for key in base} == set(moved)
    return max(abs(v - moved[rename(k)]) for k, v in base.items())
