"""The per-restart, per-question seesaw, kept as a test oracle.

`values.seesaw_best` runs every restart as one stack, and each side's
exchange steps over every (restart, question) at once.  This module is the
ascent it replaced: one restart at a time, one question at a time, every
contraction on one `(Q, K, d, d)` POVM pair, and each exchange step's
projector read off the canonical `eigh_desc` columns.
"""

import itertools

import numpy as np

from repgames import matcore
from repgames.strategy import pure_born_table
from repgames.values import _random_povm


def _hermitian_part(m):
    return (m + m.conj().T) / 2


def value(w, psi, alice, bob) -> float:
    (xs, ka, d), (ys, kb) = alice.shape[:3], bob.shape[:2]
    p = pure_born_table(psi, alice.reshape(-1, d, d), bob.reshape(-1, d, d))
    return float(np.einsum("xyab,xayb->", w, p.reshape(xs, ka, ys, kb)))


def improve_side(effectives, elements, tol: float):
    """Pairwise exchange ascent for one POVM: at most 4k sweeps over the
    answer pairs, until no pair raises sum_a tr(E_a N_a) by more than tol."""
    k = elements.shape[0]
    elems = elements.copy()
    if k == 1:
        return elems

    def objective():
        return float(np.einsum("aij,aji->", elems, effectives).real)

    current = objective()
    for _ in range(4 * k):
        improved = False
        for a1, a2 in itertools.combinations(range(k), 2):
            c = elems[a1] + elems[a2]
            csq = matcore.mat_sqrt(c, "combined element")
            h = csq @ (effectives[a1] - effectives[a2]) @ csq
            w, v = matcore.eigh_desc(h, "exchange operator")
            pos = v[:, w > 0.0]
            x = pos @ pos.conj().T
            e1 = _hermitian_part(csq @ x @ csq)
            elems[a1], elems[a2] = e1, c - e1
            new = objective()
            if new > current + tol:
                improved = True
            current = new
        if not improved:
            break
    return elems


def bell_operator(w, alice, bob):
    d = alice.shape[-1]
    op = np.einsum("xyab,xaij,ybkl->ikjl", w, alice, bob)
    return _hermitian_part(op.reshape(d * d, d * d))


def alice_effectives(w, psi, bob):
    d = bob.shape[-1]
    m = psi.reshape(d, d)
    bm = m @ np.swapaxes(bob, -1, -2) @ m.conj().T
    eff = np.einsum("xyab,ybij->xaij", w, bm)
    return (eff + matcore.dagger(eff)) / 2


def bob_effectives(w, psi, alice):
    d = alice.shape[-1]
    m = psi.reshape(d, d)
    am = m.conj().T @ alice @ m
    eff = np.einsum("xyab,xaji->ybij", w, am)
    return (eff + matcore.dagger(eff)) / 2


def seesaw(g, d: int, seed: int, max_iters: int = 500,
           tol: float = 1e-10):
    """One restart: (value, iterations, objective trace, psi, alice, bob)."""
    rng = np.random.default_rng(seed)
    alice = np.stack([_random_povm(d, g.a_size, rng) for _ in range(g.x_size)])
    bob = np.stack([_random_povm(d, g.b_size, rng) for _ in range(g.y_size)])
    psi = matcore.random_pure(d * d, rng)
    w = g.mu[:, :, None, None] * g.predicate

    trace = [value(w, psi, alice, bob)]
    iterations = 0
    for it in range(max_iters):
        iterations = it + 1
        _, v = matcore.eigh_desc(bell_operator(w, alice, bob), "bell operator")
        psi = v[:, 0]
        trace.append(value(w, psi, alice, bob))

        eff = alice_effectives(w, psi, bob)
        for x in range(g.x_size):
            alice[x] = improve_side(eff[x], alice[x], tol)
        trace.append(value(w, psi, alice, bob))

        eff = bob_effectives(w, psi, alice)
        for y in range(g.y_size):
            bob[y] = improve_side(eff[y], bob[y], tol)
        trace.append(value(w, psi, alice, bob))

        if trace[-1] - trace[-4] < tol:
            break
    return trace[-1], iterations, trace, psi, alice, bob
