"""The per-context dependency-breaking computation, kept as a test oracle.

`DepBreakComputer` builds every operator of a free coordinate once, as a
stack over its contexts.  This module is the construction it replaced: one
context at a time, the question law read with `FiniteDistribution.given`
and `marginal` of a question table taken from the extended table, the
coarse operators summed in Python, every factor from 2-D kernels with the
canonical spectral convention, and dict caches keyed by the pointer
constraints.  It applies the same support rule: a coarse
operator's eigenvalues at most `COARSE_SUPPORT` times its largest are
outside its support, and both the aligned root and the fine conjugation
act on the support only.  The walks below repeat the checks and the exact
reduction over contexts with plain loops, and the xi check one omega and
one question tuple at a time.

`ExtendedTableComputer` reads its context tables, question laws and
P(win C) off the extended table, and `skew_distances` the skew report from
conditioned marginals of it: the path `DepBreakComputer` took before it
contracted the context tables from the Born table and formed the question
law as a product over rounds.
"""

import itertools
import math

import numpy as np

from repgames import matcore
from repgames.depbreak import (ALICE, BOB, COARSE_SUPPORT, SUPPORT_MASS,
                               ZERO_WEIGHT, ContextTable, DepBreakComputer,
                               SkewReport, d_name, m_name, x_names_at,
                               y_names_at)
from repgames.games import a_names, b_names, win_set, x_names, y_names
from repgames.infotheory import CQState, cq_mutual_information
from repgames.prob import ZERO_MASS, ZeroProbabilityEvent

from _helpers import condition


def _product_reference(cond, mu, xn, yn, rest, anchor):
    """tv(cond(x,y,rest), mu(x,y) * P(rest | anchor, cond)); zero-mass
    anchor rows contribute their full one-round mass to the distance."""
    order = (xn, yn) + rest
    p = cond.marginal(order).table
    anchored = cond.marginal((anchor,) + rest)
    anchor_marg = anchored.table.reshape(anchored.table.shape[0], -1)
    row_mass = anchor_marg.sum(axis=1)
    kernel = np.zeros_like(anchor_marg)
    ok = row_mass > SUPPORT_MASS
    kernel[ok] = anchor_marg[ok] / row_mass[ok, None]
    if anchor == xn:
        ref = mu[:, :, None] * kernel[:, None, :]
    else:
        ref = mu[:, :, None] * kernel[None, :, :]
    return 0.5 * float(np.abs(p - ref.reshape(p.shape)).sum())


def skew_distances(ext, g, n, C):
    """Exact conditioning-skew distances for every free coordinate, from
    the extended table `ext` conditioned on winning every round of C."""
    C = tuple(sorted(int(c) for c in C))
    free = [j for j in range(n) if j not in C]
    if not free:
        raise ValueError("C leaves no free coordinates")
    event = win_set(g, n, C)
    p_win_c = ext.prob(event)
    if p_win_c <= 0.0:
        raise ZeroProbabilityEvent("holdout rounds are never all won")
    cond = condition(ext, event)
    m = len(free)
    delta = (math.log2(1.0 / p_win_c)
             + len(C) * math.log2(g.a_size * g.b_size)) / m

    item1, item2, item3 = [], [], []
    for i in free:
        v1 = (d_name(i), m_name(i), x_names_at(i), y_names_at(i))
        before = ext.marginal(v1).table
        after = cond.marginal(v1).table
        item1.append(0.5 * float(np.abs(after - before).sum()))

        rest = tuple(name for j in free if j != i
                     for name in (d_name(j), m_name(j)))
        rest += tuple(x_names_at(c) for c in C)
        rest += tuple(y_names_at(c) for c in C)
        rest += tuple(a_names(n)[c] for c in C)
        rest += tuple(b_names(n)[c] for c in C)
        xn, yn = x_names_at(i), y_names_at(i)
        item2.append(_product_reference(cond, g.mu, xn, yn, rest, xn))
        item3.append(_product_reference(cond, g.mu, xn, yn, rest, yn))

    return SkewReport(tuple(free), tuple(item1), tuple(item2), tuple(item3),
                      float(np.mean(item1)), float(np.mean(item2)),
                      float(np.mean(item3)), delta, p_win_c)


def question_table(comp):
    """The law of the question tuples and the free rounds' pointers of a
    `DepBreakComputer`, a marginal of its extended table."""
    n = comp.n
    return comp.ext.marginal(x_names(n) + y_names(n) + tuple(
        name for j in comp.free for name in (d_name(j), m_name(j))))


def reference_law(qext, n, side, names):
    """P(own question tuple | names) for every assignment of names, as the
    (law, mass) pair `DepBreakComputer._question_law` returns, from one
    marginal of the question table qext: a named own question fixes its
    digit, weights at most SUPPORT_MASS are cut and an assignment of mass
    at most ZERO_MASS gets an all-zero row."""
    own = x_names(n) if side == "alice" else y_names(n)
    rest = tuple(nm for nm in own if nm not in names)
    sizes = tuple(qext.size_of(nm) for nm in names)
    q = qext.size_of(own[0])
    table = qext.marginal(names + rest).table
    mass = table.reshape(math.prod(sizes), -1).sum(axis=1)
    joint = table.reshape(sizes + tuple(q if nm in rest else 1 for nm in own))
    for t, nm in enumerate(own):
        if nm in names:
            shape = [1] * joint.ndim
            shape[names.index(nm)] = shape[len(names) + t] = q
            joint = joint * np.eye(q).reshape(shape)
    ok = mass > ZERO_MASS
    law = np.where(ok[:, None], joint.reshape(mass.size, -1)
                   / np.where(ok, mass, 1.0)[:, None], 0.0)
    law[law <= SUPPORT_MASS] = 0.0
    return law, mass


class ExtendedTableComputer(DepBreakComputer):
    """`DepBreakComputer` with its question laws, P(win C), context tables
    and P(win round i | win C) read off the extended table; operators and
    walks unchanged.  A context's held_won is the predicate of each held
    round read at r's own index digits, so it checks the layout of
    `win_set` rather than repeating it."""

    def __init__(self, g, n, s, C):
        super().__init__(g, n, s, C)
        self.qext = question_table(self)
        self.p_win_c = self.ext.prob(win_set(g, n, self.C))

    def _question_law(self, side, names):
        return reference_law(self.qext, self.n, side, names)

    def win_given_held(self, i):
        both = win_set(self.game, self.n, tuple(sorted(self.C + (i,))))
        return self.ext.prob(both) / self.p_win_c

    def contexts(self, i):
        if i not in self._contexts:
            names = self.r_names(i)
            marg = self.ext.marginal(names + (
                x_names_at(i), y_names_at(i), a_names(self.n)[i],
                b_names(self.n)[i]))
            sizes = marg.sizes[:len(names)]
            # V of each held round read at r's own digits, not from win_set
            digits = np.unravel_index(np.arange(math.prod(sizes)), sizes)
            won = np.ones(math.prod(sizes), dtype=bool)
            for c in self.C:
                x, y, a, b = (digits[names.index(nm)] for nm in (
                    x_names_at(c), y_names_at(c), a_names(self.n)[c],
                    b_names(self.n)[c]))
                won &= self.game.predicate[x, y, a, b]
            self._contexts[i] = ContextTable(
                names, sizes, len(self.C),
                marg.table.reshape((-1,) + marg.sizes[len(names):]), won,
                self.p_win_c)
        return self._contexts[i]


def mat_sqrt(p):
    """Square root in the canonical eigenbasis (tiny negatives clamped)."""
    w, v = matcore.eigh_desc(p)
    r = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    return (r + r.conj().T) / 2


def aligned_operators(coarse, rho):
    """The square root of the coarse operator on its support, rotated so
    that the factor times sqrt(rho) is PSD."""
    w, v = matcore.eigh_desc(coarse)
    keep = w > COARSE_SUPPORT * max(float(w[0]), 0.0)
    a_half = (v[:, keep] * np.sqrt(w[keep])) @ v[:, keep].conj().T
    a_half = (a_half + a_half.conj().T) / 2
    u, _, vh = matcore.svd_canonical(a_half @ mat_sqrt(rho))
    u = vh.conj().T @ u.conj().T
    return u @ a_half, u


def fine_povm(s_op, fine_coarse):
    """Conjugated answer elements on the kept columns of the coarse
    operator's eigenbasis, plus the null outcome."""
    k, d = fine_coarse.shape[0], fine_coarse.shape[-1]
    coarse = fine_coarse.sum(axis=0)
    coarse = (coarse + coarse.conj().T) / 2
    w, v = np.linalg.eigh(coarse)
    keep = w > COARSE_SUPPORT * max(float(w[-1]), 0.0)
    out = np.zeros((k + 1, d, d), dtype=np.complex128)
    if not keep.any():
        out[k] = np.eye(d)
        return out
    vs = v[:, keep]
    inv_sqrt = 1.0 / np.sqrt(w[keep])
    uu, _, vv = np.linalg.svd(s_op @ (vs * inv_sqrt), full_matrices=False)
    q = uu @ vv
    scale = np.outer(inv_sqrt, inv_sqrt)
    for a in range(k):
        e = q @ ((vs.conj().T @ fine_coarse[a] @ vs) * scale) @ q.conj().T
        out[a] = (e + e.conj().T) / 2
    out[k] = np.eye(d) - out[:k].sum(axis=0)
    out[k] = (out[k] + out[k].conj().T) / 2
    return out


def dep_state(s_op, t_op, psi):
    d = s_op.shape[0]
    out = s_op @ psi.reshape(d, -1) @ t_op.T
    weight = float(np.linalg.norm(out) ** 2)
    if weight <= ZERO_WEIGHT:
        return None, weight
    return (out / math.sqrt(weight)).reshape(-1), weight


def pure_born_table(state, fa, fb):
    d = fa.shape[-1]
    m = state.reshape(d, d)
    return np.array([[float(np.real(np.trace(m.conj().T @ a @ m @ b.T)))
                      for b in fb] for a in fa])


class PerContext:
    """The per-context operators and walks of one `DepBreakComputer`."""

    def __init__(self, comp):
        self.comp = comp
        self.g, self.n, self.C = comp.game, comp.n, comp.C
        self.qext = question_table(comp)
        self._cache = {}

    def _support(self, side, constraints):
        names = x_names(self.n) if side == "alice" else y_names(self.n)
        cond = self.qext.given(constraints)
        remaining = [nm for nm in names if nm in cond.names]
        fixed = {nm: constraints[nm] for nm in names if nm in constraints}
        if not remaining:
            yield tuple(fixed[nm] for nm in names), 1.0
            return
        marg = cond.marginal(tuple(remaining))
        for idx in np.argwhere(marg.table > SUPPORT_MASS):
            assign = dict(fixed)
            assign.update(zip(remaining, (int(v) for v in idx)))
            yield (tuple(assign[nm] for nm in names),
                   float(marg.table[tuple(idx)]))

    def _sums(self, side, kept):
        fam = self.comp.strategy.alice if side == "alice" \
            else self.comp.strategy.bob
        drop = tuple(j for j in range(self.n) if j not in kept)
        return {q: fam.ops[q].sum(axis=drop) if drop else fam.ops[q]
                for q in np.ndindex(fam.ops.shape[:self.n])}

    def coarse(self, side, constraints, i=None):
        """Held (and, for i, round-i) answer operators averaged over the
        side's question law; round i's axis last."""
        kept = self.C if i is None else tuple(sorted(self.C + (i,)))
        key = ("coarse", side, kept, tuple(sorted(constraints.items())))
        if key not in self._cache:
            sums = self._sums(side, kept)
            out = sum(w * sums[q] for q, w in self._support(side, constraints))
            if i is not None:
                perm = [kept.index(c) for c in self.C] + [kept.index(i)]
                out = np.transpose(out, perm + [len(kept), len(kept) + 1])
            self._cache[key] = out
        return self._cache[key]

    def aligned(self, side, constraints, held):
        key = ("aligned", side, tuple(sorted(constraints.items())), held)
        if key not in self._cache:
            self._cache[key] = aligned_operators(
                self.coarse(side, constraints)[held], self.comp.rho)[0]
        return self._cache[key]

    def fine(self, side, i, constraints, held):
        key = ("fine", side, i, tuple(sorted(constraints.items())), held)
        if key not in self._cache:
            self._cache[key] = fine_povm(
                self.aligned(side, constraints, held),
                self.coarse(side, constraints, i)[held])
        return self._cache[key]

    def split(self, i, r):
        return self.comp.contexts(i).split(r)

    def state_for(self, i, r, x, y):
        omega, a_c, b_c = self.split(i, r)
        s = self.aligned("alice", {**omega, x_names_at(i): x}, a_c)
        t = self.aligned("bob", {**omega, y_names_at(i): y}, b_c)
        return dep_state(s, t, self.comp.strategy.psi)

    def state_variants(self, i, r, x, y):
        omega, a_c, b_c = self.split(i, r)
        s_own = self.aligned("alice", {**omega, x_names_at(i): x}, a_c)
        t_own = self.aligned("bob", {**omega, y_names_at(i): y}, b_c)
        s_avg = self.aligned("alice", {**omega, d_name(i): BOB,
                                       m_name(i): y}, a_c)
        t_avg = self.aligned("bob", {**omega, d_name(i): ALICE,
                                     m_name(i): x}, b_c)
        psi = self.comp.strategy.psi
        return {"xy": dep_state(s_own, t_own, psi),
                "x": dep_state(s_own, t_avg, psi),
                "y": dep_state(s_avg, t_own, psi)}

    def fine_families(self, i, r_a, r_b, x, y):
        omega_a, a_c, _ = self.split(i, r_a)
        omega_b, _, b_c = self.split(i, r_b)
        return (self.fine("alice", i, {**omega_a, x_names_at(i): x}, a_c),
                self.fine("bob", i, {**omega_b, y_names_at(i): y}, b_c))

    def pairs(self):
        return [(x, y) for x in range(self.g.x_size)
                for y in range(self.g.y_size) if self.g.mu[x, y] > 0.0]

    # ---- walks -------------------------------------------------------------

    def usefulness(self):
        ka, kb = self.g.a_size, self.g.b_size
        max_res = max_null = 0.0
        contexts = skipped = 0
        for i in self.comp.free:
            joint = self.comp.contexts(i).joint
            support = joint.sum(axis=(1, 2, 3, 4)) > SUPPORT_MASS
            for r in np.flatnonzero(support).tolist():
                for x, y in self.pairs():
                    state, _w = self.state_for(i, r, x, y)
                    cell = joint[r, x, y]
                    mass = float(cell.sum())
                    if state is None or mass <= ZERO_MASS:
                        skipped += 1
                        continue
                    born = pure_born_table(state,
                                           *self.fine_families(i, r, r, x, y))
                    max_res = max(max_res, float(np.abs(
                        born[:ka, :kb] - cell / mass).max()))
                    max_null = max(max_null, float(
                        abs(born[ka, :].sum()) + abs(born[:ka, kb].sum())))
                    contexts += 1
        return contexts, skipped, max_res, max_null

    def weights(self):
        n_a = self.g.a_size ** len(self.C)
        n_b = self.g.b_size ** len(self.C)
        max_err = max_sum = 0.0
        contexts = 0
        for i in self.comp.free:
            full = self.comp.contexts(i).joint
            joint = full.reshape((-1, n_a, n_b) + full.shape[1:])
            support = joint.sum(axis=(1, 2, 3, 4, 5, 6)) > SUPPORT_MASS
            for omega in np.flatnonzero(support).tolist():
                for x, y in self.pairs():
                    cell = joint[omega, :, :, x, y]
                    mass = float(cell.sum())
                    if mass <= ZERO_MASS:
                        continue
                    held = (cell.sum(axis=(2, 3)) / mass).ravel().tolist()
                    total = 0.0
                    for r, want in enumerate(held, start=omega * n_a * n_b):
                        w = self.state_for(i, r, x, y)[1]
                        max_err = max(max_err, abs(w - want))
                        total += w
                    max_sum = max(max_sum, abs(total - 1.0))
                    contexts += 1
        return contexts, max_err, max_sum

    def _conditioned(self, i):
        """(r, x, y, weight) of the conditioned walks, and the lost mu mass
        and count of question pairs with no law."""
        table = self.comp.contexts(i)
        out, lost, count = [], 0.0, 0
        for x, y in self.pairs():
            law = table.law(x, y)
            if law is None:
                lost += float(self.g.mu[x, y])
                count += 1
                continue
            for r in np.flatnonzero(law > SUPPORT_MASS).tolist():
                out.append((r, x, y, float(self.g.mu[x, y]) * float(law[r])))
        return out, lost, count

    def sampleability(self):
        per, skipped, max_tri = {}, 0.0, 0.0
        for i in self.comp.free:
            contexts, lost, _ = self._conditioned(i)
            skipped += lost
            acc, mass = np.zeros(3), 0.0
            for r, x, y, w in contexts:
                v = self.state_variants(i, r, x, y)
                if any(s is None for s, _w in v.values()):
                    skipped += w
                    continue
                s_xy, s_x, s_y = v["xy"][0], v["x"][0], v["y"][0]
                dist = np.array([np.linalg.norm(s_xy - s_y),
                                 np.linalg.norm(s_xy - s_x),
                                 np.linalg.norm(s_x - s_y)])
                max_tri = max(max_tri, dist[2] - dist[0] - dist[1])
                acc += w * dist
                mass += w
            per[i] = acc / mass
        return per, skipped, max_tri

    def exact_coordinate(self, i):
        """(p_tilde, crosscheck, invalid mass, invalid count) of the exact
        oracle-state reduction on coordinate i."""
        joint = self.comp.contexts(i).joint
        contexts, invalid_mass, invalid = self._conditioned(i)
        p_tilde = crosscheck = 0.0
        for r, x, y, w in contexts:
            state, _w = self.state_for(i, r, x, y)
            if state is None:
                invalid_mass += w
                invalid += 1
                continue
            table = pure_born_table(state, *self.fine_families(i, r, r, x, y))
            p = float(np.clip(sum(table[a, b] for a, b in np.argwhere(
                self.g.predicate[x, y])), 0.0, 1.0))
            p_tilde += w * p
            cell = joint[r, x, y]
            crosscheck = max(crosscheck, abs(p - float(
                (cell * self.g.predicate[x, y]).sum() / cell.sum())))
        return p_tilde, crosscheck, invalid_mass, invalid

    def xi(self, side):
        """Per free coordinate, the xi check's weighted mutual information
        between round i's question and the opposite register."""
        own_names = x_names(self.n) if side == "alice" else y_names(self.n)
        k = self.g.a_size if side == "alice" else self.g.b_size
        held = self._sums(side, self.C)
        m_psi = self.comp.strategy.psi_matrix
        omega_full = self.comp.omega_names(None)
        qext = self.qext
        per_terms = {i: 0.0 for i in self.comp.free}
        omega_marg = qext.marginal(omega_full).table
        for idx in np.argwhere(omega_marg > SUPPORT_MASS):
            omega = dict(zip(omega_full, (int(v) for v in idx)))
            p_omega = float(omega_marg[tuple(idx)])
            cond = qext.given(omega)
            remaining = [nm for nm in own_names if nm in cond.names]
            if remaining:
                marg = cond.marginal(tuple(remaining))
                entries = [(dict(zip(remaining, map(int, idx))),
                            float(marg.table[tuple(idx)]))
                           for idx in np.argwhere(marg.table > SUPPORT_MASS)]
            else:
                entries = [({}, 1.0)]
            # blocks on the opposite quantum register, per question tuple
            per_q = []
            for partial, wq in entries:
                assign = dict(partial)
                assign.update({nm: omega[nm] for nm in own_names
                               if nm in omega})
                q = tuple(assign[nm] for nm in own_names)
                for held_ans in itertools.product(range(k),
                                                  repeat=len(self.C)):
                    op = held[q][held_ans]
                    if side == "alice":
                        block = np.conj(m_psi.conj().T @ op @ m_psi)
                    else:
                        block = m_psi @ np.conj(op) @ m_psi.conj().T
                    tr = float(np.real(np.trace(block)))
                    if tr <= ZERO_WEIGHT:
                        continue
                    per_q.append((q, held_ans, wq * tr, block / tr))
            for held_ans in itertools.product(range(k), repeat=len(self.C)):
                group = [(q, w, b) for q, h, w, b in per_q if h == held_ans]
                w_ha = sum(w for _q, w, _b in group)
                if w_ha <= ZERO_WEIGHT:
                    continue
                for i in self.comp.free:
                    buckets = {}
                    for q, w, b in group:
                        buckets.setdefault(q[i], [0.0, None])
                        entry = buckets[q[i]]
                        entry[0] += w
                        entry[1] = b * w if entry[1] is None else entry[1] + b * w
                    probs = np.array([v[0] for v in buckets.values()])
                    states = np.stack([v[1] / v[0] for v in buckets.values()])
                    mi = cq_mutual_information(
                        CQState(probs / probs.sum(), states))
                    per_terms[i] += p_omega * w_ha * mi
        return tuple(per_terms[i] for i in self.comp.free)
