"""Test-only generators and oracles that the package itself does not need."""

import itertools
import math

import numpy as np

from repgames import corrsamp, values
from repgames.games import Game, a_names, b_names, x_names, y_names
from repgames.prob import (MAX_TABLE_ENTRIES, ZERO_MASS, Event,
                           FiniteDistribution, ZeroProbabilityEvent,
                           _expand_to)
from repgames.strategy import EntangledStrategy, POVMFamily


def random_unitary(d: int, rng=None, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitary (a stack of `count` when given), drawn from
    the same Gaussian stream as `matcore.random_matrix`."""
    rng = np.random.default_rng(rng)
    shape = (d, d) if count is None else (count, d, d)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g / math.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def partial_trace(m, dims: tuple, side: str = "right") -> np.ndarray:
    """Trace out one tensor factor of an operator on C^(da*db).

    `side` names the factor that is traced out; the result acts on the other.
    """
    da, db = dims
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (da * db, da * db):
        raise ValueError(f"expected a {da * db}x{da * db} matrix, got {m.shape}")
    t = m.reshape(da, db, da, db)
    if side == "right":
        return np.einsum("ijkj->ik", t)
    if side == "left":
        return np.einsum("ijil->jl", t)
    raise ValueError("side must be 'left' or 'right'")


def answer_bits(g) -> float:
    """log2 of one round's joint answer alphabet size."""
    return math.log2(g.a_size * g.b_size)


def mu_dist(g, n: int = 1):
    """Product question distribution over x1..xn, y1..yn."""
    t = np.array(1.0)
    for _ in range(n):
        t = np.multiply.outer(t, g.mu)
    # axes currently interleaved (x1, y1, x2, y2, ...): regroup
    perm = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    t = np.transpose(t, perm) if n > 1 else t
    return FiniteDistribution(x_names(n) + y_names(n), t, normalize=False)


def enumerate_tuples(g, n: int):
    """Yield (x_tuple, y_tuple, weight) over the n-fold question space."""
    for xt in itertools.product(range(g.x_size), repeat=n):
        for yt in itertools.product(range(g.y_size), repeat=n):
            w = 1.0
            for i in range(n):
                w *= g.mu[xt[i], yt[i]]
            yield xt, yt, w


def event_from_assignment(assign: dict, sizes: dict) -> Event:
    """The event that every variable of assign takes its assigned value."""
    names = tuple(assign)
    shape = tuple(sizes[n] for n in names)
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(int(assign[n]) for n in names)] = True
    return Event(names, shape, mask)


def intersect(e1: Event, e2: Event) -> Event:
    """The event that both e1 and e2 hold, over the union of their names."""
    names = e1.names + tuple(n for n in e2.names if n not in e1.names)
    size_of = dict(zip(e1.names, e1.sizes)) | dict(zip(e2.names, e2.sizes))
    for n, s in zip(e2.names, e2.sizes):
        if n in e1.names and size_of[n] != s:
            raise ValueError(f"size mismatch for {n}")
    sizes = tuple(size_of[n] for n in names)
    a = _expand_to(e1.mask, e1.names, names, sizes)
    b = _expand_to(e2.mask, e2.names, names, sizes)
    return Event(names, sizes, np.broadcast_to(a & b, sizes).copy())


def condition(dist: FiniteDistribution, event: Event) -> FiniteDistribution:
    """dist restricted to the event and renormalized, over all its
    variables: the oracle for the package's conditioned tables."""
    w = dist._event_weights(event)
    mass = float(w.sum())
    if mass <= ZERO_MASS:
        raise ZeroProbabilityEvent(f"event over {event.names} has mass {mass:.3e}")
    return FiniteDistribution(dist.names, w / mass)


def tv_distance(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Total variation distance between distributions over the same variables."""
    if set(p.names) != set(q.names):
        raise ValueError(f"variable mismatch: {p.names} vs {q.names}")
    q = q.reordered(p.names)
    if p.sizes != q.sizes:
        raise ValueError(f"size mismatch: {p.sizes} vs {q.sizes}")
    return float(0.5 * np.abs(p.table - q.table).sum())


def is_near_density(rho) -> bool:
    """rho is Hermitian within 1e-8, has no eigenvalue below -1e-9 and has
    trace 1 within 1e-8: a density up to the rounding of a long contraction."""
    rho = np.asarray(rho, dtype=np.complex128)
    sym = (rho + rho.conj().T) / 2
    return bool(np.abs(rho - rho.conj().T).max() <= 1e-8
                and np.linalg.eigvalsh(sym).min() >= -1e-9
                and abs(np.trace(rho).real - 1.0) <= 1e-8)


def random_strategy(game, n: int, d: int, rng) -> EntangledStrategy:
    """Seeded n-round strategy of local dimension d for `game`.

    Every question tuple gets its own `values._random_povm` over the answer
    tuples, so answers may read the whole question tuple, and the shared
    state has distinct random Schmidt coefficients in random local bases,
    so it is not maximally entangled.
    """
    rng = np.random.default_rng(rng)

    def family(q_size, a_size):
        ops = np.stack([values._random_povm(d, a_size ** n, rng)
                        for _ in range(q_size ** n)])
        return POVMFamily(n, ops.reshape((q_size,) * n + (a_size,) * n
                                         + (d, d)))

    alice = family(game.x_size, game.a_size)
    bob = family(game.y_size, game.b_size)
    coeffs = np.sort(0.2 + rng.random(d))[::-1]
    coeffs /= np.linalg.norm(coeffs)
    u, v = random_unitary(d, rng), random_unitary(d, rng)
    psi = ((u * coeffs) @ v.T).reshape(-1)
    return EntangledStrategy(d, n, psi, alice, bob, name="random")


def born_joint_loop(g, n: int, s: EntangledStrategy) -> FiniteDistribution:
    """`strategy.born_joint` as one tensordot per (x tuple, y tuple) pair:
    the oracle for the chunked kernel."""
    m = s.psi_matrix
    shape = ((g.x_size,) * n + (g.y_size,) * n + (g.a_size,) * n
             + (g.b_size,) * n)
    table = np.zeros(shape)
    for xt in itertools.product(range(g.x_size), repeat=n):
        c = m.conj().T @ (s.alice.ops[xt] @ m)  # (a,)*n + (d, d)
        for yt in itertools.product(range(g.y_size), repeat=n):
            w = 1.0
            for i in range(n):
                w *= g.mu[xt[i], yt[i]]
            p = np.tensordot(c, s.bob.ops[yt], axes=([-2, -1], [-2, -1]))
            table[xt + yt] = w * np.clip(p.real, 0.0, None)
    names = x_names(n) + y_names(n) + a_names(n) + b_names(n)
    return FiniteDistribution(names, table, normalize=True)


def bell_operator(g, alice: POVMFamily, bob: POVMFamily) -> np.ndarray:
    """Question-weighted sum of winning A (x) B pairs for the one-round
    game, one np.kron per term: the oracle for the seesaw's einsum."""
    if alice.n != 1 or bob.n != 1:
        raise ValueError("bell_operator expects one-round POVM families")
    d = alice.d * bob.d
    op = np.zeros((d, d), dtype=np.complex128)
    for x in range(g.x_size):
        for y in range(g.y_size):
            if g.mu[x, y] == 0.0:
                continue
            for a in range(g.a_size):
                for b in range(g.b_size):
                    if g.predicate[x, y, a, b]:
                        op += g.mu[x, y] * np.kron(alice.ops[(x,)][a],
                                                   bob.ops[(y,)][b])
    return (op + op.conj().T) / 2


def born_table_mixed_loop(rho, fa, fb) -> np.ndarray:
    """tr((F_a (x) G_b) rho) with one np.kron per answer pair: the oracle
    for the reduction's contraction over rho."""
    out = np.zeros((fa.shape[0], fb.shape[0]))
    for a in range(fa.shape[0]):
        for b in range(fb.shape[0]):
            out[a, b] = float(np.real(np.trace(np.kron(fa[a], fb[b]) @ rho)))
    return out


def lopsided():
    """Two questions and three answers for Alice, three questions and two
    answers for Bob, and a kernel with no symmetry between the sides."""
    rng = np.random.default_rng(11)
    mu = rng.random((2, 3))
    return Game(2, 3, 3, 2, mu / mu.sum(), rng.random((2, 3, 3, 2)) < 0.5,
                name="lopsided")


def shared_stream_reference(p: np.ndarray, q: np.ndarray, m: int,
                            rng: np.random.Generator,
                            max_draws: int = 10_000) -> tuple:
    """`corrsamp.shared_stream_sample` as first written: each pass finds a
    side's first accepting pair with argmax over the block and updates the
    (2, m) state with 2-D gathers.  It draws the same stream in the same
    calls, so every output must equal the kernel's bit for bit; it reads
    `corrsamp.MAX_STREAM_CELLS` at call time, as the kernel does."""
    if not 1 <= m <= MAX_TABLE_ENTRIES:
        raise ValueError(f"correlated sampling needs 1 to {MAX_TABLE_ENTRIES}"
                         f" runs (the entry cap), got {m}")
    if max_draws < 1:
        raise ValueError("correlated sampling needs max_draws of at least 1")
    laws = np.stack([np.asarray(p, dtype=np.float64).ravel(),
                     np.asarray(q, dtype=np.float64).ravel()])
    size = laws.shape[1]
    # a side accepts a pair with probability sum(p) / size = 1 / size, so a
    # block of two support sizes closes most runs in the first pass
    block = max(16, 2 * size)
    elem = np.full((2, m), -1, dtype=np.int64)   # accepted element per side
    pos = np.full((2, m), -1, dtype=np.int64)    # its position in the stream
    for lo in range(0, m, corrsamp.MAX_STREAM_CELLS):
        rows = np.arange(lo, min(m, lo + corrsamp.MAX_STREAM_CELLS))
        drawn = 0
        while rows.size and drawn < max_draws:
            width = min(block, max_draws - drawn,
                        max(1, corrsamp.MAX_STREAM_CELLS // rows.size))
            u = rng.integers(0, size, size=(rows.size, width))
            t = rng.random((rows.size, width))
            for side in (0, 1):
                hits = t < laws[side][u]
                first = hits.argmax(axis=1)
                new = (pos[side, rows] < 0) & hits[np.arange(rows.size),
                                                   first]
                pos[side, rows[new]] = drawn + first[new]
                elem[side, rows[new]] = u[new, first[new]]
            drawn += width
            rows = rows[(pos[:, rows] < 0).any(axis=0)]
    failed = (pos < 0).any(axis=0)
    agreed = ~failed & (pos[0] == pos[1])
    return elem[0], elem[1], agreed, failed
