import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from repgames.depbreak import DepBreakComputer
from repgames.games import chsh, fixture, question_weights, win_set
from repgames import strategy
from repgames.strategy import (DeterministicStrategy, POVMFamily,
                               EntangledStrategy, as_entangled, born_joint,
                               load_strategy, save_strategy, strategy_fixture,
                               symmetrize, tsirelson, win_probability)
from _helpers import born_joint_loop, lopsided, random_strategy, tv_distance

TSIRELSON_VALUE = math.cos(math.pi / 8) ** 2


def brute_force_win(g, n, s):
    """Direct Born-rule computation, no shared code with born_joint."""
    m = s.psi.reshape(s.d, s.d)
    rho = np.outer(s.psi, s.psi.conj())
    total = 0.0
    for xt in itertools.product(range(g.x_size), repeat=n):
        for yt in itertools.product(range(g.y_size), repeat=n):
            w = np.prod([g.mu[xt[i], yt[i]] for i in range(n)])
            if w == 0.0:
                continue
            for at in itertools.product(range(g.a_size), repeat=n):
                ea = s.alice.ops[xt][at]
                for bt in itertools.product(range(g.b_size), repeat=n):
                    if not all(g.predicate[xt[i], yt[i], at[i], bt[i]]
                               for i in range(n)):
                        continue
                    eb = s.bob.ops[yt][bt]
                    p = np.trace(np.kron(ea, eb) @ rho).real
                    total += w * max(p, 0.0)
    return total


def test_tsirelson_single_round_value():
    g = chsh()
    s = tsirelson(1)
    assert abs(win_probability(g, 1, s) - TSIRELSON_VALUE) < 1e-12


@pytest.mark.parametrize("name", ["tsirelson", "printing", "detprod"])
def test_born_joint_matches_brute_force(name):
    g = chsh()
    s = strategy_fixture(name, 1)
    fast = win_probability(g, 1, s)
    slow = brute_force_win(g, 1, s)
    assert abs(fast - slow) < 1e-10


def test_two_round_values_match_brute_force():
    g = chsh()
    for name in ("tsirelson", "detprod"):
        s = strategy_fixture(name, 2)
        assert abs(win_probability(g, 2, s) - brute_force_win(g, 2, s)) < 1e-10


def test_product_fixture_values_multiply():
    g = chsh()
    v1 = win_probability(g, 1, strategy_fixture("tsirelson", 1))
    v2 = win_probability(g, 2, strategy_fixture("tsirelson", 2))
    assert abs(v2 - v1 ** 2) < 1e-12
    assert abs(win_probability(g, 2, strategy_fixture("detprod", 2))
               - 0.75 ** 2) < 1e-12


def test_printing_fixture_is_not_round_product():
    # the twisted fixture correlates rounds through its shared state
    g = chsh()
    v1 = win_probability(g, 1, strategy_fixture("printing", 1))
    v2 = win_probability(g, 2, strategy_fixture("printing", 2))
    assert abs(v2 - v1 ** 2) > 1e-4


def test_printing_two_round_regression():
    g = chsh()
    s = strategy_fixture("printing", 2)
    assert abs(win_probability(g, 2, s) - 0.7051208986502013) < 1e-10


def test_born_joint_is_normalized_distribution():
    g = chsh()
    joint = born_joint(g, 2, tsirelson(2))
    assert abs(joint.table.sum() - 1.0) < 1e-9
    assert joint.table.min() >= 0.0
    marg = joint.marginal(("x1", "x2", "y1", "y2"))
    assert np.allclose(marg.table, 1.0 / 16.0, atol=1e-10)


@pytest.mark.parametrize("game", [chsh(), fixture("asym3")],
                         ids=["chsh", "asym3"])
def test_born_joint_matches_loop_oracle_on_random_strategies(game):
    for seed in range(20):
        for n in (1, 2):
            s = random_strategy(game, n, 3, seed)
            got = born_joint(game, n, s).table
            assert np.abs(got - born_joint_loop(game, n, s).table).max() \
                <= 1e-12


@pytest.mark.parametrize("name", ["tsirelson", "printing", "detprod"])
def test_born_joint_matches_loop_oracle_on_fixtures(name):
    g = chsh()
    for n in (3, 4, 5):
        s = strategy_fixture(name, n)
        got = born_joint(g, n, s).table
        assert np.abs(got - born_joint_loop(g, n, s).table).max() <= 1e-12


@pytest.mark.parametrize("chunk", [1, 2 * 144, 5 * 144])
def test_born_joint_partial_last_chunk(monkeypatch, chunk):
    # asym3 at n=2: 9 Alice tuples of 144 cells each, so chunks of 1, 2 and
    # 5 tuples; the last chunk of the latter two is partial
    g = fixture("asym3")
    s = random_strategy(g, 2, 3, 7)
    want = born_joint_loop(g, 2, s).table
    monkeypatch.setattr(strategy, "BORN_CHUNK", chunk)
    assert np.abs(born_joint(g, 2, s).table - want).max() <= 1e-12


def test_born_joint_peak_memory_at_most_three_tables():
    g, s = chsh(), strategy_fixture("printing", 5)
    tracemalloc.start()
    try:
        out = born_joint(g, 5, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * out.table.nbytes


def random_operators(rng, count, d, hermitian=True):
    """count (d, d) operators of norm about 1, Hermitian or anti-Hermitian."""
    z = (rng.standard_normal((count, d, d))
         + 1j * rng.standard_normal((count, d, d))) / (2 * d)
    sign = 1 if hermitian else -1
    return z + sign * z.conj().swapaxes(1, 2)


def packed_pairing(x, y):
    return strategy._hermitian_rows(x) @ strategy._hermitian_rows(
        y, paired=True).T


def complex_pairing(x, y):
    """Re sum_ij X_ij Y_ij, as `pure_born_table` pairs its two sides."""
    return np.einsum("aij,bij->ab", x, y).real


@pytest.mark.parametrize("d", [2, 3, 8])
def test_packed_rows_pair_hermitian_stacks_as_the_complex_rows(d):
    rng = np.random.default_rng(d)
    x, y = random_operators(rng, 7, d), random_operators(rng, 5, d)
    assert np.abs(packed_pairing(x, y) - complex_pairing(x, y)).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 8])
def test_packed_pairing_differs_only_to_second_order_off_hermitian(d):
    # an anti-Hermitian part of 1e-8 moves the pairing by about 1e-16, where
    # packing the raw entries instead of the Hermitian part moves it by 1e-8
    rng = np.random.default_rng(10 + d)
    x = random_operators(rng, 7, d) + 1e-8 * random_operators(rng, 7, d, False)
    y = random_operators(rng, 5, d) + 1e-8 * random_operators(rng, 5, d, False)
    assert np.abs(packed_pairing(x, y) - complex_pairing(x, y)).max() <= 1e-14


def complex_paired_table(g, n, s):
    """`born_joint`'s table with one `pure_born_table` call on the whole
    flat stacks, which pairs interleaved (re, im) rows."""
    nx, ny, ka, kb = g.x_size ** n, g.y_size ** n, g.a_size ** n, g.b_size ** n
    p = strategy.pure_born_table(s.psi, s.alice.ops.reshape(nx * ka, s.d, s.d),
                                 s.bob.ops.reshape(ny * kb, s.d, s.d))
    p = p.reshape(nx, ka, ny, kb).transpose(0, 2, 1, 3)
    p = np.clip(p * question_weights(g, n)[:, :, None, None], 0.0, None)
    return p / p.sum()


@pytest.mark.parametrize("name", ["tsirelson", "printing", "detprod"])
def test_born_joint_equals_the_complex_paired_table_on_fixtures(name):
    g = chsh()
    for n in range(1, 6):
        s = strategy_fixture(name, n)
        got = born_joint(g, n, s).table
        want = complex_paired_table(g, n, s)
        assert np.abs(got.reshape(want.shape) - want).max() <= 1e-12


@pytest.mark.parametrize("game", [chsh(), fixture("asym3")],
                         ids=["chsh", "asym3"])
def test_born_joint_equals_the_complex_paired_table_at_d3(game):
    for seed in range(5):
        for n in (1, 2):
            s = random_strategy(game, n, 3, seed)
            got = born_joint(game, n, s).table
            want = complex_paired_table(game, n, s)
            assert np.abs(got.reshape(want.shape) - want).max() <= 1e-12


def kron_product_family(n, d, angle_for):
    """Product-fixture POVMs built with one np.kron per round and answer."""
    ops = np.zeros((2,) * (2 * n) + (d, d), dtype=np.complex128)
    for q in itertools.product(range(2), repeat=n):
        projs = [strategy._proj_pair(angle_for(q, i)) for i in range(n)]
        for a in itertools.product(range(2), repeat=n):
            e = np.array([[1.0]], dtype=np.complex128)
            for i in range(n):
                e = np.kron(e, projs[i][a[i]])
            ops[q + a] = e
    return ops


def test_product_family_equals_kron_built_copy():
    angles = [lambda q, i: strategy.ALICE_ANGLES[q[i]],
              lambda q, i: (strategy.BOB_ANGLES[q[i]]
                            + strategy.PRINTING_TWIST * (sum(q) % 2))]
    for n in (1, 2, 3, 4):
        for angle_for in angles:
            got = strategy._product_family(n, 2 ** n, angle_for)
            want = kron_product_family(n, 2 ** n, angle_for)
            assert np.array_equal(got, want)


def test_symmetrize_preserves_statistics():
    # the fixture's Schmidt bases are real; the random states' are complex
    inputs = [(chsh(), strategy_fixture("printing", 2))] + [
        (g, random_strategy(g, 2, 3, seed))
        for g in (chsh(), fixture("asym3")) for seed in range(4)]
    for g, s in inputs:
        s2, basis = symmetrize(s)
        want = born_joint(g, 2, s)
        assert tv_distance(want, born_joint(g, 2, s2)) < 1e-10
        # rotated state has equal reduced density matrices on both factors
        m = s2.psi_matrix
        left = m @ m.conj().T
        right = np.conj(m.conj().T @ m)
        assert np.linalg.norm(left - right) < 1e-10
        assert np.allclose(basis @ basis.conj().T, np.eye(s.d), atol=1e-10)
        # the dependency-breaking table is built on the symmetrized strategy
        ext = DepBreakComputer(g, 2, s, (1,)).ext.marginal(want.names)
        assert np.abs(ext.table - want.table).max() <= 1e-12


def test_symmetrize_restores_swapped_bell_state():
    from repgames.strategy import EntangledStrategy, POVMFamily

    s = strategy_fixture("tsirelson", 1)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    # apply X to Bob's factor: same statistics, state no longer symmetric
    m = s.psi_matrix @ x.T
    bob_ops = np.einsum("ij,qajk,kl->qail", x, s.bob.ops, x)
    swapped = EntangledStrategy(s.d, 1, m.reshape(-1), s.alice,
                                POVMFamily(1, bob_ops))
    g = chsh()
    assert abs(win_probability(g, 1, swapped) - TSIRELSON_VALUE) < 1e-10
    out, basis = symmetrize(swapped)
    m2 = out.psi_matrix
    assert np.allclose(m2, m2.T, atol=1e-10)
    coeffs = np.linalg.svd(m, compute_uv=False)
    rebuilt = (basis * coeffs) @ basis.T
    assert np.allclose(m2, rebuilt / np.linalg.norm(rebuilt), atol=1e-10)


def test_born_joint_literal_tensor_convention():
    """Probabilities equal <psi| E_a (x) F_b |psi> with operators as stored."""
    rng = np.random.default_rng(17)
    g = chsh()
    d = 2

    def random_binary_povm():
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = h @ h.conj().T + 0.1 * np.eye(d)
        h2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        total = a + h2 @ h2.conj().T + 0.1 * np.eye(d)
        w, v = np.linalg.eigh(total)
        inv = (v * (1.0 / np.sqrt(w))) @ v.conj().T
        e0 = inv @ a @ inv
        return np.stack([e0, np.eye(d) - e0])

    ops_a = np.stack([random_binary_povm() for x in range(2)])
    ops_b = np.stack([random_binary_povm() for y in range(2)])
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec = vec / np.linalg.norm(vec)
    fam = type(tsirelson(1).alice)
    s = type(tsirelson(1))(d, 1, vec, fam(1, ops_a), fam(1, ops_b))
    joint = born_joint(g, 1, s)
    for x, y, a, b in itertools.product(range(2), repeat=4):
        lit = np.vdot(vec, np.kron(ops_a[x, a], ops_b[y, b]) @ vec).real
        assert abs(joint.table[x, y, a, b] - 0.25 * lit) < 1e-12


def test_povm_validation_rejects_incomplete_family():
    s = tsirelson(1)
    ops = s.alice.ops.copy()
    ops[0] *= 0.5
    with pytest.raises(ValueError):
        type(s.alice)(1, ops)


@pytest.mark.parametrize("shape,message", [
    ((2, 2, 2, 2), r"is not \(Q,\)\*n \+ \(A,\)\*n \+ \(d, d\) for n=2"),
    ((2, 3, 2, 2, 2, 2), r"has unequal question axes$"),
    ((2, 2, 2, 3, 2, 2), r"has unequal answer axes$"),
    ((2, 2, 2, 2, 2, 3), r"has non-square elements$"),
], ids=["rank", "questions", "answers", "square"])
def test_povm_family_refuses_a_malformed_array(shape, message):
    with pytest.raises(ValueError, match=message) as err:
        strategy.POVMFamily(2, np.zeros(shape))
    assert "\n" not in str(err.value)


def test_every_strategy_source_refuses_povm_arrays_above_the_cap(tmp_path):
    # one allocation rule for fixtures, embedded answer functions and files
    det = DeterministicStrategy(12, np.zeros((2,) * 12 + (12,), dtype=int),
                                np.zeros((2,) * 12 + (12,), dtype=int))
    path, lines = _strategy_lines(tmp_path)

    def load_with_header(n):
        path.write_text("\n".join(f"n {n}" if line == "n 1" else line
                                  for line in lines) + "\n")
        return load_strategy(path)

    sources = [lambda: strategy_fixture("printing", 7),
               lambda: as_entangled(det, chsh()),
               lambda: load_with_header(40),
               lambda: load_with_header(10 ** 9)]
    for make, n in zip(sources, (7, 12, 40, 10 ** 9)):
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match=rf"^no POVM array for n={n} rounds "):
            make()
        # forming (2 * 2)**n at n = 10**9 alone takes tens of seconds
        assert time.perf_counter() - start < 2.0


def test_save_load_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "strategy.txt"
    for seed in range(3):
        s = random_strategy(fixture("asym3"), 2, 3, seed)
        save_strategy(s, path)
        s2 = load_strategy(path)
        assert (s2.n, s2.d, s2.name) == (s.n, s.d, s.name)
        assert s2.psi.tobytes() == s.psi.tobytes()
        for side in ("alice", "bob"):
            want, got = getattr(s, side).ops, getattr(s2, side).ops
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_deterministic_embedding_reproduces_answers():
    g = chsh()
    a_map = np.zeros((2, 1), dtype=int)
    b_map = np.zeros((2, 1), dtype=int)
    a_map[1, 0] = 1
    cases = [(g, DeterministicStrategy(1, a_map, b_map))]
    rng = np.random.default_rng(5)
    g3 = fixture("asym3")
    for _ in range(4):   # answers that read the whole question tuple
        cases.append((g3, DeterministicStrategy(
            2, rng.integers(0, 2, size=(3, 3, 2)),
            rng.integers(0, 2, size=(3, 3, 2)))))
    for game, det in cases:
        s = as_entangled(det, game)
        expect = win_probability(game, det.n, det)
        assert abs(win_probability(game, det.n, s) - expect) < 1e-12


def test_win_probability_deterministic_chsh():
    # best deterministic single-round play: constant zeros wins 3 of 4
    a_map = np.zeros((2, 1), dtype=int)
    b_map = np.zeros((2, 1), dtype=int)
    det = DeterministicStrategy(1, a_map, b_map)
    assert abs(win_probability(chsh(), 1, det) - 0.75) < 1e-12


def table_win(g, n, s):
    return born_joint(g, n, s).prob(win_set(g, n, range(n)))


@pytest.mark.parametrize("name", ["tsirelson", "printing", "detprod"])
def test_win_probability_matches_the_table_on_fixtures(name):
    g = chsh()
    for n in range(1, 6):
        s = strategy_fixture(name, n)
        assert abs(win_probability(g, n, s) - table_win(g, n, s)) <= 1e-12


@pytest.mark.parametrize("game", [chsh(), fixture("asym3"), lopsided()],
                         ids=["chsh", "asym3", "lopsided"])
def test_win_probability_matches_the_table_on_random_strategies(game):
    for n in (1, 2, 3):
        for d in (2, 3):
            s = random_strategy(game, n, d, 100 * n + d)
            assert abs(win_probability(game, n, s) - table_win(game, n, s)) \
                <= 1e-12


def test_win_probability_matches_the_table_on_embedded_answer_maps():
    rng = np.random.default_rng(8)
    g = fixture("asym3")
    for n in (1, 2):
        det = DeterministicStrategy(n, rng.integers(0, 2, (3,) * n + (n,)),
                                    rng.integers(0, 2, (3,) * n + (n,)))
        s = as_entangled(det, g)
        assert abs(win_probability(g, n, s) - table_win(g, n, s)) <= 1e-12
        assert abs(win_probability(g, n, s) - win_probability(g, n, det)) \
            <= 1e-12


def test_win_probability_divides_by_the_total_mass():
    """POVMs that sum to (1 + 4e-9) I pass validation; the table is
    normalized, so the contraction must divide by the same mass."""
    g = lopsided()
    s = random_strategy(g, 2, 2, 5)
    bob = POVMFamily(2, s.bob.ops * (1 + 4e-9))
    scaled = EntangledStrategy(s.d, 2, s.psi, s.alice, bob)
    want = table_win(g, 2, scaled)
    assert abs(want - table_win(g, 2, s)) <= 1e-12
    assert abs(win_probability(g, 2, scaled) - want) <= 1e-12


def test_win_probability_builds_no_born_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("win_probability built a Born table")

    monkeypatch.setattr(strategy, "born_joint", no_table)
    for name in ("tsirelson", "printing", "detprod"):
        assert 0.0 < win_probability(chsh(), 3, strategy_fixture(name, 3)) < 1.0


@pytest.mark.parametrize("block", [1, 300, 2 ** 16])
def test_win_probability_blocks_agree(monkeypatch, block):
    g, s = fixture("asym3"), random_strategy(fixture("asym3"), 2, 3, 9)
    monkeypatch.setattr(strategy, "WIN_BLOCK", block)
    assert abs(win_probability(g, 2, s) - table_win(g, 2, s)) <= 1e-12


def test_win_probability_peak_memory_below_the_table():
    g, s = chsh(), strategy_fixture("printing", 5)
    assert s.d == 32
    peaks = []
    for run in (lambda: born_joint(g, 5, s), lambda: win_probability(g, 5, s)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0]


def test_win_probability_uses_all_rounds():
    g = chsh()
    s = tsirelson(2)
    joint = born_joint(g, 2, s)
    per_round = [joint.prob(win_set(g, 2, (i,))) for i in range(2)]
    assert all(abs(p - TSIRELSON_VALUE) < 1e-10 for p in per_round)


def test_save_load_roundtrip(tmp_path):
    g = chsh()
    s = strategy_fixture("printing", 2)
    path = tmp_path / "strategy.txt"
    save_strategy(s, path)
    s2 = load_strategy(path)
    assert s2.n == s.n and s2.d == s.d
    assert abs(win_probability(g, 2, s2) - win_probability(g, 2, s)) < 1e-9


def test_fixture_unknown_name():
    with pytest.raises(ValueError):
        strategy_fixture("bogus", 2)


def _strategy_lines(tmp_path):
    path = tmp_path / "strategy.txt"
    save_strategy(strategy_fixture("tsirelson", 1), path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("bad,message", [
    ("povm carol 0 0 {block}", r"povm line 'povm carol 0 0' names side 'carol'"),
    ("povm alice 0", r"povm line 'povm alice 0' needs a side"),
    ("povm alice 0 5 {block}", r"'5' is not 1 comma-separated indices in 0\.\.1"),
    ("povm bob 0,0 0 {block}", r"'0,0' is not 1 comma-separated indices"),
    ("povm bob x 0 {block}", r"'x' is not 1 comma-separated indices"),
])
def test_load_strategy_refuses_malformed_povm_lines(tmp_path, bad, message):
    path, lines = _strategy_lines(tmp_path)
    first = next(k for k, line in enumerate(lines) if line.startswith("povm"))
    block = " ".join(lines[first].split()[4:])
    lines[first] = bad.format(block=block)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_strategy(path)
