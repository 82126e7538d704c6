import numpy as np
import pytest

from repgames import infotheory, matcore, suites

SWEEPS = [
    suites.sweep_ando,
    suites.sweep_powers_stormer,
    suites.sweep_fuchs_van_de_graaf,
    suites.sweep_pure_state_bound,
    suites.sweep_pinsker,
    suites.sweep_min_entropy,
    suites.sweep_chain_rule,
]


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
def test_sweep_has_no_violations(sweep):
    res = sweep(trials=60, seed=0)
    assert res.ok, res
    assert res.trials == 60
    assert res.violations == 0


def test_sweep_raz_has_no_violations():
    res = suites.sweep_raz(trials=40, seed=0)
    assert res.ok, res
    assert res.trials == 40


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
def test_sweep_deterministic_per_seed(sweep):
    r1 = sweep(trials=25, seed=11)
    r2 = sweep(trials=25, seed=11)
    assert r1.max_slack == r2.max_slack
    r3 = sweep(trials=25, seed=12)
    assert r3.max_slack != r1.max_slack


def test_sweep_names_are_distinct():
    names = [s(trials=5, seed=0).name for s in SWEEPS]
    names.append(suites.sweep_raz(trials=5, seed=0).name)
    assert len(set(names)) == len(names)


def test_matrix_suite_composition():
    checks = suites.run_matrix_suite(trials=10, seed=0)
    assert len(checks) == 4
    assert all(c.ok for c in checks)


def test_entropy_suite_composition(monkeypatch):
    checks = suites.run_entropy_suite(trials=10, seed=0)
    assert len(checks) == 4
    assert all(c.ok for c in checks)
    assert [c.trials for c in checks] == [10] * 4
    monkeypatch.setattr(suites, "RAZ_TRIALS", 3)
    checks = suites.run_entropy_suite(trials=10, seed=0)
    assert [(c.name, c.trials) for c in checks] == [
        ("pinsker", 10), ("min_entropy_dominates", 10), ("raz_lemma", 3),
        ("chain_rule", 10)]


def test_run_all_concatenates():
    checks = suites.run_all(trials=10, seed=0)
    assert len(checks) == 8
    assert all(c.ok for c in checks)


# ---------------------------------------------------------------------------
# each sweep must notice a deliberately wrong kernel: a check that compares
# nothing would pass the zero-violation tests above

def _shifted(f, by):
    return lambda *args: f(*args) + by


MUTATIONS = {
    # y in place of its transpose in rho's eigenbasis
    "ando": (suites, "_transposed", lambda v, y: y),
    "powers_stormer": (matcore, "trace_norm",
                       lambda m: np.zeros(np.shape(m)[:-2])),
    # fidelity 1 claims equal states, so the trace distance must be 0
    "fuchs_van_de_graaf": (matcore, "fidelity",
                           lambda r, s: np.ones(np.shape(r)[:-2])),
    "pure_state_bound": (matcore, "trace_norm",
                         lambda m, f=matcore.trace_norm: 10.0 * f(m)),
    "pinsker": (suites, "relative_entropy",
                lambda r, s: np.zeros(np.shape(r)[:-2])),
    "min_entropy": (suites, "relative_min_entropy",
                    _shifted(suites.relative_min_entropy, -1.0)),
    # one extra bit on each coordinate's information
    "raz": (infotheory, "cq_mutual_information",
            _shifted(infotheory.cq_mutual_information, 1.0)),
    # the classical divergence of the label laws dropped from the rhs
    "chain_rule": (infotheory, "classical_relative_entropy",
                   lambda p, q: np.zeros(np.shape(p)[:-1])),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_sweep_counts_violations_of_a_wrong_kernel(name, monkeypatch):
    owner, attr, wrong = MUTATIONS[name]
    monkeypatch.setattr(owner, attr, wrong)
    res = getattr(suites, f"sweep_{name}")(trials=40, seed=0)
    assert res.trials == 40
    assert res.violations > 0, res


def test_sweep_groups_cover_every_trial():
    for trials in (1, 7, 300):
        (seen,) = suites._draw(0, 1, trials, [range(2, 9)],
                               lambda rng, n, d: (np.full(n, d),))
        assert len(seen) == trials
        assert set(seen.tolist()) <= set(range(2, 9))
    with pytest.raises(ValueError, match="at least one trial"):
        suites.sweep_pinsker(trials=0)


def test_benchmark_size_suite_decomposes_per_group(monkeypatch):
    """Benchmark size: every sweep clean, and density checks per group,
    not per trial."""
    calls = []
    real = matcore.density_spectrum

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(matcore, "density_spectrum", counted)
    checks = suites.run_all(3500, 7)
    assert [c.trials for c in checks] == [3500] * 6 + [500, 3500]
    assert all(c.violations == 0 for c in checks), checks
    assert len(calls) < 1000


def test_large_groups_are_drawn_in_bounded_stacks():
    sizes = []
    suites._draw(3, 1, 2 * suites.GROUP_CHUNK + 5, [range(2, 3)],
                 lambda rng, n, d: (sizes.append(n) or np.zeros(n),))
    assert sizes == [suites.GROUP_CHUNK, suites.GROUP_CHUNK, 5]
