import itertools

import numpy as np
import pytest

from beliefproj import (GuardError, LpResult, NumericalError, ProjectionScheme, bounds,
                        build_basis, displacement, lattice_root, lp_switch_test,
                        oracle_switch_test, project, random_pomdp, solve,
                        vs_switch_test, walsh_vector)
from beliefproj.bounds import (alt_sets, bound_from_switch_sets, compute_bounds,
                               oracle_switch_sets, stage_switch_sets)
from beliefproj.solver import AlphaSet, plan_vector

from conftest import random_partition

CORRELATED = np.array([1.0, 0.0, 0.0, 1.0])  # high at !x!y and xy
FLAT = np.full(4, 0.5)


def small_stage_sets(seed=0, n=3, actions=3, obs=2, horizon=3, discount=0.9):
    model = random_pomdp(n, actions, obs, np.random.default_rng(seed), discount=discount)
    return model, solve(model, horizon)


def as_set(rows, stage=1):
    matrix = np.asarray(rows, float)
    return AlphaSet(stage, matrix, np.zeros(len(matrix), dtype=np.intp),
                    np.zeros((len(matrix), 1), dtype=np.intp))


def bound_B(aset, scheme, method):
    return bound_from_switch_sets(aset, stage_switch_sets(aset, scheme, method))


# -- LP switch test ---------------------------------------------------------

def test_lp_switch_identical_vectors():
    decision = lp_switch_test(CORRELATED, CORRELATED, lattice_root(2))
    assert not decision.switches
    assert decision.objective == pytest.approx(0.0, abs=1e-9)


def test_lp_switch_non_optimal_lp_is_numerical_error(monkeypatch):
    monkeypatch.setattr(bounds, "solve_lp", lambda lp: LpResult("infeasible"))
    with pytest.raises(NumericalError, match="infeasible"):
        lp_switch_test(CORRELATED, FLAT, lattice_root(2))


def test_lp_switch_identity_scheme_never_switches():
    decision = lp_switch_test(CORRELATED, FLAT, ProjectionScheme.full(2))
    assert not decision.switches
    assert decision.objective <= 1e-9


def test_lp_switch_correlation_example_confirmed_by_oracle():
    scheme = lattice_root(2)
    decision = lp_switch_test(CORRELATED, FLAT, scheme)
    assert decision.switches
    b, b_prime = decision.witness
    diff = CORRELATED - FLAT
    assert float(b @ diff) > 0 and float(b_prime @ diff) < 0
    # the preserved marginals agree between the two witnesses
    for mask in (1, 2):
        from beliefproj import marginal_true
        assert marginal_true(b, mask) == pytest.approx(
            marginal_true(b_prime, mask), abs=1e-7)
    oracle = oracle_switch_test(0, 1, as_set([CORRELATED, FLAT]), scheme,
                                samples=100_000, seed=0, pairwise=True)
    assert oracle.switches
    wb, wproj = oracle.witness
    assert float(wb @ diff) >= 0 and float(wproj @ diff) <= 0


# -- VS switch test ---------------------------------------------------------

def test_vs_switch_constant_difference_never_switches(rng):
    basis = build_basis(lattice_root(3))
    alpha = rng.normal(size=8)
    assert not vs_switch_test(alpha, alpha - 2.5, basis).switches


def test_vs_switch_foreign_character_switches():
    scheme = ProjectionScheme(((0,), (1,), (2,)))
    basis = build_basis(scheme)
    outside = walsh_vector(0b011, 3)  # pair marginal not preserved by the scheme
    assert vs_switch_test(outside, np.zeros(8), basis).switches


def test_vs_switch_matches_explicit_residual(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        scheme = ProjectionScheme(random_partition(n, rng))
        basis = build_basis(scheme)
        a_i = rng.normal(size=1 << n)
        a_j = rng.normal(size=1 << n)
        diff = a_i - a_j
        explicit = diff - basis.matrix.T @ (basis.matrix @ diff)
        expected = float(explicit @ explicit) > (1e-7 ** 2) * float(diff @ diff)
        assert vs_switch_test(a_i, a_j, basis).switches == expected


# -- sampling oracle --------------------------------------------------------

def test_oracle_trivial_negatives():
    aset = as_set([CORRELATED, FLAT])
    assert not oracle_switch_test(0, 0, aset, lattice_root(2), 1000, 0).switches
    assert not oracle_switch_test(
        0, 1, aset, ProjectionScheme.full(2), 10_000, 0).switches


def test_oracle_seed_determinism():
    aset = as_set([CORRELATED, FLAT])
    a = oracle_switch_test(0, 1, aset, lattice_root(2), 5000, 7)
    b = oracle_switch_test(0, 1, aset, lattice_root(2), 5000, 7)
    assert a.switches == b.switches and a.objective == b.objective


# -- switch sets ------------------------------------------------------------

def test_switch_sets_empty_for_identity_and_singleton():
    model, stages = small_stage_sets(0)
    identity = ProjectionScheme.full(3)
    for method in ("LP", "VS"):
        assert stage_switch_sets(stages[-1], identity, method)[0] == ()
    assert oracle_switch_sets(stages[-1], identity, samples=2000)[0] == ()
    singleton = as_set([CORRELATED])
    for method in ("LP", "VS"):
        assert stage_switch_sets(singleton, lattice_root(2), method)[0] == ()


def test_switch_set_inclusion_chain():
    model, stages = small_stage_sets(1)
    scheme = lattice_root(3)
    aset = stages[-1]
    lp_sets = stage_switch_sets(aset, scheme, "LP")
    vs_sets = stage_switch_sets(aset, scheme, "VS")
    or_sets = oracle_switch_sets(aset, scheme, samples=100_000, seed=17)
    for i in range(len(aset)):
        assert set(or_sets[i]) <= set(vs_sets[i])
        assert set(or_sets[i]) <= set(lp_sets[i])
        assert set(vs_sets[i]) <= set(lp_sets[i])


def test_lp_switch_decided_by_vs_and_gradient_signs():
    """On pruned stage sets the LP test fires exactly when the VS test does
    and alpha_i - alpha_j has a strictly positive and a strictly negative
    entry, for every ordered pair and a random scheme per stage."""
    pairs = positives = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        model = random_pomdp(n, 2, 2, rng, discount=0.9)
        for aset in solve(model, 3):
            scheme = ProjectionScheme(random_partition(n, rng))
            basis = build_basis(scheme)
            for i, j in itertools.permutations(range(len(aset)), 2):
                a_i, a_j = aset.matrix[i], aset.matrix[j]
                diff = a_i - a_j
                algebraic = (vs_switch_test(a_i, a_j, basis).switches
                             and diff.max() > 0.0 and diff.min() < 0.0)
                assert lp_switch_test(a_i, a_j, scheme).switches == algebraic, (seed, i, j)
                pairs += 1
                positives += algebraic
    assert pairs > 500 and 0 < positives < pairs


def record_tests(monkeypatch, aset):
    """Log the (i, j) row indices of every switch test stage_switch_sets runs."""
    rows = {row.tobytes(): k for k, row in enumerate(aset.matrix)}
    calls = []
    for name in ("lp_switch_test", "vs_switch_test"):
        def logged(a_i, a_j, *args, original=getattr(bounds, name)):
            calls.append((rows[a_i.tobytes()], rows[a_j.tobytes()]))
            return original(a_i, a_j, *args)
        monkeypatch.setattr(bounds, name, logged)
    return calls


def reference_sets(aset, schemes, method):
    """Row i tests every j != i under vector i's own scheme."""
    test = {"LP": lp_switch_test, "VS": vs_switch_test}[method]
    args = schemes if method == "LP" else [build_basis(s) for s in schemes]
    return [tuple(j for j in range(len(aset))
                  if j != i and test(aset.matrix[i], aset.matrix[j], args[i]).switches)
            for i in range(len(aset))]


def alternating_schemes(m):
    return [lattice_root(3) if i % 2 else ProjectionScheme(((0, 1), (2,)))
            for i in range(m)]


@pytest.mark.parametrize("method", ["LP", "VS"])
def test_per_vector_source_tests_only_candidate_pairs(monkeypatch, method):
    _, stages = small_stage_sets(1)
    aset = stages[-1]
    schemes = alternating_schemes(len(aset))
    full = reference_sets(aset, schemes, method)
    positive = sorted({(min(i, j), max(i, j)) for i, sw in enumerate(full) for j in sw})
    candidates = set(positive[::2])
    assert set(positive) - candidates
    calls = record_tests(monkeypatch, aset)
    got = stage_switch_sets(aset, schemes.__getitem__, method, candidates=candidates)
    assert got == [tuple(j for j in sw if (min(i, j), max(i, j)) in candidates)
                   for i, sw in enumerate(full)]
    assert calls and all((min(i, j), max(i, j)) in candidates for i, j in calls)


@pytest.mark.parametrize("method", ["LP", "VS"])
def test_one_scheme_callable_matches_fixed_scheme(monkeypatch, method):
    _, stages = small_stage_sets(1)
    aset = stages[-1]
    m = len(aset)
    scheme = lattice_root(3)
    fixed = stage_switch_sets(aset, scheme, method)
    assert fixed == reference_sets(aset, [scheme] * m, method)
    calls = record_tests(monkeypatch, aset)
    assert stage_switch_sets(aset, lambda i: scheme, method) == fixed
    assert sorted(calls) == list(itertools.combinations(range(m), 2))


def test_vs_negative_implies_pairwise_oracle_negative():
    # vectors that depend on variable 0 only differ inside the preserved
    # subspace of ((0,), (1,)), so no projection can flip their order; one
    # correlation-sensitive vector supplies genuine positives alongside
    aset = as_set([[1.0, 3.0, 1.0, 3.0],
                   [2.0, 2.5, 2.0, 2.5],
                   [0.0, 4.0, 0.0, 4.0],
                   list(3.0 * CORRELATED)])
    scheme = lattice_root(2)
    basis = build_basis(scheme)
    negatives = positives = 0
    for i, j in itertools.combinations(range(len(aset)), 2):
        if vs_switch_test(aset.matrix[i], aset.matrix[j], basis).switches:
            positives += 1
            continue
        assert not oracle_switch_test(i, j, aset, scheme, 20_000, 3,
                                      pairwise=True).switches
        negatives += 1
    assert negatives >= 3 and positives >= 1


# -- B bound ----------------------------------------------------------------

def test_bound_B_zero_for_identity_scheme():
    model, stages = small_stage_sets(3)
    assert bound_B(stages[-1], ProjectionScheme.full(3), "VS") == 0.0


def test_bound_B_mutual_pair():
    aset = as_set([CORRELATED, FLAT])
    assert bound_B(aset, lattice_root(2), "LP") == pytest.approx(0.5)


def test_bound_B_nonincreasing_along_lattice_edges():
    model, stages = small_stage_sets(4, n=4, actions=2, obs=2, horizon=2)
    aset = stages[-1]
    root = lattice_root(4)
    parent = bound_B(aset, root, "VS")
    for child, _ in [c for c in __import__("beliefproj").lattice_children(root)]:
        assert bound_B(aset, child, "VS") <= parent + 1e-12


# -- alternative sets and the E bound ---------------------------------------

def test_alt_sets_identity_scheme_keeps_only_the_plan_itself():
    model, stages = small_stage_sets(5, horizon=2)
    report = compute_bounds(model, stages, ProjectionScheme.full(3))
    for stage_bounds in report.stages:
        assert all(len(s) == 0 for s in stage_bounds.switch_sets)
        assert all(size == 1 for size in stage_bounds.alt_set_sizes)
        assert stage_bounds.E <= 1e-10
    assert report.max_B == 0.0


def test_alt_sets_one_stage_base_case():
    model, stages = small_stage_sets(6, horizon=1)
    scheme = lattice_root(3)
    report = compute_bounds(model, stages, scheme)
    assert report.stages[0].E == pytest.approx(report.stages[0].B, abs=1e-12)


def test_alt_sets_match_exhaustive_plan_enumeration():
    """Hand-expanded two-stage enumeration: switch at the root plan, then
    substitute alternative subplans per observation branch."""
    model, stages = small_stage_sets(7, n=2, actions=2, obs=2, horizon=2)
    scheme = lattice_root(2)
    sw = [stage_switch_sets(aset, scheme, "VS") for aset in stages]
    alts = alt_sets(model, stages, sw)

    def minimal(members):
        out = []
        for w in members:
            if not any(np.all(w >= o) and not np.array_equal(w, o) for o in members):
                out.append(tuple(np.round(w, 12)))
        return set(out)

    for i in range(len(stages[1])):
        expected = []
        roots = (i, *sw[1][i])
        for root in roots:
            action, strategy = stages[1].actions[root], stages[1].strategies[root]
            branch_choices = [
                [stages[0].matrix[strategy[z]]] +
                [stages[0].matrix[j] for j in sw[0][strategy[z]]]
                for z in range(model.n_observations)
            ]
            for picks in itertools.product(*branch_choices):
                expected.append(plan_vector(model, action, list(picks)))
        got = {tuple(np.round(w, 12)) for w in alts[1][i]}
        assert got == minimal(expected)


def test_alt_sets_guard_fires_above_the_cap(monkeypatch):
    model, stages = small_stage_sets(8, horizon=2)
    sw = [stage_switch_sets(aset, lattice_root(3), "VS") for aset in stages]
    alt_sets(model, stages, sw)
    monkeypatch.setattr(bounds, "ALT_GUARD", 1)
    with pytest.raises(GuardError, match="alternative set for stage 2"):
        alt_sets(model, stages, sw)


def test_bound_E_at_least_B():
    for seed in (8, 9):
        model, stages = small_stage_sets(seed, horizon=3)
        report = compute_bounds(model, stages, lattice_root(3))
        for sb in report.stages:
            assert sb.E >= sb.B - 1e-12
            assert sb.B >= 0.0 and sb.E >= 0.0


# -- vector-space identities ------------------------------------------------

def test_relative_error_identity(rng):
    """displacement . gradient equals the post-minus-pre change of the
    relative assessment (the worked text states the negated form)."""
    for _ in range(20):
        n = int(rng.integers(2, 6))
        scheme = ProjectionScheme(random_partition(n, rng))
        b = rng.dirichlet(np.ones(1 << n))
        grad = rng.normal(size=1 << n)
        d = displacement(b, scheme)
        pre = float(b @ grad)
        post = float(project(b, scheme) @ grad)
        assert float(d @ grad) == pytest.approx(post - pre, abs=1e-10)
        assert abs(float(d @ grad)) == pytest.approx(abs(pre - post), abs=1e-10)


def test_relative_error_rate_bounded_by_residual(rng):
    from beliefproj import residual_sq_length
    for _ in range(40):
        n = int(rng.integers(2, 6))
        scheme = ProjectionScheme(random_partition(n, rng))
        basis = build_basis(scheme)
        grad = rng.normal(size=1 << n)
        w = rng.normal(size=1 << n)
        inside = w - basis.matrix.T @ (basis.matrix @ w)  # a direction in D_S
        norm = np.linalg.norm(inside)
        if norm < 1e-12:
            continue
        rate = abs(float(inside / norm @ grad))
        assert rate <= np.sqrt(residual_sq_length(grad, basis)) + 1e-8
