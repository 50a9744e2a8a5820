import dataclasses
import itertools
import math

import numpy as np
import pytest

from beliefproj import (GuardError, InputError, LpResult, NumericalError, ProjectionScheme,
                        bounds, build_basis, displacement, lattice_children, lattice_root,
                        lp_switch_test, oracle_switch_test, project, random_pomdp, solve,
                        solve_lp, solver, vs_search, vs_switch_test, walsh_transform,
                        walsh_vector)
from beliefproj.bounds import (alt_sets, bound_E_from_alts, bound_from_switch_sets,
                               compute_bounds, oracle_switch_sets, stage_switch_sets)
from beliefproj.solver import AlphaSet, plan_vector

from conftest import random_partition, solve_to_optimum

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


def row_keys(lp):
    return sorted((coeffs.tobytes(), rel, rhs) for coeffs, rel, rhs in lp.constraints)


def test_lp_switch_warm_start_lists_the_coarser_program_first(rng):
    """Under a child scheme, the warm-started program is the parent's rows
    followed by the child's new marginal row, and it decides as a cold solve;
    solved to the optimum, the two programs have the same value."""
    alpha_i, alpha_j = rng.normal(size=8), rng.normal(size=8)
    parent = lp_switch_test(alpha_i, alpha_j, lattice_root(3))
    assert parent.lp is not None and parent.lp.status in ("optimal", "stopped")
    for child, mask in lattice_children(lattice_root(3)):
        warm = lp_switch_test(alpha_i, alpha_j, child, parent)
        cold = lp_switch_test(alpha_i, alpha_j, child)
        rows = parent.lp.program.constraints
        assert warm.lp.program.warm is parent.lp and cold.lp.program.warm is None
        assert all(a is b for a, b in zip(warm.lp.program.constraints, rows))
        assert len(warm.lp.program.constraints) == len(cold.lp.program.constraints) == len(rows) + 1
        assert warm.subsets == cold.subsets == parent.subsets | {mask}
        # the same rows as the cold program, the new one appended
        assert row_keys(warm.lp.program) == row_keys(cold.lp.program)
        assert warm.switches == cold.switches
        if warm.lp.status == cold.lp.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        warm_full, cold_full = (solve_to_optimum(d.lp.program) for d in (warm, cold))
        assert warm_full.status == cold_full.status == "optimal"
        assert warm_full.value == pytest.approx(cold_full.value, abs=1e-12)
    other = lp_switch_test(alpha_j, alpha_i, lattice_root(3))
    with pytest.raises(InputError, match="coarser scheme"):
        lp_switch_test(alpha_i, alpha_j, child, other)
    finer = lp_switch_test(alpha_i, alpha_j, child)
    with pytest.raises(InputError, match="coarser scheme"):
        lp_switch_test(alpha_i, alpha_j, lattice_root(3), finer)
    algebraic = vs_switch_test(alpha_i, alpha_j, build_basis(lattice_root(3)))
    with pytest.raises(InputError, match="coarser scheme"):
        lp_switch_test(alpha_i, alpha_j, child, algebraic)


def assert_margin_split(lp):
    """The last two columns are the free margin's positive and negative part:
    in the objective and in every row, the x⁻ entry is the x⁺ entry negated,
    bit for bit (a zero's sign included)."""
    for coeffs in [lp.objective] + [coeffs for coeffs, _rel, _rhs in lp.constraints]:
        plus, minus = coeffs[-2], coeffs[-1]
        assert abs(minus) == abs(plus) and np.signbit(minus) != np.signbit(plus)


def test_switch_and_witness_programs_write_their_margin_as_a_split_pair(rng, monkeypatch):
    alpha_i, alpha_j = rng.normal(size=8), rng.normal(size=8)
    cold = lp_switch_test(alpha_i, alpha_j, lattice_root(3))
    child, _mask = next(iter(lattice_children(lattice_root(3))))
    extended = lp_switch_test(alpha_i, alpha_j, child, cold)
    assert extended.lp.program.warm is cold.lp
    witness = []
    monkeypatch.setattr(solver, "solve_lp", lambda lp: witness.append(lp) or solve_lp(lp))
    solver._witness(alpha_i, [alpha_j, rng.normal(size=8)])
    for lp, width in [(cold.lp.program, 18), (extended.lp.program, 18), (witness[0], 10)]:
        assert lp.objective.shape == (width,)
        assert_margin_split(lp)


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
    """Log the (i, j) row indices of every switch test stage_switch_sets runs:
    each LP test, and each pair a row's VS product decides."""
    rows = {row.tobytes(): k for k, row in enumerate(aset.matrix)}
    calls = []

    def logged_lp(a_i, a_j, *args, original=bounds.lp_switch_test):
        calls.append((rows[a_i.tobytes()], rows[a_j.tobytes()]))
        return original(a_i, a_j, *args)

    def logged_vs(coefficients, i, js, *args, original=bounds._squared_gap_sums):
        assert np.array_equal(coefficients, walsh_transform(aset.matrix))
        calls.extend((i, j) for j in js)
        return original(coefficients, i, js, *args)

    monkeypatch.setattr(bounds, "lp_switch_test", logged_lp)
    monkeypatch.setattr(bounds, "_squared_gap_sums", logged_vs)
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
    candidates = dict.fromkeys(positive[::2])
    assert set(positive) - set(candidates)
    calls = record_tests(monkeypatch, aset)
    source = {(aset.stage, i): scheme for i, scheme in enumerate(schemes)}
    got = stage_switch_sets(aset, source, method, candidates=candidates)
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
    source = {(aset.stage, i): scheme for i in range(m)}
    assert stage_switch_sets(aset, source, method) == fixed
    assert sorted(calls) == list(itertools.combinations(range(m), 2))


def test_lp_and_vs_tests_walk_the_same_pairs_in_the_same_order(monkeypatch):
    """Under per-vector schemes and candidates, the LP and VS tests are asked
    about the same (i, j) pairs in the same order: a pair across two schemes
    from both of its rows, a pair within one scheme from its lower row."""
    _, stages = small_stage_sets(1)
    aset = stages[-1]
    m = len(aset)
    schemes = alternating_schemes(m)
    source = {(aset.stage, i): scheme for i, scheme in enumerate(schemes)}
    candidates = dict.fromkeys(list(itertools.combinations(range(m), 2))[::2])
    calls = record_tests(monkeypatch, aset)
    walks = {}
    for method in ("LP", "VS"):
        stage_switch_sets(aset, source, method, candidates=candidates)
        walks[method], calls[:] = list(calls), []
    assert walks["LP"] == walks["VS"]
    assert walks["LP"] == [(i, j) for i in range(m) for j in range(m)
                           if (min(i, j), max(i, j)) in candidates
                           and (i < j or schemes[i] != schemes[j])]
    assert any(i > j for i, j in walks["LP"])


def test_per_region_source_without_a_vectors_entry_names_it():
    _, stages = small_stage_sets(1)
    aset = stages[-1]
    source = {(aset.stage, i): lattice_root(3) for i in range(len(aset)) if i != 1}
    with pytest.raises(InputError, match=f"no entry for stage {aset.stage}, vector 1$"):
        stage_switch_sets(aset, source, "VS")


def test_unsupported_scheme_source_names_its_type():
    model, stages = small_stage_sets(5, horizon=2)
    with pytest.raises(InputError, match="unsupported scheme source list"):
        compute_bounds(model, stages, [lattice_root(3)])


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
    identity = ProjectionScheme.full(3)
    sw = [stage_switch_sets(aset, identity, "VS") for aset in stages]
    assert all(len(s) == 0 for stage_sw in sw for s in stage_sw)
    for aset, floors in zip(stages, alt_sets(model, stages, sw), strict=True):
        assert np.stack(floors).tobytes() == aset.matrix[:, np.newaxis].tobytes()
    per_stage_B, per_stage_E = compute_bounds(model, stages, identity)
    assert all(e <= 1e-10 for e in per_stage_E)
    assert max(per_stage_B) == 0.0


def test_a_belief_preserving_scheme_has_zero_e():
    # under the one-block scheme no plan switches, so each vector's only
    # alternative is itself, whatever products would rebuild its value
    model = random_pomdp(3, 2, 2, np.random.default_rng(0))
    per_stage_B, per_stage_E = compute_bounds(model, solve(model, 3), ProjectionScheme.full(3))
    assert per_stage_B == [0.0, 0.0, 0.0]
    assert per_stage_E == [0.0, 0.0, 0.0]


def test_alt_sets_one_stage_base_case():
    model, stages = small_stage_sets(6, horizon=1)
    scheme = lattice_root(3)
    (b,), (e,) = compute_bounds(model, stages, scheme)
    assert e == pytest.approx(b, abs=1e-12)


def test_alt_sets_match_exhaustive_plan_enumeration():
    """Hand-expanded two-stage enumeration: switch at the root plan, then
    substitute alternative subplans per observation branch."""
    model, stages = small_stage_sets(8, n=2, actions=2, obs=2, horizon=2)
    scheme = lattice_root(2)
    sw = [stage_switch_sets(aset, scheme, "VS") for aset in stages]
    floors = alt_sets(model, stages, sw)[1]
    assert any(sw[1])
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
        assert floors[i].shape == (1, model.n_states)
        np.testing.assert_allclose(floors[i][0], np.min(expected, axis=0), rtol=1e-12, atol=1e-12)


def product_alt_sets(model, stage_sets, switch_sets_per_stage):
    """Alternative sets as lists, one member at a time: ``itertools.product``
    over per-observation branch values, each member summed in observation
    order, then the first of any byte-identical duplicates kept and every
    member that is >= another everywhere dropped."""
    alts = []
    for k, aset in enumerate(stage_sets):
        stage_alts = []
        for i in range(len(aset)):
            roots = (i, *switch_sets_per_stage[k][i])
            if k == 0:
                members = [aset.matrix[j] for j in roots]
            else:
                members = []
                for root in roots:
                    a = aset.actions[root]
                    per_z = [[model.transition[a] @ (model.observation_fn[a][:, z] * w)
                              for w in alts[-1][p]]
                             for z, p in enumerate(aset.strategies[root])]
                    for picks in itertools.product(*per_z):
                        acc = picks[0].copy()
                        for extra in picks[1:]:
                            acc += extra
                        members.append(model.reward + model.discount * acc)
            unique, seen = [], set()
            for w in members:
                if w.tobytes() not in seen:
                    seen.add(w.tobytes())
                    unique.append(w)
            stage_alts.append([w for r, w in enumerate(unique)
                               if not any(np.all(w >= o) for q, o in enumerate(unique) if q != r)])
        alts.append(stage_alts)
    return alts


def assert_floors_are_minima(got, want):
    """Each floor of ``got`` is one row, within 1e-12 relative (absolute near
    0) of the pointwise minimum of the reference members in ``want``."""
    for got_stage, want_stage in zip(got, want, strict=True):
        for floor, members in zip(got_stage, want_stage, strict=True):
            assert floor.shape == (1, len(members[0]))
            np.testing.assert_allclose(floor[0], np.min(members, axis=0), rtol=1e-12, atol=1e-12)


def product_bound_E(aset, stage_alts):
    best = 0.0
    for i, members in enumerate(stage_alts):
        for w in members:
            best = max(best, float(np.max(aset.matrix[i] - w)))
    return best


@pytest.mark.parametrize("seed,n,obs", [(10, 3, 2), (11, 2, 3), (12, 4, 2)])
def test_alt_sets_floor_is_the_product_enumeration_minimum(seed, n, obs):
    model, stages = small_stage_sets(seed, n=n, actions=2, obs=obs, horizon=3)
    root = lattice_root(n)
    members = 0
    for scheme in (root, *(child for child, _ in lattice_children(root)[:2])):
        sw = [stage_switch_sets(aset, scheme, "VS") for aset in stages]
        got, want = alt_sets(model, stages, sw), product_alt_sets(model, stages, sw)
        assert_floors_are_minima(got, want)
        for aset, got_stage, want_stage in zip(stages, got, want):
            assert bound_E_from_alts(aset, got_stage) == pytest.approx(
                product_bound_E(aset, want_stage), rel=1e-12, abs=1e-12)
            members += sum(map(len, want_stage))
    assert members > 3 * sum(len(aset) for aset in stages)


def test_alt_sets_guard_fires_above_the_cap(monkeypatch):
    model, stages = small_stage_sets(8, horizon=2)
    sw = [stage_switch_sets(aset, lattice_root(3), "VS") for aset in stages]
    alt_sets(model, stages, sw)
    monkeypatch.setattr(bounds, "ALT_GUARD", 1)
    with pytest.raises(GuardError, match="alternative set for stage 2"):
        alt_sets(model, stages, sw)


def test_alt_sets_guard_raises_before_any_transition_product(monkeypatch):
    """Every cap below the number of entries the walk lists raises, and
    none after a product; the first cap that passes makes them."""
    products = []

    class ProductSpy(np.ndarray):
        def __matmul__(self, other):
            products.append(other.shape)
            return np.asarray(self) @ other

    model, stages = small_stage_sets(3, horizon=3)
    model = dataclasses.replace(model, transition=model.transition.view(ProductSpy))
    sw = [stage_switch_sets(aset, lattice_root(3), "VS") for aset in stages]
    products.clear()
    for cap in itertools.count():
        monkeypatch.setattr(bounds, "ALT_GUARD", cap)
        try:
            alt_sets(model, stages, sw)
        except GuardError as err:
            assert "alternative set for stage" in str(err)
            assert products == []
            continue
        break
    assert cap > len(stages[-1]) and products


def test_alt_sets_three_observations_fit_a_guard_below_the_member_count(monkeypatch):
    """At three observations the unreduced enumeration holds more members
    than the guard allows, while the floors need far fewer entries and
    still equal the reference's minima."""
    model, stages = small_stage_sets(22, n=2, actions=2, obs=3, horizon=3)
    sw = [stage_switch_sets(aset, lattice_root(2), "VS") for aset in stages]
    want = product_alt_sets(model, stages, sw)
    unreduced = max(sum(math.prod(len(want[k - 1][p]) for p in aset.strategies[root])
                        for root in (i, *sw[k][i]))
                    for k, aset in enumerate(stages) if k for i in range(len(aset)))
    monkeypatch.setattr(bounds, "ALT_GUARD", unreduced - 1)
    assert_floors_are_minima(alt_sets(model, stages, sw), want)


def test_bound_E_at_least_B():
    for seed in (8, 9):
        model, stages = small_stage_sets(seed, horizon=3)
        for b, e in zip(*compute_bounds(model, stages, lattice_root(3))):
            assert e >= b - 1e-12
            assert b >= 0.0 and e >= 0.0


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


def test_compute_bounds_transforms_each_stage_once(monkeypatch):
    """Each stage set of two or more vectors keeps its transform, so the VS
    switch sets of every scheme group, and of a second call, read the one
    built first."""
    model, stages = small_stage_sets(5)
    per_region = vs_search(stages, "sum").per_region
    assert len(set(per_region.values())) > 1
    transformed = []

    def counted(matrix, original=solver.walsh_transform):
        transformed.append(matrix)
        return original(matrix)

    monkeypatch.setattr(solver, "walsh_transform", counted)
    for source in (per_region, lattice_root(3)):
        compute_bounds(model, stages, source)
    tested = [aset for aset in stages if len(aset) > 1]
    assert len(transformed) == len(tested) > 1
    assert all(matrix is aset.matrix for matrix, aset in zip(transformed, tested))
