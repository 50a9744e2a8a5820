from collections import Counter

import numpy as np
import pytest

from beliefproj import (InputError, LinearProgram, ProjectionScheme, bounds, build_basis,
                        estimator_max, estimator_sum, incremental_scores,
                        lattice_children, lattice_root, random_pomdp,
                        residual_sq_length, solve, solve_lp, vs_search, walsh_transform,
                        walsh_vector)
from beliefproj import search, solver
from beliefproj.bounds import SWITCH_TOL
from beliefproj.search import (SearchConfig, _scoped_bound, greedy_bound_search,
                               result_from_doc, run_search)
from beliefproj.solver import AlphaSet

ALL_METHODS = ("b-lp", "b-vs", "e-lp", "e-vs", "vs-sum", "vs-max")


def as_set(rows, stage=1):
    matrix = np.asarray(rows, float)
    return AlphaSet(stage, matrix, np.zeros(len(matrix), dtype=np.intp),
                    np.zeros((len(matrix), 1), dtype=np.intp))


def solved_instance(seed=0, n=3, actions=2, obs=2, horizon=2):
    model = random_pomdp(n, actions, obs, np.random.default_rng(seed), discount=0.9)
    return model, solve(model, horizon)


def test_estimators_zero_for_singleton_and_identity(rng):
    singleton = as_set([rng.normal(size=8)])
    basis = build_basis(lattice_root(3))
    assert estimator_sum(0, singleton, basis) == 0.0
    assert estimator_max(0, singleton, basis) == 0.0
    full = build_basis(ProjectionScheme.full(3))
    several = as_set(rng.normal(size=(4, 8)))
    assert estimator_sum(0, several, full) <= 1e-10
    assert estimator_max(1, several, full) <= 1e-10


def test_estimators_match_explicit_residuals(rng):
    aset = as_set(rng.normal(size=(6, 8)))
    basis = build_basis(ProjectionScheme(((0, 1), (2,))))
    for i in range(6):
        residuals = [residual_sq_length(aset.matrix[i] - aset.matrix[j], basis)
                     for j in range(6) if j != i]
        assert estimator_sum(i, aset, basis) == pytest.approx(sum(residuals), abs=1e-12)
        assert estimator_max(i, aset, basis) == pytest.approx(max(residuals), abs=1e-12)


def test_incremental_scores_orthogonal_marginal_no_change(rng):
    grads = np.stack([walsh_vector(0b001, 3), walsh_vector(0b010, 3)])
    prev = np.array([1.0, 1.0])
    out = incremental_scores(prev, walsh_vector(0b110, 3), grads)
    np.testing.assert_allclose(out, prev, atol=1e-12)


def test_incremental_scores_aligned_gradient_drops_to_zero():
    v = walsh_vector(0b011, 3)
    prev = np.array([1.0])
    out = incremental_scores(prev, v, v[np.newaxis, :])
    assert out[0] == 0.0


def test_incremental_matches_from_scratch_along_descents(rng):
    aset = as_set(rng.normal(size=(5, 16)))
    n = 4
    for i in range(5):
        grads = np.delete(aset.matrix[i] - aset.matrix, i, axis=0)
        node = lattice_root(n)
        scores = np.array([residual_sq_length(g, build_basis(node)) for g in grads])
        while True:
            children = lattice_children(node)
            if not children:
                break
            child, mask = children[int(rng.integers(len(children)))]
            scores = incremental_scores(scores, walsh_vector(mask, n), grads)
            fresh = np.array([residual_sq_length(g, build_basis(child)) for g in grads])
            np.testing.assert_allclose(scores, fresh, atol=1e-9)
            node = child


def test_vs_search_two_variables_single_edge():
    model, stages = solved_instance(0, n=2)
    result = vs_search(stages[-1:], "sum")
    for scheme in result.per_region.values():
        assert scheme.blocks == ((0, 1),)


def test_vs_search_constant_gradients_stay_at_root():
    ones = np.ones(8)
    aset = as_set([2.0 * ones, 5.0 * ones, -1.0 * ones])
    result = vs_search([aset], "max")
    for scheme in result.per_region.values():
        assert scheme == lattice_root(3)


def test_vs_search_scope_all_covers_every_stage():
    model, stages = solved_instance(1, horizon=3)
    result = vs_search(stages, "sum")
    expected_keys = {(aset.stage, i) for aset in stages for i in range(len(aset))}
    assert set(result.per_region) == expected_keys


def test_vs_search_child_choice_matches_exhaustive_scoring():
    model, stages = solved_instance(2, n=4, horizon=2)
    aset = stages[-1]
    result = vs_search(stages[-1:], "sum")
    for i in range(len(aset)):
        grads = np.delete(aset.matrix[i] - aset.matrix, i, axis=0)
        node = lattice_root(4)

        def score(scheme):
            basis = build_basis(scheme)
            return sum(residual_sq_length(g, basis) for g in grads)

        while True:
            children = lattice_children(node)
            if not children or score(node) == 0.0:
                break
            best = min(range(len(children)), key=lambda c: score(children[c][0]))
            node = children[best][0]
        assert result.per_region[(aset.stage, i)] == node


def test_vs_search_trace_scores_nonincreasing():
    model, stages = solved_instance(3, n=4, horizon=2)
    result = vs_search(stages[-1:], "max")
    for trace in result.trace.values():
        scores = [step["score"] for step in trace]
        assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))


def test_greedy_bound_search_two_variables():
    model, stages = solved_instance(4, n=2)
    result = greedy_bound_search(model, stages, "B", "VS")
    assert result.scheme.blocks == ((0, 1),)


def test_greedy_bound_search_returns_root_when_bound_zero():
    # vectors depending on variable 0 only: no scheme can switch them
    aset = as_set([[1.0, 3.0, 1.0, 3.0], [2.0, 2.5, 2.0, 2.5]])
    result = greedy_bound_search(None, [aset], "B", "VS")
    assert result.scheme == lattice_root(2)
    assert result.trace == []


def test_greedy_bound_search_matches_exhaustive_child_bounds():
    model, stages = solved_instance(5, n=4, horizon=2)
    result = greedy_bound_search(model, stages, "B", "VS")
    node = lattice_root(4)
    for step in result.trace:
        children = lattice_children(node)
        values = [_scoped_bound(model, stages, child, "B", "VS", "all")[0]
                  for child, _ in children]
        best = int(np.argmin(values))
        node = children[best][0]
        assert step["bound"] == pytest.approx(values[best], abs=1e-12)
    assert result.scheme == node


def structured_instance():
    """Two stages over four variables whose value gradients are sums of a few
    parity vectors: merging {0,1}, {2,3}, {1,2} or {0,3} turns some switch
    pairs negative, and merging {0,2} or {1,3} turns none."""
    n = 4
    model = random_pomdp(n, 2, 2, np.random.default_rng(3), discount=0.9)
    w = {mask: 4.0 * walsh_vector(mask, n) for mask in (0b0001, 0b0010, 0b0011, 0b0100,
                                                         0b0110, 0b1001, 0b1100)}
    base = 5.0 + 0.5 * w[0b0001]
    first = np.stack([base, base + w[0b0011] + 0.3 * w[0b0100], base + 2.0 * w[0b1100],
                      base + w[0b0011] + 2.0 * w[0b1100]])
    second = np.stack([10.0 + w[0b0010], 10.0 + 1.5 * w[0b0110], 10.0 + 0.7 * w[0b1001]])
    stages = [AlphaSet(1, first, np.zeros(4, dtype=np.intp), np.zeros((4, 0), dtype=np.intp)),
              AlphaSet(2, second, np.array([0, 1, 0]), np.array([[0, 1], [2, 3], [1, 2]]))]
    return model, stages


def scratch_descent(model, stages, bound, test, scope):
    """The greedy bound descent with every node scored from scratch.

    Returns the final scheme, the trace, and the switch sets of every node
    scored whose switch sets differ from its accepted parent's (the root's
    included), in scoring order."""
    n = stages[-1].matrix.shape[1].bit_length() - 1
    node = lattice_root(n)
    parent = _scoped_bound(model, stages, node, bound, test, scope, parent=None)
    changed, trace = [parent.switch_sets], []
    while parent.value > 0.0 and lattice_children(node):
        best = None
        for child, mask in lattice_children(node):
            got = _scoped_bound(model, stages, child, bound, test, scope, parent=None)
            if got.switch_sets != parent.switch_sets:
                changed.append(got.switch_sets)
            if best is None or got.value < best[0].value:
                best = (got, child, mask)
        parent, node, mask = best
        trace.append({"merge": [b for b in range(n) if mask >> b & 1], "bound": parent.value})
    return node, trace, changed


@pytest.mark.parametrize("bound,test", [("E", "VS"), ("E", "LP"), ("B", "VS")])
def test_bound_search_rebuilds_bounds_once_per_switch_set_change(monkeypatch, bound, test):
    """A node whose switch sets equal its accepted parent's takes the parent's
    bound; every other node builds its bound once, and the descent equals one
    that scores every node from scratch."""
    model, stages = structured_instance()
    scheme, trace, changed = scratch_descent(model, stages, bound, test, "all")
    nodes = 1 + 6 + 1  # root, its six children, one grandchild
    assert len(trace) == 2 and 1 < len(changed) < nodes
    assert len({repr(sw) for sw in changed}) == len(changed)
    seen = {"alt_sets": [], "bound_from_switch_sets": [], "bound_E_from_alts": 0}

    def record(name, original):
        def spy(*args):
            if name == "bound_E_from_alts":
                seen[name] += 1
            else:
                seen[name].append(args[-1])
            return original(*args)
        monkeypatch.setattr(search, name, spy)

    for name in seen:
        record(name, getattr(search, name))
    result = greedy_bound_search(model, stages, bound, test, "all")
    assert result.scheme == scheme and result.trace == trace
    if bound == "E":
        assert seen["alt_sets"] == changed
        assert seen["bound_E_from_alts"] == len(changed) * len(stages)
        assert seen["bound_from_switch_sets"] == []
    else:
        assert seen["bound_from_switch_sets"] == [sw for node in changed for sw in node]
        assert seen["alt_sets"] == [] and seen["bound_E_from_alts"] == 0


@pytest.mark.parametrize("test", ["LP", "VS"])
def test_b_bound_with_scope_last_tests_only_last_stage_rows(monkeypatch, test):
    """B with scope "last" reads only the last stage's switch sets, so it
    searches exactly as scope "all" does on the last stage alone."""
    model, stages = solved_instance(0, n=4, horizon=3)
    expected = greedy_bound_search(model, stages[-1:], "B", test, "all")
    last = stages[-1].matrix
    seen = []

    def spy_lp(alpha_i, alpha_j, *args, original=bounds.lp_switch_test):
        seen.append(np.shares_memory(alpha_i, last) and np.shares_memory(alpha_j, last))
        return original(alpha_i, alpha_j, *args)

    def spy_vs(coefficients, *args, original=bounds._squared_gap_sums):
        # each row's VS product reads the Walsh coefficients of the last
        # stage's rows only
        seen.append(np.array_equal(coefficients, walsh_transform(last)))
        return original(coefficients, *args)

    monkeypatch.setattr(bounds, "lp_switch_test", spy_lp)
    monkeypatch.setattr(bounds, "_squared_gap_sums", spy_vs)
    result = greedy_bound_search(model, stages, "B", test, "last")
    assert seen and all(seen)
    assert result.trace and result.trace == expected.trace
    assert result.scheme == expected.scheme


def test_bound_search_trace_nonincreasing_and_e_at_least_b():
    model, stages = solved_instance(6, n=3, horizon=2)
    for method in ("b-vs", "e-vs", "b-lp", "e-lp"):
        result = run_search(model, stages, SearchConfig(method=method))
        bounds = [step["bound"] for step in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))
        assert all(len(block) <= 2 for block in result.scheme.blocks)


def test_all_methods_return_covering_small_blocks():
    model, stages = solved_instance(7, n=3, horizon=2)
    for method in ALL_METHODS:
        result = run_search(model, stages, SearchConfig(method=method))
        schemes = ([result.scheme] if result.scheme is not None
                   else list(result.per_region.values()))
        for scheme in schemes:
            assert all(len(block) <= 2 for block in scheme.blocks)
            assert sorted(i for block in scheme.blocks for i in block) == list(range(3))


def test_search_determinism():
    model, stages = solved_instance(8, n=3, horizon=2)
    for method in ("b-vs", "vs-sum"):
        r1 = run_search(model, stages, SearchConfig(method=method))
        r2 = run_search(model, stages, SearchConfig(method=method))
        assert r1.to_doc(model.variables) == r2.to_doc(model.variables)


def test_result_doc_roundtrip():
    model, stages = solved_instance(9, n=3, horizon=2)
    for method in ("b-vs", "vs-max"):
        result = run_search(model, stages, SearchConfig(method=method))
        doc = result.to_doc(model.variables)
        again = result_from_doc(doc, model.variables)
        assert again.to_doc(model.variables) == doc


def test_unknown_method_rejected():
    with pytest.raises(InputError):
        SearchConfig(method="b-oracle")
    with pytest.raises(InputError):
        SearchConfig(method="b-vs", scope="middle")


@pytest.mark.parametrize("method", ["vs-sum", "vs-max"])
def test_estimator_search_refuses_scope_last(method):
    with pytest.raises(InputError, match=f"'{method}' covers every stage; scope 'last'"):
        SearchConfig(method, "last")


def test_b_lp_switch_lps_take_at_most_half_the_lowest_index_pivots(monkeypatch):
    # random_pomdp(6, 2, 2, rng 1000) at horizon 3 makes 667 switch LPs under
    # b-lp; lowest-index pricing took 86,792 pivots over them
    model = random_pomdp(6, 2, 2, np.random.default_rng(1000))
    stages = solve(model, 3)
    pivots = []

    def counted(lp):
        result = solve_lp(lp)
        pivots.append(result.pivots)
        return result
    monkeypatch.setattr(bounds, "solve_lp", counted)
    run_search(model, stages, SearchConfig(method="b-lp"))
    assert len(pivots) == 667
    assert sum(pivots) <= 86_792 // 2


def test_b_lp_warm_started_switch_lps_take_under_a_third_of_the_cold_pivots(monkeypatch):
    # each child LP along a lattice edge starts from its parent's final
    # tableau, and phase 2 stops at the first vertex that proves a switch;
    # solved cold to the optimum, the same 667 LPs took 28,115 pivots, and
    # warm-started to the optimum 6,747 (2,616 in phase 1, 4,131 in phase 2)
    model = random_pomdp(6, 2, 2, np.random.default_rng(1000))
    stages = solve(model, 3)
    pivots, decisions = [], []

    def counted(lp):
        result = solve_lp(lp)
        pivots.append(result.pivots)
        cold = solve_lp(LinearProgram(lp.objective, lp.constraints, lp.upper))
        decisions.append((result.status == "stopped" or result.value > SWITCH_TOL,
                          cold.value > SWITCH_TOL))
        return result
    monkeypatch.setattr(bounds, "solve_lp", counted)
    run_search(model, stages, SearchConfig(method="b-lp"))
    assert len(pivots) == 667
    assert sum(pivots) <= 2_632
    assert all(ours == full for ours, full in decisions)


@pytest.mark.parametrize("method, scope", [("b-vs", "all"), ("b-vs", "last"), ("e-vs", "last")])
def test_vs_bound_search_transforms_each_tested_stage_once(monkeypatch, method, scope):
    """Every lattice node reads the transform its stage set keeps: a search
    of several nodes transforms each stage it tests once (a stage of one
    vector has no pair to test), and B with scope "last" tests the last
    stage alone, while E recurses through every one."""
    model, stages = solved_instance(0, n=4, horizon=3)
    transformed = []

    def counted(matrix, original=solver.walsh_transform):
        transformed.append(matrix)
        return original(matrix)

    monkeypatch.setattr(solver, "walsh_transform", counted)
    result = run_search(model, stages, SearchConfig(method=method, scope=scope))
    assert len(result.trace) >= 2
    tested = [aset for aset in (stages[-1:] if (method, scope) == ("b-vs", "last") else stages)
              if len(aset) > 1]
    assert len(transformed) == len(tested) > 0
    assert all(matrix is aset.matrix for matrix, aset in zip(transformed, tested))


def test_vs_search_builds_each_nodes_children_once(monkeypatch):
    """All regions descend one root, and a node builds its children once,
    so a scheme with k pair blocks, a child of k nodes, is built at most k
    times however many regions pass through it."""
    _, stages = solved_instance(0, n=4, horizon=3)
    built = []

    def recorded(scheme, original=ProjectionScheme.__post_init__):
        original(scheme)
        built.append(scheme)

    monkeypatch.setattr(ProjectionScheme, "__post_init__", recorded)
    result = vs_search(stages, "sum")
    steps = [len(trace) for trace in result.trace.values()]
    assert len(steps) > 4 and sum(step > 0 for step in steps) > 4
    counts = Counter(built)
    assert counts[lattice_root(4)] == 1
    for scheme, count in counts.items():
        assert count <= max(1, sum(len(block) == 2 for block in scheme.blocks)), scheme
