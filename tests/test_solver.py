import itertools
import json

import numpy as np
import pytest

from beliefproj import (AlphaSet, GuardError, InputError, Pomdp, backup,
                        brute_force_value, prune, random_belief, random_pomdp,
                        solve, value_of, zero_stage)
from beliefproj import solver
from beliefproj.model import DEPTH_GUARD
from beliefproj.solver import plan_vector, stages_from_doc, stages_to_doc, undominated

from conftest import two_state_model


def alpha_set(rows, stage=1, strategy=(0, 0)):
    matrix = np.asarray(rows, dtype=float)
    return AlphaSet(stage, matrix, np.zeros(len(matrix), dtype=np.intp),
                    np.tile(np.asarray(strategy, dtype=np.intp), (len(matrix), 1)))


def test_backup_from_zero_stage_gives_reward_per_action():
    model = random_pomdp(2, 3, 2, np.random.default_rng(1))
    out = backup(model, zero_stage(model))
    assert len(out) == model.n_actions
    for values in out.matrix:
        np.testing.assert_allclose(values, model.reward, atol=1e-12)


def test_backup_becomes_myopic_as_discount_vanishes():
    rng = np.random.default_rng(2)
    model = random_pomdp(2, 2, 2, rng, discount=1e-12)
    stages = solve(model, 2)
    prev = stages[0]
    out = backup(model, prev)
    for values in out.matrix:
        np.testing.assert_allclose(values, model.reward, atol=1e-10)


def test_backup_matches_nested_loop_oracle():
    model = two_state_model()
    prev = alpha_set([[1.0, 0.0], [0.2, 0.7]], stage=1)
    out = backup(model, prev)
    assert len(out) == 1 * len(prev) ** 2
    for values, a, strategy in zip(out.matrix, out.actions, out.strategies):
        for s in range(2):
            expected = model.reward[s]
            for s2 in range(2):
                for z in range(2):
                    expected += (model.discount * model.transition[a, s, s2]
                                 * model.observation_fn[a, s2, z]
                                 * prev.matrix[strategy[z], s2])
            assert values[s] == pytest.approx(expected, abs=1e-12)


def test_backup_orders_plans_by_action_then_product_strategy(rng):
    # prune keeps the first of any duplicates, so this order decides which
    # plan of a duplicate group survives into the policy document
    model = random_pomdp(2, 2, 3, np.random.default_rng(14))
    prev = alpha_set(rng.normal(size=(3, 4)), strategy=(0, 0, 0))
    out = backup(model, prev)
    expected = [(a, s) for a in range(2) for s in itertools.product(range(3), repeat=3)]
    assert list(zip(out.actions.tolist(), map(tuple, out.strategies.tolist()))) == expected
    for values, a, strategy in zip(out.matrix, out.actions, out.strategies):
        np.testing.assert_allclose(
            values, plan_vector(model, a, [prev.matrix[p] for p in strategy]),
            rtol=0, atol=1e-12)


def test_alpha_set_arrays_are_read_only_and_finite():
    model = random_pomdp(2, 2, 2, np.random.default_rng(15))
    for aset in [zero_stage(model), *solve(model, 2)]:
        for arr in (aset.matrix, aset.actions, aset.strategies):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
    with pytest.raises(InputError, match="non-finite"):
        alpha_set([[1.0, np.nan]])
    with pytest.raises(InputError, match="stage-0 vectors carry no strategy"):
        alpha_set([[1.0, 0.0]], stage=0, strategy=(0,))


def test_backup_guard():
    model = random_pomdp(2, 2, 2, np.random.default_rng(3))
    prev = alpha_set(np.zeros((40, 4)), strategy=(0, 0))
    with pytest.raises(GuardError):
        backup(model, prev, cap=100)


def test_prune_pointwise_dominance():
    out = prune(alpha_set([[1.0, 1.0], [0.0, 0.0]]))
    assert len(out) == 1
    np.testing.assert_array_equal(out.matrix[0], [1.0, 1.0])


def test_prune_drops_interior_vector():
    # (0.4, 0.4) is below max(b.(1,0), b.(0,1)) everywhere on the simplex
    out = prune(alpha_set([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]]))
    surviving = {tuple(values) for values in out.matrix.tolist()}
    assert surviving == {(1.0, 0.0), (0.0, 1.0)}
    # grid oracle: the dropped vector is never maximal
    for t in np.linspace(0.0, 1.0, 201):
        b = np.array([t, 1.0 - t])
        assert max(t, 1 - t) >= 0.4 * t + 0.4 * (1 - t) - 1e-12


def test_prune_idempotent_on_parsimonious_set():
    parsimonious = alpha_set([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]])
    once = prune(parsimonious)
    twice = prune(once)
    assert twice.matrix.tolist() == once.matrix.tolist()


def test_prune_keeps_first_duplicate_and_corner_winners():
    out = prune(alpha_set([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert out.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_prune_keeps_one_of_two_rows_that_differ_only_in_a_zero_sign():
    # each row is >= the other everywhere; dropping both loses the plan that
    # is worth 1.0 at belief (0, 1)
    out = prune(alpha_set([[0.0, 1.0], [-0.0, 1.0], [0.5, 0.2]]))
    assert out.matrix.tolist() == [[0.0, 1.0], [0.5, 0.2]]
    assert not np.signbit(out.matrix[0, 0])
    assert float((out.matrix @ [0.0, 1.0]).max()) == 1.0


@pytest.mark.parametrize("block", [solver.DOMINANCE_BLOCK, 7])
def test_undominated_matches_pairwise_loop(rng, monkeypatch, block):
    """Same cuts as keeping the first of each group of rows equal in value
    (signed zeros compare equal) and then comparing every pair, on small
    integer rows (many ties and duplicates) with signed zeros; a small block
    splits the comparison into slices."""
    monkeypatch.setattr(solver, "DOMINANCE_BLOCK", block)
    for _ in range(200):
        m, dim = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        mat = rng.integers(0, 3, size=(m, dim)).astype(float)
        mat = np.where(rng.random(mat.shape) < 0.2, -mat, mat)
        first = list({tuple(row.tolist()): i
                      for i, row in reversed(list(enumerate(mat)))}.values())
        first.sort()
        expected = [i for i in first
                    if not any(np.all(mat[j] >= mat[i]) for j in first if j != i)]
        assert undominated(mat).tolist() == expected


def test_prune_preserves_upper_surface(rng):
    raw = alpha_set(rng.normal(size=(30, 4)), strategy=(0,))
    pruned = prune(raw)
    for _ in range(200):
        b = random_belief(4, rng)
        v_raw, _ = value_of(b, raw)
        v_pruned, _ = value_of(b, pruned)
        assert v_pruned == pytest.approx(v_raw, abs=1e-9)


def test_prune_preserves_surface_at_every_solve_stage(rng):
    model = random_pomdp(3, 3, 2, np.random.default_rng(13), discount=0.9)
    prev = zero_stage(model)
    for _ in range(3):
        raw = backup(model, prev)
        prev = prune(raw)
        for _ in range(200):
            b = random_belief(model.n_states, rng)
            v_raw, _ = value_of(b, raw)
            v_pruned, _ = value_of(b, prev)
            assert v_pruned == pytest.approx(v_raw, abs=1e-9)


def test_prune_fixed_point_definition(rng):
    """Kept iff some belief makes the vector strictly better than every other
    kept vector, checked directly with the witness LP on both sides."""
    from beliefproj.solver import _witness

    mat = np.round(rng.normal(size=(25, 3)), 2)  # rounding forces some ties
    aset = alpha_set(mat, strategy=(0,))
    kept = prune(aset)
    kept_rows = list(kept.matrix)
    kept_keys = {values.tobytes() for values in kept.matrix}
    for i in range(25):
        others = [w for w in kept_rows if not np.array_equal(w, mat[i])]
        witness = _witness(mat[i], others)
        if mat[i].tobytes() in kept_keys:
            assert witness is not None
            margins = [float(mat[i] @ witness - w @ witness) for w in others]
            assert not margins or min(margins) > 0
        else:
            assert witness is None


def test_solve_one_stage_is_reward():
    model = random_pomdp(2, 2, 2, np.random.default_rng(4))
    stages = solve(model, 1)
    assert len(stages[0]) == 1  # reward does not depend on the action
    np.testing.assert_allclose(stages[0].matrix[0], model.reward)


def test_solve_perfect_observation_matches_mdp_value_iteration():
    rng = np.random.default_rng(6)
    n_states, n_actions, horizon = 4, 2, 4
    transition = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    observation = np.broadcast_to(np.eye(n_states), (n_actions, n_states, n_states)).copy()
    reward = rng.uniform(0, 10, n_states)
    model = Pomdp(("x", "y"), ("a0", "a1"), ("s0", "s1", "s2", "s3"),
                  transition, observation, reward, 0.9)
    stages = solve(model, horizon)

    v = np.zeros(n_states)
    for _ in range(horizon):
        v = reward + 0.9 * np.max(transition @ v, axis=0)
    for s in range(n_states):
        point = np.zeros(n_states)
        point[s] = 1.0
        got, _ = value_of(point, stages[-1])
        assert got == pytest.approx(v[s], abs=1e-8)


def test_solve_agrees_with_expectimax_oracle(rng):
    model = random_pomdp(2, 2, 2, np.random.default_rng(8), discount=0.9)
    stages = solve(model, 3)
    for _ in range(50):
        b = random_belief(4, rng)
        got, _ = value_of(b, stages[-1])
        assert got == pytest.approx(brute_force_value(model, b, 3), abs=1e-8)


def test_solve_six_variables_three_observations_matches_expectimax(rng):
    # `gen --vars 6 --actions 2 --obs 3 --seed 7 --discount 0.9`, `solve --horizon 4`:
    # one stage-4 witness LP used to end in a false phase-1 "unbounded" (exit 4)
    model = random_pomdp(6, 2, 3, np.random.default_rng(7), discount=0.9)
    stages = solve(model, 4)
    for _ in range(20):
        b = random_belief(64, rng)
        got, _ = value_of(b, stages[-1])
        assert got == pytest.approx(brute_force_value(model, b, 4), abs=1e-9)


def test_solve_four_variables_three_actions_matches_expectimax(rng):
    # `gen --vars 4 --actions 3 --obs 2 --seed 1005`, `solve --horizon 4`: with
    # one artificial per kept vector in the witness LP's phase 1, a stage-4 LP
    # pivoted on an entry of 1e-9 and ended in a false "unbounded" (exit 4)
    model = random_pomdp(4, 3, 2, np.random.default_rng(1005))
    stages = solve(model, 4)
    for _ in range(10):
        b = random_belief(16, rng)
        got, _ = value_of(b, stages[-1])
        assert got == pytest.approx(brute_force_value(model, b, 4), abs=1e-9)


def test_brute_force_base_cases():
    model = two_state_model()
    b = np.array([0.25, 0.75])
    assert brute_force_value(model, b, 0) == 0.0
    assert brute_force_value(model, b, 1) == pytest.approx(float(b @ model.reward))


def test_brute_force_guard(monkeypatch):
    model = random_pomdp(2, 3, 3, np.random.default_rng(9))
    monkeypatch.setattr(solver, "BRANCH_GUARD", 1000)
    with pytest.raises(GuardError):
        brute_force_value(model, np.full(4, 0.25), 5)


def test_brute_force_depth_cap():
    # one action and one observation keep the branching at 1, so only the
    # depth cap stops a walk that would pass the interpreter's recursion limit
    model = random_pomdp(1, 1, 1, np.random.default_rng(0))
    b = np.array([0.5, 0.5])
    stages = solve(model, DEPTH_GUARD)
    assert brute_force_value(model, b, DEPTH_GUARD) == pytest.approx(value_of(b, stages[-1])[0])
    for k in (DEPTH_GUARD + 1, 3 * DEPTH_GUARD):
        message = f"expectimax depth {k} exceeds the cap of {DEPTH_GUARD}"
        with pytest.raises(GuardError, match=message):
            brute_force_value(model, b, k)


def test_vector_values_within_finite_horizon_bounds():
    model = random_pomdp(3, 2, 2, np.random.default_rng(10), discount=0.9)
    stages = solve(model, 4)
    r_lo, r_hi = float(model.reward.min()), float(model.reward.max())
    for aset in stages:
        horizon_sum = sum(model.discount ** i for i in range(aset.stage))
        assert aset.matrix.min() >= r_lo * horizon_sum - 1e-9
        assert aset.matrix.max() <= r_hi * horizon_sum + 1e-9


def test_strategies_reference_previous_stage():
    model = random_pomdp(2, 2, 2, np.random.default_rng(11))
    stages = solve(model, 3)
    prev_len = 1
    for aset in stages:
        assert aset.strategies.shape == (len(aset), model.n_observations)
        assert np.all((0 <= aset.strategies) & (aset.strategies < prev_len))
        prev_len = len(aset)


def test_policy_doc_roundtrip():
    model = random_pomdp(2, 2, 2, np.random.default_rng(12))
    stages = solve(model, 3)
    doc = stages_to_doc(stages)
    again = stages_from_doc(doc)
    assert stages_to_doc(again) == doc
    for a, b in zip(stages, again):
        np.testing.assert_array_equal(a.matrix, b.matrix)


def test_policy_doc_roundtrip_keeps_every_bit():
    # a signed zero, subnormals and values near the float limit survive packing
    rows = [[-0.0, 5e-324, 1e308, -1e308], [0.0, -5e-324, 2.2250738585072014e-308 / 3, 0.1]]
    stages = [alpha_set(rows[:1], stage=1, strategy=()), alpha_set(rows, stage=2)]
    again = stages_from_doc(json.loads(json.dumps(stages_to_doc(stages))))
    for a, b in zip(stages, again):
        assert b.matrix.tobytes() == a.matrix.tobytes()
        np.testing.assert_array_equal(b.actions, a.actions)
        np.testing.assert_array_equal(b.strategies, a.strategies)


def unseeded_prune(aset):
    """``prune`` without the corner and centre seeding: the parsimonious
    filter that finds every kept vector through a witness LP."""
    mat = aset.matrix
    kept, pending = [], undominated(mat).tolist()
    while pending:
        i = pending[0]
        b = solver._witness(mat[i], [mat[j] for j in kept])
        if b is None:
            pending.pop(0)
            continue
        best = pending[int(np.argmax([float(mat[j] @ b) for j in pending]))]
        kept.append(best)
        pending.remove(best)
    return aset.take(sorted(kept))


def random_stage_sets(rng):
    """Stage sets drawn three ways: Gaussian rows, rows rounded to force
    ties, and the backups of small random models at stages 1 to 3."""
    for _ in range(80):
        m, dim = int(rng.integers(1, 40)), int(rng.integers(1, 7))
        mat = rng.normal(size=(m, dim))
        yield AlphaSet(1, mat, np.arange(m), np.zeros((m, 0), dtype=np.intp))
        mat = np.round(mat, 1)
        yield AlphaSet(1, mat, np.arange(m), np.zeros((m, 0), dtype=np.intp))
    for seed in range(15):
        shape = [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)][seed % 4]
        model = random_pomdp(*shape, np.random.default_rng(seed), discount=0.9)
        prev = zero_stage(model)
        for _ in range(3):
            raw = backup(model, prev)
            yield raw
            prev = unseeded_prune(raw)


def test_prune_keeps_the_rows_of_the_unseeded_filter(rng):
    count = 0
    for aset in random_stage_sets(rng):
        got, want = prune(aset), unseeded_prune(aset)
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.actions, want.actions)
        assert np.array_equal(got.strategies, want.strategies)
        count += 1
    assert count >= 200


def test_seeded_prune_solves_fewer_witness_lps(monkeypatch):
    model = random_pomdp(6, 2, 2, np.random.default_rng(1000))
    calls, solve_lp = [], solver.solve_lp
    monkeypatch.setattr(solver, "solve_lp", lambda lp: calls.append(lp) or solve_lp(lp))
    seeded = solve(model, 3)
    seeded_calls = len(calls)
    monkeypatch.setattr(solver, "prune", unseeded_prune)
    unseeded = solve(model, 3)
    assert 0 < seeded_calls < len(calls) - seeded_calls
    for got, want in zip(seeded, unseeded):
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.strategies, want.strategies)
