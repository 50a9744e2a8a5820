import dataclasses
import tracemalloc

import numpy as np
import pytest

from beliefproj import (AlphaSet, EvalConfig, GuardError, InputError,
                        Pomdp, ProjectionScheme, achieved_value, average_error,
                        belief_update, evaluate, lattice_children, lattice_root,
                        observation_probabilities, project, random_belief,
                        random_pomdp, solve, value_of, vs_search)
from beliefproj.bounds import scheme_of
from beliefproj.evaluate import BRANCH_TOL, DEPTH_GUARD, EVAL_BLOCK, _block_values
from beliefproj.errors import ZeroProbabilityObservation
from beliefproj.model import ZERO_OBS_TOL, sample_beliefs
from beliefproj.solver import plan_vector


def solved(seed, n=2, actions=2, obs=2, horizon=2, discount=0.9):
    model = random_pomdp(n, actions, obs, np.random.default_rng(seed), discount=discount)
    return model, solve(model, horizon)


def test_random_belief_dim_one_is_point_mass(rng):
    np.testing.assert_array_equal(random_belief(1, rng), [1.0])


def test_random_belief_mean_matches_dirichlet(rng):
    dim, draws = 5, 100_000
    total = np.zeros(dim)
    for _ in range(draws):
        total += random_belief(dim, rng)
    mean = total / draws
    # Dirichlet(1,..,1) coordinate variance is (1/d)(1-1/d)/(d+1)
    se = np.sqrt((1 / dim) * (1 - 1 / dim) / (dim + 1) / draws)
    np.testing.assert_allclose(mean, 1 / dim, atol=3 * se)


def test_random_belief_always_valid(rng):
    for _ in range(200):
        b = random_belief(7, rng)
        assert np.all(b >= 0)
        assert b.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_beliefs_block_equals_successive_draws():
    block = sample_beliefs(64, 300, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for row in block:
        np.testing.assert_array_equal(row, random_belief(64, rng))
    rng = np.random.default_rng(9)
    for row in block:
        raw = rng.standard_exponential(64)
        np.testing.assert_array_equal(row, raw / raw.sum())
    with pytest.raises(InputError):
        sample_beliefs(0, 3, rng)


def test_random_pomdp_determinism_and_validity():
    a = random_pomdp(3, 2, 2, np.random.default_rng(42))
    b = random_pomdp(3, 2, 2, np.random.default_rng(42))
    np.testing.assert_array_equal(a.transition, b.transition)
    np.testing.assert_array_equal(a.reward, b.reward)
    sparse = random_pomdp(3, 2, 2, np.random.default_rng(1), sparsity=0.6)
    assert np.all(sparse.transition.sum(axis=-1) == pytest.approx(1.0))
    with pytest.raises(InputError):
        random_pomdp(11, 2, 2, np.random.default_rng(0))


def test_random_pomdp_checks_its_table_size_before_drawing(monkeypatch):
    from beliefproj import model
    monkeypatch.setattr(model, "MAX_TABLE_ENTRIES", 47)  # (2, 2, 2) needs 48
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(GuardError, match="need 48 entries"):
        random_pomdp(2, 2, 2, rng)
    assert rng.bit_generator.state == state
    random_pomdp(2, 2, 1, rng)  # 2 * (16 + 4) = 40 entries


def _per_row_stochastic_rows(shape, rng, sparsity):
    """The per-row dead-row loop that ``random_pomdp`` once ran, kept as
    the reference for its vectorized rule; also returns the dead-row count."""
    raw = rng.standard_exponential(shape)
    dead_rows = 0
    if sparsity > 0.0:
        mask = rng.random(shape) >= sparsity
        kept = np.where(mask, raw, 0.0)
        dead = kept.sum(axis=-1) < 1e-300
        flat = kept.reshape(-1, shape[-1])
        raw_flat = raw.reshape(-1, shape[-1])
        for r in np.flatnonzero(dead.reshape(-1)):
            flat[r, int(np.argmax(raw_flat[r]))] = raw_flat[r, int(np.argmax(raw_flat[r]))]
            dead_rows += 1
        raw = kept
    return raw / raw.sum(axis=-1, keepdims=True), dead_rows


@pytest.mark.parametrize("sparsity", [0.3, 0.7, 0.95])
def test_random_pomdp_dead_rows_match_the_per_row_loop(sparsity):
    dead_rows = 0
    for seed in range(6):
        model = random_pomdp(2, 2, 3, np.random.default_rng(seed), sparsity=sparsity)
        rng = np.random.default_rng(seed)
        transition, dead_t = _per_row_stochastic_rows((2, 4, 4), rng, sparsity)
        observation, dead_o = _per_row_stochastic_rows((2, 4, 3), rng, sparsity)
        reward = rng.uniform(0.0, 10.0, 4)
        assert model.transition.tobytes() == transition.tobytes()
        assert model.observation_fn.tobytes() == observation.tobytes()
        assert model.reward.tobytes() == reward.tobytes()
        dead_rows += dead_t + dead_o
    # the dead-row path runs at every sparsity; at 0.95 most rows take it
    assert dead_rows > (48 if sparsity == 0.95 else 0)


def test_achieved_value_identity_scheme_is_optimal(rng):
    model, stages = solved(0, horizon=3)
    identity = ProjectionScheme.full(2)
    for _ in range(20):
        b0 = random_belief(4, rng)
        optimal, _ = value_of(b0, stages[-1])
        achieved = achieved_value(model, stages, identity, b0, "successive")
        assert achieved == pytest.approx(optimal, abs=1e-8)


def test_achieved_value_single_stage_modes_agree(rng):
    model, stages = solved(1, horizon=1)
    scheme = lattice_root(2)
    for _ in range(10):
        b0 = random_belief(4, rng)
        single = achieved_value(model, stages, scheme, b0, "single")
        successive = achieved_value(model, stages, scheme, b0, "successive")
        assert single == successive


def _policy_tree_oracle(model, stages, scheme_source, b0, mode):
    """Two-pass reference: first build the induced plan tree by walking the
    approximate track, then price that fixed tree against exact dynamics."""
    horizon = len(stages)

    def build(b_approx, k):
        aset = stages[k - 1]
        _, idx = value_of(b_approx, aset)
        action = aset.actions[idx]
        children = {}
        if k > 1:
            scheme = scheme_of(scheme_source, k, idx)
            for z in range(model.n_observations):
                try:
                    nxt = belief_update(model, b_approx, action, z)
                except Exception:
                    children[z] = None  # unreachable on the approximate track
                    continue
                if mode == "successive":
                    nxt = project(nxt, scheme)
                children[z] = build(nxt, k - 1)
        return {"action": action, "children": children}

    _, top = value_of(b0, stages[-1])
    start = project(b0, scheme_of(scheme_source, horizon, top))
    tree = build(start, horizon)

    def price(node, b_exact, k):
        total = float(model.reward @ b_exact)
        if k == 1:
            return total
        action = node["action"]
        pz = observation_probabilities(model, b_exact, action)
        acc = 0.0
        for z in range(model.n_observations):
            if pz[z] < BRANCH_TOL:
                continue
            nxt_exact = belief_update(model, b_exact, action, z)
            child = node["children"][z]
            if child is None:
                # the real run restarts the approximate track from the exact
                # posterior; rebuild the subtree from there
                child = build(nxt_exact, k - 1)
            acc += pz[z] * price(child, nxt_exact, k - 1)
        return total + model.discount * acc

    return price(tree, b0, horizon)


def test_achieved_value_matches_policy_tree_oracle(rng):
    for seed in (2, 3, 4):
        model, stages = solved(seed, horizon=3)
        scheme = lattice_root(2)
        for mode in ("single", "successive"):
            for _ in range(15):
                b0 = random_belief(4, rng)
                got = achieved_value(model, stages, scheme, b0, mode)
                want = _policy_tree_oracle(model, stages, scheme, b0, mode)
                assert got == pytest.approx(want, abs=1e-10)


def test_achieved_value_guard(monkeypatch):
    model, stages = solved(5, horizon=2)
    monkeypatch.setattr(evaluate, "BRANCH_GUARD", 1)
    with pytest.raises(GuardError):
        achieved_value(model, stages, lattice_root(2), np.full(4, 0.25), "single")
    with pytest.raises(InputError):
        achieved_value(model, [], lattice_root(2), np.full(4, 0.25))


def test_evaluation_deeper_than_the_depth_cap_raises_before_any_work(monkeypatch):
    # one state variable, action and observation: every level branches once
    model = random_pomdp(1, 1, 1, np.random.default_rng(0))
    stages = solve(model, DEPTH_GUARD + 1)
    b0 = np.array([0.3, 0.7])
    # the walks stay under the recursion limit at the cap
    expected = value_of(b0, stages[DEPTH_GUARD - 1])[0]
    for mode in ("single", "successive"):
        got = achieved_value(model, stages[:DEPTH_GUARD], lattice_root(1), b0, mode)
        assert got == pytest.approx(expected, rel=1e-9)
    report = average_error(model, stages[:DEPTH_GUARD], lattice_root(1),
                           EvalConfig(num_beliefs=3))
    assert report.average_loss == pytest.approx(0.0, abs=1e-9)

    def no_sampling(*args):
        raise AssertionError("beliefs drawn before the checks")

    monkeypatch.setattr(evaluate, "sample_beliefs", no_sampling)
    message = f"horizon {DEPTH_GUARD + 1} exceeds the evaluation depth cap of {DEPTH_GUARD}"
    for mode in ("single", "successive"):
        with pytest.raises(GuardError, match=message):
            achieved_value(model, stages, lattice_root(1), b0, mode)
        with pytest.raises(GuardError, match=message):
            average_error(model, stages, lattice_root(1), EvalConfig(mode=mode))


def test_average_error_identity_scheme_is_zero():
    model, stages = solved(6, horizon=2)
    cfg = EvalConfig(num_beliefs=40, seed=0, mode="successive")
    report = average_error(model, stages, ProjectionScheme.full(2), cfg)
    assert report.average_loss <= 1e-8
    assert report.bound_B == 0.0 and report.bound_E <= 1e-10


def test_average_error_within_bounds():
    for seed in (7, 8, 9):
        model, stages = solved(seed, n=3, horizon=2)
        scheme = lattice_root(3)
        single = average_error(model, stages, scheme,
                               EvalConfig(num_beliefs=150, seed=1, mode="single"))
        assert single.average_loss <= single.bound_B + 1e-6
        successive = average_error(model, stages, scheme,
                                   EvalConfig(num_beliefs=150, seed=1, mode="successive"))
        assert successive.average_loss <= successive.bound_E + 1e-6
        assert single.average_loss >= 0.0


def test_average_error_seed_determinism():
    model, stages = solved(10, horizon=2)
    cfg = EvalConfig(num_beliefs=60, seed=5, mode="successive")
    r1 = average_error(model, stages, lattice_root(2), cfg)
    r2 = average_error(model, stages, lattice_root(2), cfg)
    assert r1.average_loss == r2.average_loss
    assert r1.to_doc() == r2.to_doc()


def test_per_region_scheme_map_evaluates(rng):
    model, stages = solved(11, n=3, horizon=2)
    result = vs_search(stages, "sum")
    for mode in ("single", "successive"):
        report = average_error(model, stages, result.per_region,
                               EvalConfig(num_beliefs=50, seed=2, mode=mode),
                               method="vs-sum")
        assert report.average_loss >= 0.0
        assert report.average_loss <= (report.bound_B if mode == "single"
                                       else report.bound_E) + 1e-6


def test_loss_never_negative(rng):
    model, stages = solved(12, n=3, horizon=3)
    scheme = lattice_root(3)
    for _ in range(30):
        b0 = random_belief(8, rng)
        optimal, _ = value_of(b0, stages[-1])
        achieved = achieved_value(model, stages, scheme, b0, "successive")
        assert optimal - achieved >= -1e-8


def test_finer_schemes_help_on_ensemble_average():
    """Per-edge loss monotonicity is not a theorem (a finer scheme can lose
    on a specific instance); the trend must hold on the ensemble average."""
    parent_losses, child_losses = [], []
    for seed in range(6):
        model, stages = solved(seed, n=3, horizon=2)
        root = lattice_root(3)
        cfg = EvalConfig(num_beliefs=120, seed=3, mode="successive")
        parent = average_error(model, stages, root, cfg)
        parent_losses.append(parent.average_loss)
        per_child = []
        for child, _ in lattice_children(root):
            report = average_error(model, stages, child, cfg)
            per_child.append(report.average_loss)
        child_losses.append(float(np.mean(per_child)))
    assert np.mean(child_losses) <= np.mean(parent_losses) + 1e-9


# (n, |Z|, horizon, model seed): every n in 2..4, |Z| in {2, 3} and horizon
# in 1..3 appears, and the per-region maps hold two or more distinct schemes
# wherever the horizon allows
DIFFERENTIAL_CASES = [(2, 2, 1, 20), (2, 3, 3, 21), (3, 2, 3, 22), (3, 3, 2, 23),
                      (4, 2, 3, 24), (4, 3, 2, 25), (3, 3, 3, 26)]


@pytest.mark.parametrize("n, obs, horizon, seed", DIFFERENTIAL_CASES)
def test_batched_evaluation_matches_recursive_per_belief(n, obs, horizon, seed):
    model = random_pomdp(n, 3, obs, np.random.default_rng(seed), discount=0.9)
    stages = solve(model, horizon)
    sources = {"global": lattice_root(n),
               "per-region": vs_search(stages, "sum").per_region}
    beliefs = sample_beliefs(model.n_states, 40, np.random.default_rng(seed))
    for name, source in sources.items():
        for mode in ("single", "successive"):
            optimal, achieved, _ = _block_values(model, stages, source, beliefs, mode)
            for row, b0 in enumerate(beliefs):
                want, _ = value_of(b0, stages[-1])
                assert abs(optimal[row] - want) <= 1e-12, (name, mode, row)
                want = achieved_value(model, stages, source, b0, mode)
                assert abs(achieved[row] - want) <= 1e-12, (name, mode, row)
            report = average_error(model, stages, source,
                                   EvalConfig(num_beliefs=40, seed=seed, mode=mode))
            assert report.average_loss == pytest.approx(
                float(np.mean(np.maximum(0.0, optimal - achieved))), abs=1e-12)


RESTART_EPS = 1e-8


def restart_instance(dead_observation=False):
    """Two variables, where a projected track finds an observation impossible
    that the exact track still reaches.

    "go" moves every state to 00 except for mass RESTART_EPS on 11 and observes
    nothing; "probe" stays put and observes z1 only in state 11. After "go" the
    exact belief puts RESTART_EPS on 11 and its singleton projection about
    RESTART_EPS**2, so under "probe" z1 has probability RESTART_EPS on the exact
    track (above BRANCH_TOL) and below the update threshold on the projected one.
    The plan is go, then probe, then stop. With ``dead_observation`` there is a
    third observation z2, which "go" emits as often as the others and "probe"
    never does.
    """
    go = np.zeros((4, 4))
    go[:, 0] = 1.0 - RESTART_EPS
    go[:, 3] = RESTART_EPS
    probe_obs = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    observations = ("z0", "z1")
    if dead_observation:
        probe_obs = np.hstack([probe_obs, np.zeros((4, 1))])
        observations += ("z2",)
    n_obs = len(observations)
    model = Pomdp(("x", "y"), ("go", "probe"), observations,
                  np.stack([go, np.eye(4)]),
                  np.stack([np.full((4, n_obs), 1.0 / n_obs), probe_obs]),
                  np.array([0.0, 1.0, 2.0, 5.0]), 0.9)
    stages, values = [], np.zeros(4)
    for k, action in enumerate((1, 1, 0), start=1):
        values = plan_vector(model, action, [values] * n_obs)
        stages.append(AlphaSet(k, values[np.newaxis], np.array([action]),
                               np.zeros((1, n_obs), dtype=np.intp)))
    return model, stages


def faint_column_instance(weight):
    """A random (3, 3, 3) model whose action 1 emits observation 2 with
    weight ``weight`` before its rows are normalized, solved to horizon 3,
    with its per-region sum-search schemes."""
    model = random_pomdp(3, 3, 3, np.random.default_rng(41), discount=0.9)
    observation = model.observation_fn.copy()
    observation[1, :, 2] = weight
    observation[1] /= observation[1].sum(axis=1, keepdims=True)
    model = Pomdp(model.variables, model.actions, model.observations, model.transition,
                  observation, model.reward, model.discount)
    stages = solve(model, 3)
    return model, stages, vs_search(stages, "sum").per_region


@pytest.mark.parametrize("case", ["zero-column", "faint-column", "restart"])
def test_leaf_branches_under_branch_tol_match_recursive(monkeypatch, case):
    """An action with a zero or faint observation column, chosen just above
    the leaves, gives leaf branches below BRANCH_TOL: of probability 0, which
    every track finds impossible, or a few times 1e-12, whose rewards would
    still show in the values. The folded leaf level skips them as the
    recursion does, and counts the restarts it counts."""
    if case == "zero-column":
        model, stages, source = faint_column_instance(0.0)
    elif case == "faint-column":
        model, stages, source = faint_column_instance(5 * ZERO_OBS_TOL)
    else:
        model, stages = restart_instance(dead_observation=True)
        source = lattice_root(2)
    assert 1 in stages[1].actions
    recursion_restarts = 0

    def counting_update(*args):
        nonlocal recursion_restarts
        try:
            return belief_update(*args)
        except ZeroProbabilityObservation:
            recursion_restarts += 1
            raise

    monkeypatch.setattr(evaluate, "belief_update", counting_update)
    num_beliefs = 70
    for mode in ("single", "successive"):
        beliefs = sample_beliefs(model.n_states, num_beliefs, np.random.default_rng(6))
        _, achieved, restarts = _block_values(model, stages, source, beliefs, mode)
        recursion_restarts = 0
        for row, b0 in enumerate(beliefs):
            want = achieved_value(model, stages, source, b0, mode)
            assert abs(achieved[row] - want) <= 1e-12, (mode, row)
        assert restarts == recursion_restarts
        if case == "restart" and mode == "successive":
            # one under "probe" after each of the three observations of "go"
            assert restarts == 3 * num_beliefs
        report = average_error(model, stages, source,
                               EvalConfig(num_beliefs=num_beliefs, seed=6, mode=mode))
        assert report.approx_restarts == recursion_restarts


def test_restart_path_matches_recursive_and_is_counted():
    model, stages = restart_instance()
    scheme = lattice_root(2)
    num_beliefs = EVAL_BLOCK + 6  # two blocks, the second one partial
    for mode, restarts_per_belief in (("single", 0), ("successive", 2)):
        beliefs = sample_beliefs(4, num_beliefs, np.random.default_rng(4))
        _, achieved, restarts = _block_values(model, stages, scheme, beliefs, mode)
        assert restarts == restarts_per_belief * num_beliefs
        for row, b0 in enumerate(beliefs):
            want = achieved_value(model, stages, scheme, b0, mode)
            assert abs(achieved[row] - want) <= 1e-12
        report = average_error(model, stages, scheme,
                               EvalConfig(num_beliefs=num_beliefs, seed=4, mode=mode))
        assert report.approx_restarts == restarts_per_belief * num_beliefs
        assert "approx_restarts" not in report.to_doc()


# a bound on the peak traced bytes of one average_error, in arrays of
# EVAL_BLOCK x states floats: the walk holds about 12 of them at horizon 3
# (the live intermediates of each level and the projection's gathers)
WORKING_SET_BLOCKS = 16


@pytest.mark.parametrize("n, horizon, num_beliefs", [(6, 3, 5000), (10, 2, 300)])
def test_the_evals_working_set_is_a_few_blocks_whatever_the_belief_count(n, horizon,
                                                                          num_beliefs):
    model = random_pomdp(n, 2, 2, np.random.default_rng(1000))
    stages = solve(model, horizon)
    cfg = EvalConfig(num_beliefs=num_beliefs, seed=1, mode="successive")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        average_error(model, stages, lattice_root(n), cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < WORKING_SET_BLOCKS * EVAL_BLOCK * model.n_states * 8


def test_average_error_checks_guard_before_sampling(monkeypatch):
    model, stages = solved(5, horizon=2)

    def no_sampling(*args):
        raise AssertionError("beliefs drawn before the checks")

    monkeypatch.setattr(evaluate, "sample_beliefs", no_sampling)
    monkeypatch.setattr(evaluate, "BRANCH_GUARD", 3)
    with pytest.raises(GuardError):
        average_error(model, stages, lattice_root(2),
                      EvalConfig(num_beliefs=10))


@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize("mode", ["single", "successive"])
def test_only_levels_above_the_leaves_project_the_approximate_track(monkeypatch, mode,
                                                                    horizon):
    """The leaves read only the exact track, so each belief's approximate
    track is projected once per level above the last in successive mode
    (once in all, at the root, in single mode), and the values are those of
    the recursion, which projects at every level."""
    model, stages = solved(31, n=3, actions=3, obs=2, horizon=horizon)
    beliefs = sample_beliefs(model.n_states, 20, np.random.default_rng(31))
    projected = []

    def spy(rows, scheme):
        projected.append(rows.shape[0])
        return project_batch(rows, scheme)

    project_batch = evaluate.project_batch
    monkeypatch.setattr(evaluate, "project_batch", spy)
    sources = {"global": lattice_root(3),
               "per-region": vs_search(stages, "sum").per_region}
    levels = horizon - 1 if mode == "successive" else min(horizon - 1, 1)
    for source in sources.values():
        projected.clear()
        _, achieved, restarts = _block_values(model, stages, source, beliefs, mode)
        # a dense model reaches every observation at every level
        assert sum(projected) == 20 * sum(model.n_observations ** level
                                          for level in range(levels))
        assert restarts == 0
        for row, b0 in enumerate(beliefs):
            want = achieved_value(model, stages, source, b0, mode)
            assert abs(achieved[row] - want) <= 1e-12


def test_average_error_of_several_blocks_builds_the_leaf_tables_once():
    """The leaf tables are the only products of the whole transition table
    with the observation tables, and the model keeps them for every block."""
    products = []

    class ProductSpy(np.ndarray):
        def __matmul__(self, other):
            products.append((self.ndim, np.ndim(other)))
            return np.asarray(self) @ other

    model, stages = solved(2, n=3, horizon=3)
    spied = dataclasses.replace(model, transition=model.transition.view(ProductSpy))
    cfg = EvalConfig(num_beliefs=3 * EVAL_BLOCK + 1, seed=2, mode="successive")
    report = average_error(spied, stages, lattice_root(3), cfg)
    assert products.count((3, 3)) == 2
    assert report.average_loss == average_error(model, stages, lattice_root(3), cfg).average_loss
