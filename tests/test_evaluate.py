import numpy as np
import pytest

from beliefproj import (AlphaSet, EvalConfig, GuardError, InputError,
                        Pomdp, ProjectionScheme, achieved_value, average_error,
                        belief_update, evaluate, lattice_children, lattice_root,
                        observation_probabilities, project, random_belief,
                        random_pomdp, solve, value_of, vs_search)
from beliefproj.bounds import scheme_lookup
from beliefproj.evaluate import BRANCH_TOL, _block_values
from beliefproj.model import sample_beliefs
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
    lookup = scheme_lookup(scheme_source)
    horizon = len(stages)

    def build(b_approx, k):
        aset = stages[k - 1]
        _, idx = value_of(b_approx, aset)
        action = aset.actions[idx]
        children = {}
        if k > 1:
            scheme = lookup(k, idx)
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
    start = project(b0, lookup(horizon, top))
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


def test_achieved_value_guard():
    model, stages = solved(5, horizon=2)
    with pytest.raises(GuardError):
        achieved_value(model, stages, lattice_root(2), np.full(4, 0.25),
                       "single", guard=1)


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
    result = vs_search(stages, "sum", scope="all")
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
               "per-region": vs_search(stages, "sum", scope="all").per_region}
    beliefs = sample_beliefs(model.n_states, 40, np.random.default_rng(seed))
    for name, source in sources.items():
        for mode in ("single", "successive"):
            optimal, achieved, _ = _block_values(model, stages, scheme_lookup(source),
                                                 beliefs, mode)
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


def restart_instance():
    """Two variables, where a projected track finds an observation impossible
    that the exact track still reaches.

    "go" moves every state to 00 except for mass RESTART_EPS on 11 and observes
    nothing; "probe" stays put and observes z1 only in state 11. After "go" the
    exact belief puts RESTART_EPS on 11 and its singleton projection about
    RESTART_EPS**2, so under "probe" z1 has probability RESTART_EPS on the exact
    track (above BRANCH_TOL) and below the update threshold on the projected one.
    The plan is go, then probe, then stop.
    """
    go = np.zeros((4, 4))
    go[:, 0] = 1.0 - RESTART_EPS
    go[:, 3] = RESTART_EPS
    probe_obs = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    model = Pomdp(("x", "y"), ("go", "probe"), ("z0", "z1"),
                  np.stack([go, np.eye(4)]),
                  np.stack([np.full((4, 2), 0.5), probe_obs]),
                  np.array([0.0, 1.0, 2.0, 5.0]), 0.9)
    stages, values = [], np.zeros(4)
    for k, action in enumerate((1, 1, 0), start=1):
        values = plan_vector(model, action, [values, values])
        stages.append(AlphaSet(k, values[np.newaxis], np.array([action]),
                               np.zeros((1, 2), dtype=np.intp)))
    return model, stages


def test_restart_path_matches_recursive_and_is_counted():
    model, stages = restart_instance()
    scheme = lattice_root(2)
    num_beliefs = 70  # two blocks, the second one partial
    for mode, restarts_per_belief in (("single", 0), ("successive", 2)):
        beliefs = sample_beliefs(4, num_beliefs, np.random.default_rng(4))
        _, achieved, restarts = _block_values(model, stages, scheme_lookup(scheme),
                                              beliefs, mode)
        assert restarts == restarts_per_belief * num_beliefs
        for row, b0 in enumerate(beliefs):
            want = achieved_value(model, stages, scheme, b0, mode)
            assert abs(achieved[row] - want) <= 1e-12
        report = average_error(model, stages, scheme,
                               EvalConfig(num_beliefs=num_beliefs, seed=4, mode=mode))
        assert report.approx_restarts == restarts_per_belief * num_beliefs
        assert "approx_restarts" not in report.to_doc()


def test_average_error_checks_guard_before_sampling(monkeypatch):
    model, stages = solved(5, horizon=2)

    def no_sampling(*args):
        raise AssertionError("beliefs drawn before the checks")

    monkeypatch.setattr(evaluate, "sample_beliefs", no_sampling)
    monkeypatch.setattr(evaluate, "BRANCH_GUARD", 3)
    with pytest.raises(GuardError):
        average_error(model, stages, lattice_root(2),
                      EvalConfig(num_beliefs=10))
