import numpy as np
import pytest

from beliefproj import (InputError, Pomdp, ZeroProbabilityObservation,
                        belief_update, compile_model, model_to_spec,
                        observation_probabilities, predicted_belief, value_of)

UNIFORM_OBS = [[0.5, 0.5], [0.5, 0.5]]


def base_spec():
    return {
        "variables": ["x"],
        "actions": ["go"],
        "observations": ["z0", "z1"],
        "transitions": {"go": {"cpts": {"x": {"parents": ["x"],
                                              "rows": [[0.0, 1.0], [1.0, 0.0]]}}}},
        "observation": {"go": UNIFORM_OBS},
        "reward": [0.0, 1.0],
        "discount": 0.9,
    }


def test_compile_deterministic_identity():
    model = compile_model(base_spec())
    np.testing.assert_array_equal(model.transition[0], np.eye(2))


def test_compile_independent_uniform_pair():
    spec = base_spec()
    spec["variables"] = ["x", "y"]
    spec["transitions"] = {"go": {"cpts": {
        "x": {"parents": [], "rows": [[0.5, 0.5]]},
        "y": {"parents": [], "rows": [[0.5, 0.5]]},
    }}}
    spec["observation"] = {"go": [[0.5, 0.5]] * 4}
    spec["reward"] = [0.0] * 4
    model = compile_model(spec)
    np.testing.assert_allclose(model.transition[0], np.full((4, 4), 0.25))


def test_compile_chained_parents_matches_enumeration():
    """Dense table equals the direct product of CPT entries per (s, s') pair."""
    rng = np.random.default_rng(0)
    p_x = rng.random((1, 1))          # no parents
    p_y = rng.random((2, 1))          # parent x
    p_z = rng.random((4, 1))          # parents x, y
    as_rows = lambda p: [[float(v), float(1 - v)] for v in p[:, 0]]
    spec = base_spec()
    spec["variables"] = ["x", "y", "z"]
    spec["transitions"] = {"go": {"cpts": {
        "x": {"parents": [], "rows": as_rows(p_x)},
        "y": {"parents": ["x"], "rows": as_rows(p_y)},
        "z": {"parents": ["x", "y"], "rows": as_rows(p_z)},
    }}}
    spec["observation"] = {"go": [[0.5, 0.5]] * 8}
    spec["reward"] = [0.0] * 8
    model = compile_model(spec)

    truth = {0: p_x[:, 0], 1: p_y[:, 0], 2: p_z[:, 0]}
    parents = {0: [], 1: [0], 2: [0, 1]}
    for s in range(8):
        for s2 in range(8):
            prob = 1.0
            for var in range(3):
                key = 0
                for slot, p in enumerate(parents[var]):
                    key |= ((s >> p) & 1) << slot
                pt = truth[var][key]
                prob *= pt if (s2 >> var) & 1 else 1 - pt
            assert model.transition[0, s, s2] == pytest.approx(prob, abs=1e-12)


def test_compile_flat_tables():
    spec = base_spec()
    spec["transitions"] = {"go": {"flat": [[0.25, 0.75], [0.6, 0.4]]}}
    model = compile_model(spec)
    np.testing.assert_allclose(model.transition[0], [[0.25, 0.75], [0.6, 0.4]])


@pytest.mark.parametrize("mutate,match", [
    (lambda s: s.__setitem__("variables", ["x", "x"]), "duplicate"),
    (lambda s: s["transitions"]["go"]["cpts"]["x"].__setitem__(
        "rows", [[0.3, 0.3], [1.0, 0.0]]), "sum"),
    (lambda s: s["transitions"]["go"]["cpts"]["x"].__setitem__(
        "parents", ["ghost"]), "undeclared"),
    (lambda s: s.__setitem__("discount", 1.5), "discount"),
    (lambda s: s["observation"].__setitem__("go", [[0.9, 0.3], [0.5, 0.5]]), "row"),
])
def test_compile_rejects_bad_specs(mutate, match):
    spec = base_spec()
    mutate(spec)
    with pytest.raises(InputError, match=match):
        compile_model(spec)


def test_model_spec_roundtrip():
    model = compile_model(base_spec())
    again = compile_model(model_to_spec(model))
    np.testing.assert_array_equal(model.transition, again.transition)
    np.testing.assert_array_equal(model.observation_fn, again.observation_fn)


def test_belief_update_uninformative_is_identity():
    model = compile_model(base_spec())  # identity dynamics, uniform observation
    b = np.array([0.3, 0.7])
    np.testing.assert_allclose(belief_update(model, b, 0, 1), b, atol=1e-12)


def test_belief_update_two_state_bayes():
    # P(x'|x)=0.9, P(x'|!x)=0.2, P(z|x')=0.8, P(z|!x')=0.3, b(x)=0.5:
    # predicted x' = 0.55, so b'(x) = 0.44 / (0.44 + 0.135)
    transition = np.array([[[0.8, 0.2], [0.1, 0.9]]])
    observation = np.array([[[0.7, 0.3], [0.2, 0.8]]])
    model = Pomdp(("x",), ("a",), ("z0", "z1"), transition, observation,
                  np.zeros(2), 0.9)
    posterior = belief_update(model, np.array([0.5, 0.5]), 0, 1)
    assert posterior[1] == pytest.approx(0.44 / 0.575, abs=1e-12)
    assert posterior.sum() == pytest.approx(1.0)


def test_belief_update_impossible_observation():
    transition = np.array([[[0.0, 1.0], [0.0, 1.0]]])   # always end at x
    observation = np.array([[[1.0, 0.0], [1.0, 0.0]]])  # always observe z0
    model = Pomdp(("x",), ("a",), ("z0", "z1"), transition, observation,
                  np.zeros(2), 0.9)
    with pytest.raises(ZeroProbabilityObservation):
        belief_update(model, np.array([0.5, 0.5]), 0, 1)


def test_chapman_kolmogorov(rng):
    from beliefproj import random_pomdp
    for _ in range(5):
        model = random_pomdp(3, 2, 3, rng)
        b = rng.dirichlet(np.ones(8))
        for a in range(model.n_actions):
            predicted = predicted_belief(model, b, a)
            pz = observation_probabilities(model, b, a)
            mixed = sum(pz[z] * belief_update(model, b, a, z)
                        for z in range(model.n_observations))
            np.testing.assert_allclose(mixed, predicted, atol=1e-9)


def test_value_of_constant_vector():
    mat = np.array([[5.0, 5.0]])
    for b in ([1.0, 0.0], [0.25, 0.75]):
        assert value_of(np.array(b), mat) == (5.0, 0)


def test_value_of_tie_breaks_low_index():
    mat = np.array([[1.0, 0.0], [0.0, 1.0]])
    value, idx = value_of(np.array([0.5, 0.5]), mat)
    assert (value, idx) == (0.5, 0)


def test_value_of_matches_exhaustive_scan(rng):
    mat = rng.normal(size=(10, 8))
    for _ in range(100):
        b = rng.dirichlet(np.ones(8))
        value, idx = value_of(b, mat)
        scan = [float(row @ b) for row in mat]
        assert value == pytest.approx(max(scan), abs=1e-12)
        assert idx == int(np.argmax(scan))


def test_value_of_permutation_invariant_value(rng):
    mat = rng.normal(size=(6, 4))
    b = rng.dirichlet(np.ones(4))
    perm = rng.permutation(6)
    v1, _ = value_of(b, mat)
    v2, _ = value_of(b, mat[perm])
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_value_of_dimension_mismatch():
    with pytest.raises(InputError):
        value_of(np.array([0.5, 0.5]), np.zeros((3, 4)))


def test_compile_rejects_too_many_variables():
    spec = base_spec()
    spec["variables"] = [f"v{i}" for i in range(21)]
    with pytest.raises(InputError, match="20-variable"):
        compile_model(spec)
