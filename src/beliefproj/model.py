"""POMDP over binary state variables, beliefs, and exact Bayesian monitoring.

State indexing convention used everywhere in this package: with variables
(x0, .., x{n-1}) declared in order, joint state ``s`` is the integer whose
bit ``i`` is 1 iff variable ``i`` is true, so there are ``2**n`` states and
state 0 is the all-false instantiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InputError, ZeroProbabilityObservation

ROW_SUM_TOL = 1e-9
CPT_ROW_TOL = 1e-6
ZERO_OBS_TOL = 1e-12

MAX_VARIABLES = 20
# entries of the dense transition and observation tables, |A| (4^n + 2^n |Z|);
# 2^27 float64 entries are 1 GiB
MAX_TABLE_ENTRIES = 1 << 27


def num_states(n_vars: int) -> int:
    return 1 << n_vars


def state_bit(states, var: int):
    """Truth value (0/1) of variable ``var`` in each state index."""
    return (np.asarray(states) >> var) & 1


def sample_beliefs(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform draws on the simplex, one per row (normalized
    unit-rate exponentials). The draws fill the array in row order, so a
    block equals the same number of successive one-row draws."""
    if dim < 1:
        raise InputError("belief dimension must be at least 1")
    raw = rng.standard_exponential((count, dim))
    return raw / raw.sum(axis=1, keepdims=True)


def _check_stochastic(table: np.ndarray, what: str) -> None:
    if np.any(table < -1e-12) or np.any(table > 1 + 1e-12):
        raise InputError(f"{what} has entries outside [0, 1]")
    sums = table.sum(axis=-1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        row = int(np.argwhere(bad)[0][-1])
        raise InputError(f"{what} row {row} sums to {sums.flat[int(np.flatnonzero(bad)[0])]}, expected 1")


@dataclass(frozen=True)
class Pomdp:
    """Dense finite POMDP. ``transition[a][s][s']`` is P(s'|s,a),
    ``observation_fn[a][s'][z]`` is P(z|s',a), ``reward[s]`` is R(s)."""

    variables: tuple[str, ...]
    actions: tuple[str, ...]
    observations: tuple[str, ...]
    transition: np.ndarray
    observation_fn: np.ndarray
    reward: np.ndarray
    discount: float

    def __post_init__(self):
        n = len(self.variables)
        if n < 1:
            raise InputError("at least one state variable is required")
        if n > MAX_VARIABLES:
            raise InputError(f"{n} variables exceeds the {MAX_VARIABLES}-variable limit")
        if len(set(self.variables)) != n:
            raise InputError("duplicate variable names")
        if not self.actions or not self.observations:
            raise InputError("actions and observations must be nonempty")
        s = num_states(n)
        a, z = len(self.actions), len(self.observations)
        if self.transition.shape != (a, s, s):
            raise InputError(f"transition shape {self.transition.shape} != {(a, s, s)}")
        if self.observation_fn.shape != (a, s, z):
            raise InputError(f"observation shape {self.observation_fn.shape} != {(a, s, z)}")
        if self.reward.shape != (s,):
            raise InputError(f"reward shape {self.reward.shape} != {(s,)}")
        if not (0.0 < self.discount <= 1.0):
            raise InputError(f"discount {self.discount} not in (0, 1]")
        _check_stochastic(self.transition, "transition table")
        _check_stochastic(self.observation_fn, "observation table")
        for arr in (self.transition, self.observation_fn, self.reward):
            arr.setflags(write=False)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_states(self) -> int:
        return num_states(self.n_vars)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_observations(self) -> int:
        return len(self.observations)


def _numbers(value, what: str) -> np.ndarray:
    """A model table as a float array; InputError naming ``what`` otherwise."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{what} is not a table of numbers") from None


def _names(spec: dict, key: str) -> tuple[str, ...]:
    value = spec[key]
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise InputError(f"model {key!r} must be a list of names")
    return tuple(value)


def _cpt_truth_probs(var: str, cpt: dict, variables: tuple[str, ...], n: int) -> np.ndarray:
    """Per-state probability that ``var`` is true next step, from a CPT entry."""
    if not isinstance(cpt, dict):
        raise InputError(f"cpt for {var!r} must be an object, got {type(cpt).__name__}")
    parents = cpt.get("parents", [])
    if not isinstance(parents, list):
        raise InputError(f"cpt parents for {var!r} must be a list of variable names")
    for p in parents:
        if p not in variables:
            raise InputError(f"cpt for {var!r} references undeclared parent {p!r}")
    rows = cpt.get("rows")
    if rows is None:
        raise InputError(f"cpt for {var!r} has no rows")
    rows = _numbers(rows, f"cpt rows for {var!r}")
    expected = 1 << len(parents)
    if rows.shape != (expected, 2):
        raise InputError(
            f"cpt for {var!r} must have {expected} rows of [p_true, p_false], got shape {rows.shape}")
    if np.any(np.abs(rows.sum(axis=1) - 1.0) > CPT_ROW_TOL):
        raise InputError(f"cpt row for {var!r} does not sum to 1")
    if np.any(rows < -1e-12):
        raise InputError(f"cpt for {var!r} has negative entries")
    states = np.arange(num_states(n))
    # row index packs parent truth values, bit j of the row <-> parents[j]
    keys = np.zeros(num_states(n), dtype=np.int64)
    for j, p in enumerate(parents):
        keys |= state_bit(states, variables.index(p)) << j
    return rows[keys, 0]


def _transition_from_cpts(cpts: dict, variables: tuple[str, ...]) -> np.ndarray:
    n = len(variables)
    s = num_states(n)
    missing = [v for v in variables if v not in cpts]
    if missing:
        raise InputError(f"cpts missing for variables {missing}")
    extra = [v for v in cpts if v not in variables]
    if extra:
        raise InputError(f"cpts given for undeclared variables {extra}")
    table = np.ones((s, s))
    next_states = np.arange(s)
    for i, var in enumerate(variables):
        p_true = _cpt_truth_probs(var, cpts[var], variables, n)  # indexed by source state
        bit = state_bit(next_states, i)[np.newaxis, :]
        table *= np.where(bit == 1, p_true[:, np.newaxis], 1.0 - p_true[:, np.newaxis])
    return table


def compile_model(spec: dict) -> Pomdp:
    """Compile a factored model description (parsed JSON document) to dense tables.

    Expected keys: ``variables``, ``actions``, ``observations``, ``transitions``
    (per action either ``{"flat": [[...]]}`` or ``{"cpts": {var: {"parents": [...],
    "rows": [[p_true, p_false], ...]}}}``), ``observation`` (per action, 2^n x |Z|
    rows over arrival states), ``reward`` (length 2^n), ``discount``.
    """
    if not isinstance(spec, dict):
        raise InputError(f"model document must be an object, got {type(spec).__name__}")
    for key in ("variables", "actions", "observations", "transitions",
                "observation", "reward", "discount"):
        if key not in spec:
            raise InputError(f"model document missing key {key!r}")
    for key in ("transitions", "observation"):
        if not isinstance(spec[key], dict):
            raise InputError(f"model {key!r} must be an object keyed by action name, "
                             f"got {type(spec[key]).__name__}")
    try:
        discount = float(spec["discount"])
    except (TypeError, ValueError):
        raise InputError(f"model discount {spec['discount']!r} is not a number") from None
    variables = _names(spec, "variables")
    if len(set(variables)) != len(variables):
        raise InputError("duplicate variable names")
    if len(variables) > MAX_VARIABLES:
        raise InputError(f"{len(variables)} variables exceeds the {MAX_VARIABLES}-variable limit")
    actions = _names(spec, "actions")
    observations = _names(spec, "observations")
    n = len(variables)
    s = num_states(n)
    entries = len(actions) * (s * s + s * len(observations))
    if entries > MAX_TABLE_ENTRIES:
        raise GuardError(f"dense tables of {n} variables, {len(actions)} actions and "
                         f"{len(observations)} observations need {entries} entries, "
                         f"above the cap of {MAX_TABLE_ENTRIES}")

    trans = np.empty((len(actions), s, s))
    for ai, a in enumerate(actions):
        entry = spec["transitions"].get(a)
        if entry is None:
            raise InputError(f"transitions missing action {a!r}")
        if not isinstance(entry, dict):
            raise InputError(f"transitions for {a!r} must be an object, got {type(entry).__name__}")
        if "flat" in entry:
            table = _numbers(entry["flat"], f"flat transition for {a!r}")
            if table.shape != (s, s):
                raise InputError(f"flat transition for {a!r} has shape {table.shape}, expected {(s, s)}")
        elif "cpts" in entry:
            if not isinstance(entry["cpts"], dict):
                raise InputError(f"cpts for {a!r} must be an object keyed by variable name, "
                                 f"got {type(entry['cpts']).__name__}")
            table = _transition_from_cpts(entry["cpts"], variables)
        else:
            raise InputError(f"transitions for {a!r} need either 'flat' or 'cpts'")
        trans[ai] = table

    obs = np.empty((len(actions), s, len(observations)))
    for ai, a in enumerate(actions):
        table = spec["observation"].get(a)
        if table is None:
            raise InputError(f"observation missing action {a!r}")
        table = _numbers(table, f"observation table for {a!r}")
        if table.shape != (s, len(observations)):
            raise InputError(
                f"observation table for {a!r} has shape {table.shape}, expected {(s, len(observations))}")
        obs[ai] = table

    reward = _numbers(spec["reward"], "model reward")
    return Pomdp(variables, actions, observations, trans, obs, reward, discount)


def model_to_spec(model: Pomdp) -> dict:
    """Dense JSON document for a model (flat transition tables)."""
    return {
        "variables": list(model.variables),
        "actions": list(model.actions),
        "observations": list(model.observations),
        "transitions": {a: {"flat": model.transition[ai].tolist()}
                        for ai, a in enumerate(model.actions)},
        "observation": {a: model.observation_fn[ai].tolist()
                        for ai, a in enumerate(model.actions)},
        "reward": model.reward.tolist(),
        "discount": model.discount,
    }


def predicted_belief(model: Pomdp, b: np.ndarray, a: int) -> np.ndarray:
    """One-step predicted belief sum_s P(s'|s,a) b(s)."""
    return model.transition[a].T @ b


def observation_probabilities(model: Pomdp, b: np.ndarray, a: int) -> np.ndarray:
    """P(z|b,a) for every observation z."""
    return model.observation_fn[a].T @ predicted_belief(model, b, a)


def belief_update(model: Pomdp, b: np.ndarray, a: int, z: int) -> np.ndarray:
    """Bayes posterior after doing ``a`` and observing ``z``.

    Raises ZeroProbabilityObservation when P(z|b,a) < 1e-12.
    """
    post = model.observation_fn[a][:, z] * predicted_belief(model, b, a)
    norm = float(post.sum())
    if norm < ZERO_OBS_TOL:
        raise ZeroProbabilityObservation(
            f"observation {z} has probability {norm} under action {a}")
    return post / norm


def value_of(b: np.ndarray, alpha_set) -> tuple[float, int]:
    """Max dot product over an alpha-vector set and the index attaining it.

    Ties break toward the lowest index. ``alpha_set`` may be anything with a
    ``matrix`` attribute (rows = vectors) or a plain 2-D array.
    """
    mat = getattr(alpha_set, "matrix", alpha_set)
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise InputError("alpha set must be a nonempty collection of vectors")
    if mat.shape[1] != b.shape[0]:
        raise InputError(f"vector dimension {mat.shape[1]} != belief dimension {b.shape[0]}")
    vals = mat @ b
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx
