"""POMDP over binary state variables, beliefs, and exact Bayesian monitoring.

State indexing convention used everywhere in this package: with variables
(x0, .., x{n-1}) declared in order, joint state ``s`` is the integer whose
bit ``i`` is 1 iff variable ``i`` is true, so there are ``2**n`` states and
state 0 is the all-false instantiation.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GuardError, InputError, ZeroProbabilityObservation

ROW_SUM_TOL = 1e-9
CPT_ROW_TOL = 1e-6
ENTRY_TOL = 1e-12  # how far outside [0, 1] a probability entry may read
ZERO_OBS_TOL = 1e-12
# branches below this probability are not walked; it sits strictly above
# ZERO_OBS_TOL, so a walked branch never trips the belief update on
# last-ulp drift between the two computations of its probability
BRANCH_TOL = 1e-11
BRANCH_GUARD = 1_000_000  # branches of one expectimax tree
# levels of one expectimax tree: each walk recurses once per level, and
# this stays well under the interpreter's default recursion limit of 1,000
DEPTH_GUARD = 500

MAX_VARIABLES = 20
# entries of the dense transition and observation tables, |A| (4^n + 2^n |Z|);
# 2^27 float64 entries are 1 GiB
MAX_TABLE_ENTRIES = 1 << 27


def num_states(n_vars: int) -> int:
    return 1 << n_vars


def state_bit(states, var: int):
    """Truth value (0/1) of variable ``var`` in each state index."""
    return (np.asarray(states) >> var) & 1


def packed_bits(variables, dim: int) -> np.ndarray:
    """Per state index below ``dim``, the truth values of ``variables``
    packed into a small index: bit j holds ``variables[j]``."""
    states = np.arange(dim)
    keys = np.zeros(dim, dtype=np.int64)
    for j, var in enumerate(variables):
        keys |= state_bit(states, var) << j
    return keys


def sample_beliefs(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform draws on the simplex, one per row (normalized
    unit-rate exponentials). The draws fill the array in row order, so a
    block equals the same number of successive one-row draws."""
    if dim < 1:
        raise InputError("belief dimension must be at least 1")
    raw = rng.standard_exponential((count, dim))
    return raw / raw.sum(axis=1, keepdims=True)


def check_table_size(n_vars: int, n_actions: int, n_obs: int) -> None:
    """GuardError when the dense transition and observation tables would hold
    more than ``MAX_TABLE_ENTRIES`` entries; call it before allocating them."""
    s = num_states(n_vars)
    entries = n_actions * (s * s + s * n_obs)
    if entries > MAX_TABLE_ENTRIES:
        raise GuardError(f"dense tables of {n_vars} variables, {n_actions} actions and "
                         f"{n_obs} observations need {entries} entries, "
                         f"above the cap of {MAX_TABLE_ENTRIES}")


def _check_stochastic(table: np.ndarray, what: str, actions) -> None:
    outside = (table.min(axis=(1, 2)) < -ENTRY_TOL) | (table.max(axis=(1, 2)) > 1 + ENTRY_TOL)
    if np.any(outside):
        a = int(np.flatnonzero(outside)[0])
        raise InputError(f"{what} for action {actions[a]!r} has entries outside [0, 1]")
    sums = table.sum(axis=-1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        a, row = (int(k) for k in np.argwhere(bad)[0])
        raise InputError(f"{what} for action {actions[a]!r} row {row} sums to "
                         f"{sums[a, row]}, expected 1")


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
        # checked first, since float() overflows on a huge integer
        object.__setattr__(self, "discount", float(self.discount))
        for table, what in ((self.transition, "transition table"),
                            (self.observation_fn, "observation table"),
                            (self.reward, "reward")):
            if not np.all(np.isfinite(table)):
                raise InputError(f"model {what} has non-finite entries")
        _check_stochastic(self.transition, "transition table", self.actions)
        _check_stochastic(self.observation_fn, "observation table", self.actions)
        for arr in (self.transition, self.observation_fn, self.reward):
            arr.setflags(write=False)

    def value_limit(self, steps: int) -> float:
        """The largest |value| of a plan of ``steps`` steps: it collects that
        many rewards, discounted by gamma^t at step t, whose weights sum to
        (1 - gamma^k) / (1 - gamma), or k when gamma is 1."""
        gamma = self.discount
        weights = steps if gamma == 1.0 else -math.expm1(steps * math.log(gamma)) / (1.0 - gamma)
        return float(np.abs(self.reward).max()) * weights

    @cached_property
    def leaf_steps(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only (A, S, Z) arrays ``T_a @ O_a`` and ``T_a @ (O_a * r)``,
        kept with the model: row b of action a times the first gives P(z | b, a),
        times the second P(z | b, a) * r.b'_z, for the posterior b'_z a leaf prices."""
        steps = (self.transition @ self.observation_fn,
                 self.transition @ (self.observation_fn * self.reward[:, np.newaxis]))
        for table in steps:
            table.setflags(write=False)
        return steps

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


def bool_among_numbers(raw, table: np.ndarray) -> bool:
    """Whether the nested lists ``raw``, which numpy read as the number table
    ``table``, hold a true or false: among other numbers numpy reads them as
    1 and 0. Only a table holding an exact 0 or 1 can hide one, so only such
    a table has its entries' types looked at."""
    if not ((table == 0.0) | (table == 1.0)).any():
        return False
    pending = [raw]
    while pending:
        value = pending.pop()
        if isinstance(value, list):
            pending.extend(value)
        elif isinstance(value, bool):
            return True
    return False


def packed(table) -> dict:
    """The packed JSON form of a float table: ``{"f8": <base64 of its
    little-endian float64 bytes, row-major>, "shape": [...]}``. JSON has no
    NaN or infinity, so a table holding one is refused with ValueError, as
    the JSON encoder refuses it."""
    table = np.asarray(table, dtype="<f8")
    if not np.isfinite(table).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return {"f8": base64.b64encode(table.tobytes()).decode("ascii"), "shape": list(table.shape)}


def table_of_numbers(value, what: str) -> np.ndarray:
    """A table of numbers as a float array: packed (see :func:`packed`) or
    nested lists of JSON numbers. InputError naming ``what`` otherwise.

    A packed table has exactly the keys ``f8`` and ``shape``, a shape of
    non-negative integers and strict base64 of 8 bytes per entry. Converting
    a list with ``dtype=float`` would accept numeric strings and booleans,
    so the list's own dtype is checked first."""
    if isinstance(value, dict):
        data, shape = value.get("f8"), value.get("shape")
        if (len(value) == 2 and isinstance(data, str) and isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)):
            try:
                raw = base64.b64decode(data, validate=True)
                if len(raw) == 8 * math.prod(shape):
                    return np.frombuffer(raw, dtype="<f8").reshape(shape)
            except (ValueError, OverflowError):  # not base64, or a shape numpy cannot hold
                pass
        raise InputError(f"{what} is not a table of numbers")
    try:
        table = np.asarray(value)
        if table.dtype.kind in "iuf" and not bool_among_numbers(value, table):
            return table.astype(float)
    except ValueError:  # a ragged table
        pass
    raise InputError(f"{what} is not a table of numbers")


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
    rows = table_of_numbers(rows, f"cpt rows for {var!r}")
    expected = 1 << len(parents)
    if rows.shape != (expected, 2):
        raise InputError(
            f"cpt for {var!r} must have {expected} rows of [p_true, p_false], got shape {rows.shape}")
    if np.any(np.abs(rows.sum(axis=1) - 1.0) > CPT_ROW_TOL):
        raise InputError(f"cpt row for {var!r} does not sum to 1")
    if np.any(rows < -ENTRY_TOL):
        raise InputError(f"cpt for {var!r} has negative entries")
    # row index packs parent truth values, bit j of the row <-> parents[j]
    return rows[packed_bits([variables.index(p) for p in parents], num_states(n)), 0]


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
    rows over arrival states), ``reward`` (length 2^n), ``discount``. Each
    table may also be given packed (see :func:`packed`).
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
    discount = spec["discount"]
    if isinstance(discount, bool) or not isinstance(discount, (int, float)):
        raise InputError(f"model discount {discount!r} is not a number")
    variables = _names(spec, "variables")
    if len(set(variables)) != len(variables):
        raise InputError("duplicate variable names")
    if len(variables) > MAX_VARIABLES:
        raise InputError(f"{len(variables)} variables exceeds the {MAX_VARIABLES}-variable limit")
    actions = _names(spec, "actions")
    observations = _names(spec, "observations")
    check_table_size(len(variables), len(actions), len(observations))
    s = num_states(len(variables))

    trans = np.empty((len(actions), s, s))
    for ai, a in enumerate(actions):
        entry = spec["transitions"].get(a)
        if entry is None:
            raise InputError(f"transitions missing action {a!r}")
        if not isinstance(entry, dict):
            raise InputError(f"transitions for {a!r} must be an object, got {type(entry).__name__}")
        if "flat" in entry:
            table = table_of_numbers(entry["flat"], f"flat transition for {a!r}")
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
        table = table_of_numbers(table, f"observation table for {a!r}")
        if table.shape != (s, len(observations)):
            raise InputError(
                f"observation table for {a!r} has shape {table.shape}, expected {(s, len(observations))}")
        obs[ai] = table

    reward = table_of_numbers(spec["reward"], "model reward")
    return Pomdp(variables, actions, observations, trans, obs, reward, discount)


def model_to_spec(model: Pomdp) -> dict:
    """Dense JSON document for a model: flat transition tables, and every
    table packed."""
    return {
        "variables": list(model.variables),
        "actions": list(model.actions),
        "observations": list(model.observations),
        "transitions": {a: {"flat": packed(model.transition[ai])}
                        for ai, a in enumerate(model.actions)},
        "observation": {a: packed(model.observation_fn[ai])
                        for ai, a in enumerate(model.actions)},
        "reward": packed(model.reward),
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

    Raises ZeroProbabilityObservation when P(z|b,a) is below ``ZERO_OBS_TOL``.
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
