"""Finite-horizon POMDP solving: stagewise alpha-vector sets with
conditional-plan bookkeeping (exhaustive backup plus LP-dominance pruning).

Each stage-k vector is the value of a k-step conditional plan <action;
strategy>, where the strategy maps each observation to a vector of the
stage-(k-1) set. The stage-0 set is the singleton zero vector, so a k-stage
plan accrues exactly k rewards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GuardError, InputError, NumericalError
from .lpcore import EQUAL, LESS, LinearProgram, solve_lp
from .model import (BRANCH_GUARD, BRANCH_TOL, DEPTH_GUARD, Pomdp, belief_update,
                    observation_probabilities, packed, table_of_numbers)
from .projection import walsh_transform

BACKUP_CAP = 1_000_000
DOMINANCE_TOL = 1e-9
DOMINANCE_BLOCK = 1 << 18  # boolean entries per slice of undominated()


@dataclass(frozen=True, eq=False)
class AlphaSet:
    """One stage's plans as read-only arrays, one row per plan: ``matrix``
    (plans x states) holds the value vectors, ``actions`` the first action,
    and ``strategies`` (plans x |Z|) per observation an index into the
    previous stage set, with no columns at stage 0. Arrays have no truthful
    ``==``, so neither does a set."""

    stage: int
    matrix: np.ndarray
    actions: np.ndarray
    strategies: np.ndarray

    def __post_init__(self):
        for arr in (self.matrix, self.actions, self.strategies):
            arr.setflags(write=False)
        if not np.all(np.isfinite(self.matrix)):
            raise InputError(f"stage-{self.stage} alpha vectors have non-finite values")
        if self.stage == 0 and self.strategies.size:
            raise InputError("stage-0 vectors carry no strategy")

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def walsh(self) -> np.ndarray:
        """:func:`walsh_transform` of ``matrix``, read-only, kept with the set."""
        coefficients = walsh_transform(self.matrix)
        coefficients.setflags(write=False)
        return coefficients

    def take(self, idx) -> AlphaSet:
        """The plans at ``idx``, in that order."""
        return AlphaSet(self.stage, self.matrix[idx], self.actions[idx], self.strategies[idx])


def zero_stage(model: Pomdp) -> AlphaSet:
    return AlphaSet(0, np.zeros((1, model.n_states)), np.zeros(1, dtype=np.intp),
                    np.zeros((1, 0), dtype=np.intp))


def plan_vector(model: Pomdp, action: int, branch_values: list[np.ndarray]) -> np.ndarray:
    """Value vector of doing ``action`` then continuing with the given
    per-observation value vectors: R + gamma * sum_z T_a (O_a[:,z] * v_z)."""
    acc = np.zeros(model.n_states)
    for z, v in enumerate(branch_values):
        acc += model.transition[action] @ (model.observation_fn[action][:, z] * v)
    return model.reward + model.discount * acc


def backup(model: Pomdp, prev: AlphaSet, cap: int = BACKUP_CAP) -> AlphaSet:
    """All stage-(k+1) plan vectors: one per (action, observation strategy) pair.

    Emits |A| * |prev|^|Z| vectors in (action, strategy) order, strategies in
    the order of ``itertools.product`` (observation 0 most significant);
    aborts with GuardError beyond ``cap``.
    """
    n_prev, n_obs = len(prev), model.n_observations
    count = model.n_actions * n_prev ** n_obs
    if count > cap:
        raise GuardError(
            f"backup would enumerate {count} vectors, above the cap of {cap}")
    sigma = np.indices((n_prev,) * n_obs).reshape(n_obs, -1).T
    blocks = []
    for a in range(model.n_actions):
        acc = np.zeros((sigma.shape[0], model.n_states))
        for z in range(n_obs):
            # branch_z[p] = T_a (O_a[:,z] * prev_p)
            branch_z = (model.transition[a]
                        @ (model.observation_fn[a][:, z][:, None] * prev.matrix.T)).T
            acc += branch_z[sigma[:, z]]
        blocks.append(model.reward + model.discount * acc)
    return AlphaSet(prev.stage + 1, np.concatenate(blocks),
                    np.repeat(np.arange(model.n_actions), sigma.shape[0]),
                    np.tile(sigma, (model.n_actions, 1)))


def _witness(target: np.ndarray, others) -> np.ndarray | None:
    """Belief where ``target`` beats every vector in ``others`` (a sequence or
    matrix of rows) by more than ``DOMINANCE_TOL``, or None.

    Solves: max x s.t. b.(w - target) + x <= 0 for all w, b on the simplex,
    over the columns [b, x⁺, x⁻], all >= 0: the free margin x = x⁺ - x⁻,
    whose negative part's entries negate its positive part's, -0.0 where x
    has none. In this form the slack basis is feasible for every row but
    ``sum b = 1``, so phase 1 has a single artificial to drive out.
    """
    dim = target.shape[0]
    if len(others) == 0:
        return np.full(dim, 1.0 / dim)
    objective = np.zeros(dim + 2)
    objective[-2:] = 1.0, -1.0
    rows = np.ones((len(others), dim + 2))
    rows[:, -1] = -1.0
    np.subtract(others, target, out=rows[:, :dim])
    simplex_row = np.concatenate([np.ones(dim), [0.0, -0.0]])
    constraints = [(row, LESS, 0.0) for row in rows] + [(simplex_row, EQUAL, 1.0)]
    result = solve_lp(LinearProgram(objective, constraints))
    # the program is always feasible and bounded: any other status is a failure
    if result.status != "optimal":
        raise NumericalError(f"witness LP unexpectedly {result.status}")
    if result.value <= DOMINANCE_TOL:
        return None
    return result.x[:dim]


def undominated(mat: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows to keep: the first of any rows equal in
    value, minus every row that another of those rows is >= everywhere.

    Rows are keyed by the bytes of ``mat + 0.0``, which turns -0.0 into 0.0,
    so rows that differ only in a zero's sign are duplicates, not two rows
    that each drop the other. Compares one slice of rows against all rows at
    a time, so the boolean working set stays within ``DOMINANCE_BLOCK``
    entries, or one row's comparisons when those are more.
    """
    first: dict[bytes, int] = {}
    for i, row in enumerate(mat + 0.0):
        first.setdefault(row.tobytes(), i)
    idx = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    rows = mat[idx]
    m, dim = rows.shape
    dominated = np.empty(m, dtype=bool)
    step = max(1, DOMINANCE_BLOCK // (m * dim))
    for lo in range(0, m, step):
        block = rows[lo:lo + step]
        # ge[r, j]: row j is >= block row r everywhere
        ge = np.all(rows[np.newaxis, :, :] >= block[:, np.newaxis, :], axis=2)
        ge[np.arange(block.shape[0]), np.arange(lo, lo + block.shape[0])] = False
        dominated[lo:lo + step] = ge.any(axis=1)
    return idx[~dominated]


def _point_winners(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows that beat every other row by more than
    ``DOMINANCE_TOL`` at a corner of the belief simplex or at its centre."""
    vals = np.column_stack([rows, rows @ np.full(rows.shape[1], 1.0 / rows.shape[1])])
    best, points = vals.argmax(axis=0), np.arange(vals.shape[1])
    top = vals[best, points]
    vals[best, points] = -np.inf
    # a mask, not np.unique, which imports numpy.ma on its first call
    won = np.zeros(rows.shape[0], dtype=bool)
    won[best[top - vals.max(axis=0) > DOMINANCE_TOL]] = True
    return np.flatnonzero(won)


def prune(aset: AlphaSet) -> AlphaSet:
    """Parsimonious subset: keeps a vector iff some belief makes it strictly
    better than every other retained vector.

    Exact duplicates collapse to the first occurrence, pointwise-dominated
    vectors go in a fast path (:func:`undominated`), and the rest is
    witness-LP filtering. A vector that beats every other candidate at a
    simplex corner or the centre has that point for its witness, so it is
    kept before the first LP (the point-based pre-pass of Lark's filter) and
    the LPs test the others against it. Output preserves the original
    relative order.
    """
    if len(aset) <= 1:
        return aset

    mat = aset.matrix
    candidates = undominated(mat)
    kept = candidates[_point_winners(mat[candidates])].tolist()
    seeded = set(kept)
    pending = [i for i in candidates.tolist() if i not in seeded]
    while pending:
        i = pending[0]
        b = _witness(mat[i], mat[kept])
        if b is None:
            pending.pop(0)
            continue
        scores = [float(mat[j] @ b) for j in pending]
        best = pending[int(np.argmax(scores))]
        kept.append(best)
        pending.remove(best)
    return aset.take(sorted(kept))


def solve(model: Pomdp, horizon: int, cap: int = BACKUP_CAP) -> list[AlphaSet]:
    """Stage sets for 1..horizon stages to go, each pruned to a parsimonious set.

    Strategy indices of stage k reference the returned (pruned) stage k-1 set,
    so plans in the output remain valid as stored.
    """
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    if not np.isfinite(model.value_limit(horizon)):
        raise InputError(f"model rewards up to {np.abs(model.reward).max():.6g} overflow the "
                         f"values of a horizon-{horizon} plan")
    stages = []
    prev = zero_stage(model)
    for _ in range(horizon):
        prev = prune(backup(model, prev, cap=cap))
        stages.append(prev)
    return stages


def brute_force_value(model: Pomdp, b: np.ndarray, k: int) -> float:
    """Exact expectimax value of acting optimally for k stages from belief b.

    Testing oracle for :func:`solve`; branches on every positive-probability
    observation. GuardError when k is above ``DEPTH_GUARD`` or the tree has
    more than ``BRANCH_GUARD`` branches, (|A|·|Z|)^k.
    """
    if k > DEPTH_GUARD:
        raise GuardError(f"expectimax depth {k} exceeds the cap of {DEPTH_GUARD}")
    if (model.n_actions * model.n_observations) ** k > BRANCH_GUARD:
        raise GuardError(f"expectimax branching exceeds the cap of {BRANCH_GUARD}")
    if k == 0:
        return 0.0
    immediate = float(model.reward @ b)
    best = -np.inf
    for a in range(model.n_actions):
        expected = 0.0
        pz = observation_probabilities(model, b, a)
        for z in range(model.n_observations):
            if pz[z] < BRANCH_TOL:
                continue
            expected += pz[z] * brute_force_value(model, belief_update(model, b, a, z), k - 1)
        best = max(best, immediate + model.discount * expected)
    return best


def stages_to_doc(stages: list[AlphaSet]) -> list:
    """JSON form of solved stage sets: per stage, a list of
    {values, action, strategy} entries, each entry's values packed."""
    return [
        [{"values": packed(values), "action": action, "strategy": strategy}
         for values, action, strategy in zip(aset.matrix, aset.actions.tolist(),
                                             aset.strategies.tolist())]
        for aset in stages
    ]


def stages_from_doc(doc: list) -> list[AlphaSet]:
    """Stage sets from their JSON form, each field of a stage's entries
    stacked into one array. Checks that every strategy index points into the
    previous stage set; the array shapes are the caller's to check against
    its model."""
    if not isinstance(doc, list):
        raise InputError(f"policy 'stages' must be a list of stages, got {type(doc).__name__}")
    stages = []
    for k, entries in enumerate(doc, start=1):
        if not isinstance(entries, list):
            raise InputError(f"stage {k} of the policy must be a list of entries, "
                             f"got {type(entries).__name__}")
        if not entries:
            raise InputError(f"stage {k} of the policy is empty")
        fields = []
        for key, dtype in (("values", float), ("action", np.intp), ("strategy", np.intp)):
            try:
                raw = [e[key] for e in entries]
                if key == "values":  # packed or listed, each entry is read as numbers
                    raw = [table_of_numbers(v, f"stage-{k} policy entry {i} 'values'")
                           for i, v in enumerate(raw)]
                fields.append(np.array(raw, dtype=dtype))
            except InputError:  # a ValueError whose message stands as it is
                raise
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                raise InputError(f"malformed stage-{k} policy entry: {err} "
                                 f"(field {key!r})") from None
            if dtype is float:  # values that are no rows fail the caller's row-shape check
                continue
            # the conversion reads a numeric string as its number, true as 1
            # and a fraction as its integer part, so the entries' own types
            # are checked
            bad = [v for v in np.array(raw, dtype=object).flat if type(v) is not int]
            if bad:
                raise InputError(f"stage-{k} policy {key} entry {bad[0]!r} is not an integer "
                                 f"(field {key!r})")
        aset = AlphaSet(k, *fields)
        prev_len = len(stages[-1]) if stages else 1
        if np.any((aset.strategies < 0) | (aset.strategies >= prev_len)):
            raise InputError(f"stage {k} strategy references an invalid stage-{k-1} vector")
        stages.append(aset)
    if not stages:
        raise InputError("policy document has no stages")
    return stages
