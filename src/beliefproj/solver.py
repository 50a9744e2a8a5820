"""Finite-horizon POMDP solving: stagewise alpha-vector sets with
conditional-plan bookkeeping (exhaustive backup plus LP-dominance pruning).

Each stage-k vector is the value of a k-step conditional plan <action;
strategy>, where the strategy maps each observation to a vector of the
stage-(k-1) set. The stage-0 set is the singleton zero vector, so a k-stage
plan accrues exactly k rewards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InputError
from .lpcore import EQUAL, LESS, LinearProgram, solve_lp
from .model import Pomdp, belief_update, observation_probabilities

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


def _witness(target: np.ndarray, others: list[np.ndarray], tol: float) -> np.ndarray | None:
    """Belief where ``target`` strictly beats every vector in ``others``, or None.

    Solves: max x s.t. b.(w - target) + x <= 0 for all w, b on the simplex.
    In this form the slack basis is feasible for every row but ``sum b = 1``,
    so phase 1 has a single artificial to drive out.
    """
    dim = target.shape[0]
    if not others:
        return np.full(dim, 1.0 / dim)
    nvar = dim + 1  # belief entries then x
    objective = np.zeros(nvar)
    objective[-1] = 1.0
    constraints = []
    for w in others:
        row = np.concatenate([w - target, [1.0]])
        constraints.append((row, LESS, 0.0))
    simplex_row = np.concatenate([np.ones(dim), [0.0]])
    constraints.append((simplex_row, EQUAL, 1.0))
    lower = [0.0] * dim + [None]
    result = solve_lp(LinearProgram(objective, constraints, lower=lower))
    if result.status != "optimal":
        return None
    if result.value is None or result.value <= tol:
        return None
    return result.x[:dim]


def undominated(mat: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows to keep: the first of any byte-identical
    duplicates, minus every row that another of those rows is >= everywhere.

    Compares one slice of rows against all rows at a time, so the boolean
    working set stays within ``DOMINANCE_BLOCK`` entries, or one row's
    comparisons when those are more.
    """
    first: dict[bytes, int] = {}
    for i, row in enumerate(mat):
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


def prune(aset: AlphaSet) -> AlphaSet:
    """Parsimonious subset: keeps a vector iff some belief makes it strictly
    better than every other retained vector.

    Exact duplicates collapse to the first occurrence, pointwise-dominated
    vectors go in a fast path (:func:`undominated`), and the rest is
    witness-LP filtering. Output preserves the original relative order.
    """
    if len(aset) <= 1:
        return aset

    mat = aset.matrix
    kept: list[int] = []
    pending = undominated(mat).tolist()
    while pending:
        i = pending[0]
        b = _witness(mat[i], [mat[j] for j in kept], DOMINANCE_TOL)
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
    stages = []
    prev = zero_stage(model)
    for _ in range(horizon):
        prev = prune(backup(model, prev, cap=cap))
        stages.append(prev)
    return stages


def brute_force_value(model: Pomdp, b: np.ndarray, k: int, cap: int = BACKUP_CAP) -> float:
    """Exact expectimax value of acting optimally for k stages from belief b.

    Testing oracle for :func:`solve`; branches on every positive-probability
    observation and is guarded against deep horizons.
    """
    if (model.n_actions * model.n_observations) ** k > cap:
        raise GuardError(f"expectimax branching exceeds the cap of {cap}")
    if k == 0:
        return 0.0
    immediate = float(model.reward @ b)
    best = -np.inf
    for a in range(model.n_actions):
        expected = 0.0
        pz = observation_probabilities(model, b, a)
        for z in range(model.n_observations):
            # threshold sits above the update's impossibility cutoff so the
            # recursion never branches into an impossible observation
            if pz[z] < 1e-11:
                continue
            expected += pz[z] * brute_force_value(model, belief_update(model, b, a, z), k - 1, cap)
        best = max(best, immediate + model.discount * expected)
    return best


def stages_to_doc(stages: list[AlphaSet]) -> list:
    """JSON form of solved stage sets: per stage, a list of
    {values, action, strategy} entries."""
    return [
        [{"values": values, "action": action, "strategy": strategy}
         for values, action, strategy in zip(aset.matrix.tolist(), aset.actions.tolist(),
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
                fields.append(np.array([e[key] for e in entries], dtype=dtype))
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                raise InputError(f"malformed stage-{k} policy entry: {err} "
                                 f"(field {key!r})") from None
        aset = AlphaSet(k, *fields)
        prev_len = len(stages[-1]) if stages else 1
        if np.any((aset.strategies < 0) | (aset.strategies >= prev_len)):
            raise InputError(f"stage {k} strategy references an invalid stage-{k-1} vector")
        stages.append(aset)
    if not stages:
        raise InputError("policy document has no stages")
    return stages
