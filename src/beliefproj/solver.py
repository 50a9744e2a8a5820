"""Finite-horizon POMDP solving: stagewise alpha-vector sets with
conditional-plan bookkeeping (exhaustive backup plus LP-dominance pruning).

Each stage-k vector is the value of a k-step conditional plan <action;
strategy>, where the strategy maps each observation to a vector of the
stage-(k-1) set. The stage-0 set is the singleton zero vector, so a k-stage
plan accrues exactly k rewards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import GuardError, InputError
from .lpcore import EQUAL, LESS, LinearProgram, solve_lp
from .model import Pomdp, belief_update, observation_probabilities

BACKUP_CAP = 1_000_000
DOMINANCE_TOL = 1e-9
DOMINANCE_BLOCK = 1 << 18  # boolean entries per slice of undominated()


@dataclass(frozen=True)
class AlphaVector:
    values: np.ndarray
    action: int
    strategy: tuple[int, ...]  # per observation, an index into the previous stage set
    stage: int

    def __post_init__(self):
        self.values.setflags(write=False)
        if not np.all(np.isfinite(self.values)):
            raise InputError("alpha vector has non-finite values")
        if self.stage == 0 and self.strategy:
            raise InputError("stage-0 vectors carry no strategy")


@dataclass
class AlphaSet:
    stage: int
    vectors: list[AlphaVector]
    _matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None or self._matrix.shape[0] != len(self.vectors):
            self._matrix = np.stack([v.values for v in self.vectors])
        return self._matrix

    def __len__(self) -> int:
        return len(self.vectors)


def zero_stage(model: Pomdp) -> AlphaSet:
    return AlphaSet(0, [AlphaVector(np.zeros(model.n_states), 0, (), 0)])


def plan_vector(model: Pomdp, action: int, branch_values: list[np.ndarray]) -> np.ndarray:
    """Value vector of doing ``action`` then continuing with the given
    per-observation value vectors: R + gamma * sum_z T_a (O_a[:,z] * v_z)."""
    acc = np.zeros(model.n_states)
    for z, v in enumerate(branch_values):
        acc += model.transition[action] @ (model.observation_fn[action][:, z] * v)
    return model.reward + model.discount * acc


def backup(model: Pomdp, prev: AlphaSet, cap: int = BACKUP_CAP) -> AlphaSet:
    """All stage-(k+1) plan vectors: one per (action, observation strategy) pair.

    Emits |A| * |prev|^|Z| vectors in deterministic (action, strategy) order;
    aborts with GuardError beyond ``cap``.
    """
    n_prev = len(prev)
    count = model.n_actions * n_prev ** model.n_observations
    if count > cap:
        raise GuardError(
            f"backup would enumerate {count} vectors, above the cap of {cap}")
    stage = prev.stage + 1
    vectors = []
    for a in range(model.n_actions):
        # branch[z][p] = T_a (O_a[:,z] * prev_p), reused across strategies
        branch = [
            (model.transition[a] @ (model.observation_fn[a][:, z][:, None] * prev.matrix.T)).T
            for z in range(model.n_observations)
        ]
        for sigma in product(range(n_prev), repeat=model.n_observations):
            acc = np.zeros(model.n_states)
            for z, p in enumerate(sigma):
                acc += branch[z][p]
            values = model.reward + model.discount * acc
            vectors.append(AlphaVector(values, a, sigma, stage))
    return AlphaSet(stage, vectors)


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
    vectors = aset.vectors
    if len(vectors) <= 1:
        return AlphaSet(aset.stage, list(vectors))

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

    kept.sort()
    return AlphaSet(aset.stage, [vectors[i] for i in kept])


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
        [{"values": v.values.tolist(), "action": v.action, "strategy": list(v.strategy)}
         for v in aset.vectors]
        for aset in stages
    ]


def stages_from_doc(doc: list) -> list[AlphaSet]:
    if not isinstance(doc, list):
        raise InputError(f"policy 'stages' must be a list of stages, got {type(doc).__name__}")
    stages = []
    for k, entries in enumerate(doc, start=1):
        if not isinstance(entries, list):
            raise InputError(f"stage {k} of the policy must be a list of entries, "
                             f"got {type(entries).__name__}")
        vectors = []
        for e in entries:
            try:
                vectors.append(AlphaVector(
                    np.asarray(e["values"], dtype=float), int(e["action"]),
                    tuple(int(i) for i in e["strategy"]), k))
            except (KeyError, TypeError, ValueError) as err:
                raise InputError(f"malformed stage-{k} policy entry: {err}") from None
        if not vectors:
            raise InputError(f"stage {k} of the policy is empty")
        prev_len = len(stages[-1].vectors) if stages else 1
        for v in vectors:
            if len(v.strategy) == 0 or any(not (0 <= i < prev_len) for i in v.strategy):
                raise InputError(f"stage {k} strategy references an invalid stage-{k-1} vector")
        stages.append(AlphaSet(k, vectors))
    if not stages:
        raise InputError("policy document has no stages")
    return stages
