"""Empirical decision-loss evaluation of approximate belief monitoring.

The induced policy is evaluated by exact expectimax over observation
branches while carrying two belief tracks: the exact Bayes posterior (which
prices rewards and branch probabilities) and the approximate track the agent
actually consults when picking a plan. "single" mode projects the initial
belief once and monitors exactly afterwards; "successive" mode also projects
after every update.

:func:`achieved_value` walks the tree for one belief by recursion.
:func:`average_error` moves its initial beliefs through the same tree in
blocks of ``EVAL_BLOCK`` rows, one level per step: one transition product
per action, then one posterior pass per observation over all of the block's
rows. It agrees with the recursion up to summation order: the matrix
products group rows differently, and a branch's probability is its
posterior's own sum rather than a product with the observation table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InputError, ZeroProbabilityObservation
from .bounds import SCHEME_METHOD, compute_bounds, scheme_of, scheme_source_doc
from .model import (BRANCH_GUARD, BRANCH_TOL, DEPTH_GUARD, ZERO_OBS_TOL, Pomdp, belief_update,
                    check_table_size, num_states, observation_probabilities, sample_beliefs,
                    value_of)
from .projection import project, project_batch
from .solver import AlphaSet

MODES = ("single", "successive")
BELIEF_GUARD = 1_000_000  # initial beliefs per evaluation
# initial beliefs per block: large enough to amortise the per-level Python
# and numpy call overhead, small enough that the walk's working set (about
# 12 arrays of EVAL_BLOCK x states floats at horizon 3) stays under 1 MiB at
# 64 states
EVAL_BLOCK = 128


@dataclass
class EvalConfig:
    num_beliefs: int = 5000
    seed: int = 0
    mode: str = "successive"

    def __post_init__(self):
        if self.num_beliefs < 1:
            raise InputError("num_beliefs must be at least 1")
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")


@dataclass
class EvalReport:
    method: str
    mode: str
    average_loss: float
    bound_B: float
    bound_E: float
    per_stage_B: list
    per_stage_E: list
    num_beliefs: int
    seed: int
    horizon: int
    n_vars: int
    scheme_doc: object
    seconds: float = 0.0  # wall clock; reported in manifests, never in artifacts
    # approximate tracks restarted from the exact posterior after their own
    # update found the observation impossible; manifests only, like seconds
    approx_restarts: int = 0
    # the largest loss of any initial belief and that belief's index in draw
    # order (the first on ties); manifests only, like seconds
    worst_loss: float = 0.0
    worst_belief: int = 0
    # the standard error of average_loss (the losses' sample standard
    # deviation over sqrt(num_beliefs); None for one belief) and how many
    # beliefs lost exactly 0; manifests only, like seconds
    loss_stderr: float | None = None
    zero_loss_beliefs: int = 0

    def to_doc(self) -> dict:
        return {
            "method": self.method,
            "mode": self.mode,
            "average_loss": self.average_loss,
            "B": self.bound_B,
            "E": self.bound_E,
            "per_stage_B": self.per_stage_B,
            "per_stage_E": self.per_stage_E,
            "num_beliefs": self.num_beliefs,
            "seed": self.seed,
            "horizon": self.horizon,
            "n_vars": self.n_vars,
            "scheme": self.scheme_doc,
        }


def random_belief(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw on the simplex: one row of :func:`sample_beliefs`."""
    return sample_beliefs(dim, 1, rng)[0]


def _stochastic_rows(shape, rng: np.random.Generator, sparsity: float) -> np.ndarray:
    raw = rng.standard_exponential(shape)
    if sparsity > 0.0:
        kept = np.where(rng.random(shape) >= sparsity, raw, 0.0)
        # a fully masked row keeps its single largest entry
        dead = kept.sum(axis=-1, keepdims=True) < 1e-300
        top = np.arange(shape[-1]) == np.argmax(raw, axis=-1)[..., np.newaxis]
        raw = np.where(dead & top, raw, kept)
    return raw / raw.sum(axis=-1, keepdims=True)


def random_pomdp(n_vars: int, n_actions: int, n_obs: int, rng: np.random.Generator,
                 sparsity: float = 0.0, discount: float = 0.95) -> Pomdp:
    """Random dense instance: Dirichlet transition and observation rows,
    rewards uniform on [0, 10]. Draw order is fixed, so equal generator states
    give identical models."""
    if n_vars > 10:
        raise InputError("random instances are limited to 10 variables")
    if not (0.0 <= sparsity < 1.0):
        raise InputError("sparsity must be in [0, 1)")
    check_table_size(n_vars, n_actions, n_obs)
    s = num_states(n_vars)
    transition = _stochastic_rows((n_actions, s, s), rng, sparsity)
    observation = _stochastic_rows((n_actions, s, n_obs), rng, sparsity)
    reward = rng.uniform(0.0, 10.0, s)
    return Pomdp(
        tuple(f"x{i}" for i in range(n_vars)),
        tuple(f"a{i}" for i in range(n_actions)),
        tuple(f"z{i}" for i in range(n_obs)),
        transition, observation, reward, discount)


def _achieved(model: Pomdp, stage_sets, scheme_source, b_exact, b_approx, k, mode):
    aset = stage_sets[k - 1]
    _, istar = value_of(b_approx, aset)
    action = aset.actions[istar]
    total = float(model.reward @ b_exact)
    if k == 1:
        return total
    scheme = scheme_of(scheme_source, k, istar) if mode == "successive" else None
    pz = observation_probabilities(model, b_exact, action)
    acc = 0.0
    for z in range(model.n_observations):
        if pz[z] < BRANCH_TOL:
            continue
        next_exact = belief_update(model, b_exact, action, z)
        try:
            next_approx = belief_update(model, b_approx, action, z)
            if mode == "successive":
                next_approx = project(next_approx, scheme)
        except ZeroProbabilityObservation:
            # the branch has positive true probability; restart the
            # approximate track from the exact posterior
            next_approx = next_exact
        acc += pz[z] * _achieved(model, stage_sets, scheme_source, next_exact, next_approx,
                                 k - 1, mode)
    return total + model.discount * acc


def _check_tree(model: Pomdp, stage_sets) -> None:
    if not stage_sets:
        raise InputError("no solved stages to evaluate")
    if len(stage_sets) > DEPTH_GUARD:
        raise GuardError(f"horizon {len(stage_sets)} exceeds the evaluation depth cap "
                         f"of {DEPTH_GUARD}")
    if model.n_observations ** len(stage_sets) > BRANCH_GUARD:
        raise GuardError(f"evaluation branching exceeds the cap of {BRANCH_GUARD}")


def achieved_value(model: Pomdp, stage_sets: list[AlphaSet], scheme_source,
                   b0: np.ndarray, mode: str = EvalConfig.mode) -> float:
    """Expected value actually collected by monitoring through the scheme.

    Both modes project the initial belief before the first decision (with a
    per-region source, using the scheme of the vector optimal at the exact
    initial belief), so they coincide at horizon 1.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    horizon = len(stage_sets)
    _check_tree(model, stage_sets)
    _, top = value_of(b0, stage_sets[-1])
    b_approx = project(b0, scheme_of(scheme_source, horizon, top))
    return _achieved(model, stage_sets, scheme_source, b0, b_approx, horizon, mode)


def _project_rows(beliefs: np.ndarray, idx: np.ndarray, scheme_source, stage: int) -> np.ndarray:
    """Project row r through the scheme of vector ``idx[r]`` of ``stage``;
    rows whose vectors have equal schemes are projected together."""
    groups: dict = {}
    for i in np.flatnonzero(np.bincount(idx)):
        groups.setdefault(scheme_of(scheme_source, stage, int(i)), []).append(i)
    if len(groups) == 1:
        return project_batch(beliefs, next(iter(groups)))
    out = np.empty_like(beliefs)
    member = np.empty(int(idx.max()) + 1, dtype=bool)
    for scheme, members in groups.items():
        member[:] = False
        member[members] = True
        rows = member[idx]
        out[rows] = project_batch(beliefs[rows], scheme)
    return out


def _block_values(model: Pomdp, stage_sets: list[AlphaSet], scheme_source,
                  beliefs: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-block form of ``value_of`` and :func:`achieved_value` at the full
    horizon of ``stage_sets``: the optimal and the achieved value of each
    initial belief (one per row), and how many approximate tracks restarted
    from the exact posterior.

    Each call of ``walk`` handles one level of the observation tree for a
    whole block: one transition product per action on the rows that chose
    it, then one posterior pass per observation over all of the rows, which
    recurses once on the rows whose branch is walked, so at most one block
    per level is alive at a time. A leaf reads only the reward of its exact
    posterior, so the level above the leaves forms no posterior: per action
    it is two products with the tables ``model.leaf_steps``, which the model
    builds once and keeps for every block, one for the branch probabilities
    of both tracks, which count restarts, and one for the leaves' rewards.
    """
    step_obs, step_gain = model.leaf_steps
    # per action and observation, the likelihood column O_a[:, z] as a row
    likelihood = model.observation_fn.transpose(0, 2, 1)
    restarts = 0

    def walk(exact, approx, k):
        nonlocal restarts
        total = exact @ model.reward
        if k == 1:
            return total
        idx = np.argmax(approx @ stage_sets[k - 1].matrix.T, axis=1)
        chosen = stage_sets[k - 1].actions[idx]
        actions = np.flatnonzero(np.bincount(chosen))
        # the rows that chose each action: a slice (views, not copies) when
        # every row chose the same one
        rows_of = [slice(None)] if actions.size == 1 else [chosen == a for a in actions]
        acc = np.zeros(exact.shape[0])
        if k == 2:
            for a, rows in zip(actions, rows_of):
                block = exact[rows]
                live = block @ step_obs[a] >= BRANCH_TOL
                acc[rows] = np.where(live, block @ step_gain[a], 0.0).sum(axis=1)
                restarts += int(np.count_nonzero(
                    live & (approx[rows] @ step_obs[a] < ZERO_OBS_TOL)))
            return total + model.discount * acc
        pred_exact, pred_approx = np.empty_like(exact), np.empty_like(approx)
        for a, rows in zip(actions, rows_of):
            pred_exact[rows] = exact[rows] @ model.transition[a]
            pred_approx[rows] = approx[rows] @ model.transition[a]
        for z in range(model.n_observations):
            column = likelihood[chosen, z]
            next_exact = pred_exact * column
            # the branch probability is the posterior's own norm, so a walked
            # branch (at least BRANCH_TOL) always has a norm to divide by
            pz = next_exact.sum(axis=1)
            live = pz >= BRANCH_TOL
            if not live.any():
                continue
            # a slice when every branch is walked: views instead of copies
            live = slice(None) if live.all() else live
            next_exact = next_exact[live]
            next_exact /= pz[live, np.newaxis]
            next_approx = pred_approx[live] * column[live]
            del column  # not held through the projection and the recursion
            norm = next_approx.sum(axis=1)
            ok = norm >= ZERO_OBS_TOL
            restarts += int(ok.size - np.count_nonzero(ok))
            # a row that cannot be normalised divides by 1; it restarts below
            next_approx /= np.where(ok, norm, 1.0)[:, np.newaxis]
            if mode == "successive" and ok.any():
                kept = slice(None) if ok.all() else ok
                next_approx[kept] = _project_rows(next_approx[kept], idx[live][kept],
                                                  scheme_source, k)
            # a branch with positive true probability that the approximate
            # track finds impossible restarts that track from the exact
            # posterior, unprojected
            next_approx[~ok] = next_exact[~ok]
            acc[live] += pz[live] * walk(next_exact, next_approx, k - 1)
        return total + model.discount * acc

    horizon = len(stage_sets)
    values = beliefs @ stage_sets[-1].matrix.T
    top = np.argmax(values, axis=1)
    optimal = values[np.arange(beliefs.shape[0]), top]
    approx = _project_rows(beliefs, top, scheme_source, horizon) if horizon > 1 else None
    achieved = walk(beliefs, approx, horizon)
    return optimal, achieved, restarts


def average_error(model: Pomdp, stage_sets: list[AlphaSet], scheme_source,
                  cfg: EvalConfig, method: str = SCHEME_METHOD) -> EvalReport:
    """Mean decision loss over random initial beliefs at the full solved
    horizon, with the scheme's B/E bounds (VS switch tests) attached for the
    same instance. The bounds come first, so a scheme source that lacks a
    vector's scheme, or names a vector the policy lacks, fails before any
    belief is drawn.

    The beliefs are drawn ``EVAL_BLOCK`` rows at a time from one generator,
    so they are the same beliefs as ``num_beliefs`` successive
    :func:`random_belief` draws, whatever the block size, and at most
    ``BELIEF_GUARD`` of them (GuardError).
    """
    horizon = len(stage_sets)
    _check_tree(model, stage_sets)
    if cfg.num_beliefs > BELIEF_GUARD:
        raise GuardError(f"{cfg.num_beliefs} initial beliefs, above the cap of {BELIEF_GUARD}")
    start = time.perf_counter()
    per_stage_B, per_stage_E = compute_bounds(model, stage_sets, scheme_source)
    rng = np.random.default_rng(cfg.seed)
    losses = np.empty(cfg.num_beliefs)
    restarts = 0
    for first in range(0, cfg.num_beliefs, EVAL_BLOCK):
        count = min(EVAL_BLOCK, cfg.num_beliefs - first)
        beliefs = sample_beliefs(model.n_states, count, rng)
        optimal, achieved, block_restarts = _block_values(
            model, stage_sets, scheme_source, beliefs, cfg.mode)
        losses[first:first + count] = np.maximum(0.0, optimal - achieved)
        restarts += block_restarts
    avg = float(np.mean(losses))
    worst = int(np.argmax(losses))
    n = cfg.num_beliefs
    stderr = float(np.std(losses, ddof=1) / np.sqrt(n)) if n > 1 else None
    return EvalReport(
        method=method, mode=cfg.mode, average_loss=avg,
        bound_B=max(per_stage_B), bound_E=max(per_stage_E),
        per_stage_B=per_stage_B, per_stage_E=per_stage_E,
        num_beliefs=cfg.num_beliefs, seed=cfg.seed, horizon=horizon,
        n_vars=model.n_vars,
        scheme_doc=scheme_source_doc(scheme_source, model.variables),
        seconds=time.perf_counter() - start, approx_restarts=restarts,
        worst_loss=float(losses[worst]), worst_belief=worst, loss_stderr=stderr,
        zero_loss_beliefs=int(np.count_nonzero(losses == 0.0)))
