"""Empirical decision-loss evaluation of approximate belief monitoring.

The induced policy is evaluated by exact expectimax over observation
branches while carrying two belief tracks: the exact Bayes posterior (which
prices rewards and branch probabilities) and the approximate track the agent
actually consults when picking a plan. "single" mode projects the initial
belief once and monitors exactly afterwards; "successive" mode also projects
after every update.

:func:`achieved_value` walks the tree for one belief by recursion.
:func:`average_error` moves its initial beliefs through the same tree in
blocks of ``EVAL_BLOCK`` rows, one level per step, and agrees with the
recursion up to the summation order of the matrix products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InputError, ZeroProbabilityObservation
from .bounds import compute_bounds, scheme_lookup, scheme_source_doc
from .model import (ZERO_OBS_TOL, Pomdp, belief_update, num_states,
                    observation_probabilities, sample_beliefs, value_of)
from .projection import project, project_batch
from .solver import AlphaSet

MODES = ("single", "successive")
BRANCH_GUARD = 1_000_000
# strictly above the belief-update impossibility threshold (1e-12), so the
# exact track never trips on last-ulp drift between the two computations
BRANCH_TOL = 1e-11
# initial beliefs per block: large enough to amortise the per-level Python
# work, small enough that a block's working set stays a few hundred KiB
EVAL_BLOCK = 64


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
        mask = rng.random(shape) >= sparsity
        kept = np.where(mask, raw, 0.0)
        # a fully masked row keeps its single largest entry
        dead = kept.sum(axis=-1) < 1e-300
        if np.any(dead):
            flat = kept.reshape(-1, shape[-1])
            raw_flat = raw.reshape(-1, shape[-1])
            for r in np.flatnonzero(dead.reshape(-1)):
                flat[r, int(np.argmax(raw_flat[r]))] = raw_flat[r, int(np.argmax(raw_flat[r]))]
        raw = kept
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
    s = num_states(n_vars)
    transition = _stochastic_rows((n_actions, s, s), rng, sparsity)
    observation = _stochastic_rows((n_actions, s, n_obs), rng, sparsity)
    reward = rng.uniform(0.0, 10.0, s)
    return Pomdp(
        tuple(f"x{i}" for i in range(n_vars)),
        tuple(f"a{i}" for i in range(n_actions)),
        tuple(f"z{i}" for i in range(n_obs)),
        transition, observation, reward, discount)


def _achieved(model: Pomdp, stage_sets, lookup, b_exact, b_approx, k, mode):
    aset = stage_sets[k - 1]
    _, istar = value_of(b_approx, aset)
    action = aset.actions[istar]
    total = float(model.reward @ b_exact)
    if k == 1:
        return total
    scheme = lookup(k, istar) if mode == "successive" else None
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
        acc += pz[z] * _achieved(model, stage_sets, lookup, next_exact, next_approx,
                                 k - 1, mode)
    return total + model.discount * acc


def _check_tree(model: Pomdp, stage_sets, horizon: int, guard: int) -> None:
    if not (1 <= horizon <= len(stage_sets)):
        raise InputError(f"horizon {horizon} outside the solved range")
    if model.n_observations ** horizon > guard:
        raise GuardError(f"evaluation branching exceeds the cap of {guard}")


def achieved_value(model: Pomdp, stage_sets: list[AlphaSet], scheme_source,
                   b0: np.ndarray, mode: str = "successive",
                   horizon: int | None = None, guard: int = BRANCH_GUARD) -> float:
    """Expected value actually collected by monitoring through the scheme.

    Both modes project the initial belief before the first decision (with a
    per-region source, using the scheme of the vector optimal at the exact
    initial belief), so they coincide at horizon 1.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    horizon = len(stage_sets) if horizon is None else horizon
    _check_tree(model, stage_sets, horizon, guard)
    lookup = scheme_lookup(scheme_source)
    _, top = value_of(b0, stage_sets[horizon - 1])
    b_approx = project(b0, lookup(horizon, top))
    return _achieved(model, stage_sets, lookup, b0, b_approx, horizon, mode)


def _project_rows(beliefs: np.ndarray, idx: np.ndarray, scheme_of) -> np.ndarray:
    """Project row r through ``scheme_of(idx[r])``; rows whose vector indices
    map to equal schemes are projected together."""
    groups: dict = {}
    for i in np.flatnonzero(np.bincount(idx)):
        groups.setdefault(scheme_of(int(i)), []).append(i)
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


def _block_values(model: Pomdp, stage_sets: list[AlphaSet], lookup,
                  beliefs: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-block form of ``value_of`` and :func:`achieved_value` at the full
    horizon of ``stage_sets``: the optimal and the achieved value of each
    initial belief (one per row), and how many approximate tracks restarted
    from the exact posterior.

    Each call of ``walk`` handles one level of the observation tree for a
    whole block, and recurses once per observation on the rows that reach
    it, so at most one block per level is alive at a time.
    """
    restarts = 0

    def walk(exact, approx, k):
        nonlocal restarts
        total = exact @ model.reward
        if k == 1:
            return total
        idx = np.argmax(approx @ stage_sets[k - 1].matrix.T, axis=1)
        chosen = stage_sets[k - 1].actions[idx]
        acc = np.zeros(exact.shape[0])
        for a in np.flatnonzero(np.bincount(chosen)):
            rows = np.flatnonzero(chosen == a)
            pred_exact = exact[rows] @ model.transition[a]
            pred_approx = approx[rows] @ model.transition[a]
            pz = pred_exact @ model.observation_fn[a]
            for z in range(model.n_observations):
                live = pz[:, z] >= BRANCH_TOL
                if not live.any():
                    continue
                column = model.observation_fn[a][:, z]
                next_exact = pred_exact[live] * column
                norm = next_exact.sum(axis=1)
                if np.any(norm < ZERO_OBS_TOL):
                    raise ZeroProbabilityObservation(
                        f"observation {z} has probability {norm.min()} under action {a}")
                next_exact /= norm[:, np.newaxis]
                next_approx = pred_approx[live] * column
                norm = next_approx.sum(axis=1)
                ok = norm >= ZERO_OBS_TOL
                np.divide(next_approx, norm[:, np.newaxis], out=next_approx,
                          where=ok[:, np.newaxis])
                if mode == "successive" and ok.any():
                    next_approx[ok] = _project_rows(next_approx[ok], idx[rows[live][ok]],
                                                    lambda i: lookup(k, i))
                # a branch with positive true probability that the approximate
                # track finds impossible restarts that track from the exact
                # posterior, unprojected
                next_approx[~ok] = next_exact[~ok]
                restarts += int(ok.size - np.count_nonzero(ok))
                child = walk(next_exact, next_approx, k - 1)
                acc[rows[live]] += pz[live, z] * child
        return total + model.discount * acc

    horizon = len(stage_sets)
    values = beliefs @ stage_sets[-1].matrix.T
    top = np.argmax(values, axis=1)
    optimal = values[np.arange(beliefs.shape[0]), top]
    approx = _project_rows(beliefs, top, lambda i: lookup(horizon, i))
    achieved = walk(beliefs, approx, horizon)
    return optimal, achieved, restarts


def average_error(model: Pomdp, stage_sets: list[AlphaSet], scheme_source,
                  cfg: EvalConfig, method: str = "scheme") -> EvalReport:
    """Mean decision loss over random initial beliefs at the full solved
    horizon, with the scheme's B/E bounds (VS switch tests) attached for the
    same instance.

    The beliefs are drawn ``EVAL_BLOCK`` rows at a time from one generator,
    so they are the same beliefs as ``num_beliefs`` successive
    :func:`random_belief` draws, whatever the block size.
    """
    horizon = len(stage_sets)
    _check_tree(model, stage_sets, horizon, BRANCH_GUARD)
    start = time.perf_counter()
    lookup = scheme_lookup(scheme_source)
    rng = np.random.default_rng(cfg.seed)
    losses = np.empty(cfg.num_beliefs)
    restarts = 0
    for first in range(0, cfg.num_beliefs, EVAL_BLOCK):
        count = min(EVAL_BLOCK, cfg.num_beliefs - first)
        beliefs = sample_beliefs(model.n_states, count, rng)
        optimal, achieved, block_restarts = _block_values(
            model, stage_sets, lookup, beliefs, cfg.mode)
        losses[first:first + count] = np.maximum(0.0, optimal - achieved)
        restarts += block_restarts
    avg = float(np.mean(losses))
    bounds = compute_bounds(model, stage_sets, scheme_source)
    return EvalReport(
        method=method, mode=cfg.mode, average_loss=avg,
        bound_B=bounds.max_B, bound_E=bounds.max_E,
        per_stage_B=[s.B for s in bounds.stages], per_stage_E=[s.E for s in bounds.stages],
        num_beliefs=cfg.num_beliefs, seed=cfg.seed, horizon=horizon,
        n_vars=model.n_vars,
        scheme_doc=scheme_source_doc(scheme_source, model.variables),
        seconds=time.perf_counter() - start, approx_restarts=restarts)
