"""Greedy descents over the lattice of projection schemes.

Two families: bound-guided searches minimize the B or E loss bound (with LP
or VS switch tests) and return one global scheme; the estimator searches
minimize, per optimal region, the summed or maximal squared residual of the
region's value gradients outside the preserved null space, and return one
scheme per (stage, vector). All of them run one descent driver, which starts
at the all-singletons root, always moves to the best child, and stops when
merges would create 3-variable blocks, or early when the objective is already
zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .bounds import (alt_sets, bound_E_from_alts, bound_from_switch_sets,
                     scheme_source_doc, stage_switch_sets)
from .model import Pomdp
from .projection import (ProjectionScheme, lattice_children, lattice_root,
                         residual_sq_length, walsh_vector)
from .solver import AlphaSet

BOUND_METHODS = ("b-lp", "b-vs", "e-lp", "e-vs")
ESTIMATOR_METHODS = ("vs-sum", "vs-max")
ALL_METHODS = BOUND_METHODS + ESTIMATOR_METHODS


@dataclass
class SearchConfig:
    method: str
    scope: str = "all"  # "last" | "all"

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise InputError(f"unknown search method {self.method!r}")
        if self.scope not in ("last", "all"):
            raise InputError(f"unknown stage scope {self.scope!r}")


@dataclass
class SearchResult:
    method: str
    scope: str
    scheme: ProjectionScheme | None = None
    per_region: dict | None = None  # (stage, vector index) -> scheme
    trace: object = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_doc(self, variables) -> dict:
        doc = {"method": self.method, "scope": self.scope}
        for key, source in (("scheme", self.scheme), ("per_region", self.per_region)):
            if source is not None:
                doc[key] = scheme_source_doc(source, variables)
        doc["trace"] = self.trace
        return doc


def result_from_doc(doc: dict, variables) -> SearchResult:
    result = SearchResult(doc.get("method", "scheme"), doc.get("scope", "all"),
                          trace=doc.get("trace", []))
    if "scheme" in doc:
        result.scheme = ProjectionScheme.from_names(doc["scheme"], variables)
    if "per_region" in doc:
        if not isinstance(doc["per_region"], dict):
            raise InputError("search result 'per_region' must be an object keyed by 'stage:index'")
        per_region, distinct = {}, {}
        for key, names in doc["per_region"].items():
            try:
                stage, idx = (int(part) for part in key.split(":"))
            except ValueError:
                raise InputError(f"per-region key {key!r} is not 'stage:index'") from None
            # equal schemes share one object, and so one cached basis
            scheme = ProjectionScheme.from_names(names, variables)
            per_region[(stage, idx)] = distinct.setdefault(scheme, scheme)
        result.per_region = per_region
    if result.scheme is None and result.per_region is None:
        raise InputError("search result document carries no scheme")
    return result


def _gradients(aset: AlphaSet, i: int) -> np.ndarray:
    """Rows alpha_i - alpha_j for every j != i."""
    mat = aset.matrix
    return np.delete(mat[i] - mat, i, axis=0)


def estimator_sum(i: int, aset: AlphaSet, basis) -> float:
    """Sum over other vectors of the squared gradient residual outside the basis."""
    return float(sum(residual_sq_length(g, basis) for g in _gradients(aset, i)))


def estimator_max(i: int, aset: AlphaSet, basis) -> float:
    """Largest squared gradient residual outside the basis; 0 for singletons."""
    residuals = [residual_sq_length(g, basis) for g in _gradients(aset, i)]
    return float(max(residuals)) if residuals else 0.0


def incremental_scores(prev_sq_lengths: np.ndarray, v_m: np.ndarray,
                       gradients: np.ndarray) -> np.ndarray:
    """Per-gradient squared residuals after one more preserved marginal:
    each drops by the squared coordinate along the marginal's parity vector."""
    updated = prev_sq_lengths - (gradients @ v_m) ** 2
    return np.clip(updated, 0.0, None)


def _aggregate(values: np.ndarray, estimator: str) -> float:
    if values.size == 0:
        return 0.0
    return float(values.sum()) if estimator == "sum" else float(values.max())


def _descend(n: int, value: float, state, score, label: str, floor: float = 0.0):
    """Greedy descent from the lattice root, whose objective is ``value``.

    While the objective is above ``floor``, move to the first child with the
    strictly lowest ``score(child, mask, state) -> (value, state)``; ``state``
    carries what a child's score reuses from its parent. Returns the final
    node and one ``{"merge": [...], label: value}`` trace entry per step.
    """
    node = lattice_root(n)
    trace = []
    while value > floor:
        children = lattice_children(node)
        if not children:
            break
        best = None
        for child, mask in children:
            child_value, child_state = score(child, mask, state)
            if best is None or child_value < best[0]:
                best = (child_value, child, child_state, mask)
        value, node, state, mask = best
        trace.append({"merge": [b for b in range(n) if mask >> b & 1], label: value})
    return node, trace


def vs_search(stage_sets: list[AlphaSet], estimator: str = "sum",
              scope: str = "all") -> SearchResult:
    """Per-region greedy descent scored by the sum or max estimator, updated
    incrementally along each accepted edge."""
    if estimator not in ("sum", "max"):
        raise InputError(f"unknown estimator {estimator!r}")
    scoped = stage_sets[-1:] if scope == "last" else stage_sets
    n = stage_sets[-1].matrix.shape[1].bit_length() - 1
    root_basis = lattice_root(n).basis
    per_region: dict = {}
    traces: dict = {}
    for aset in scoped:
        for i in range(len(aset)):
            grads = _gradients(aset, i)
            if grads.shape[0]:
                coords = grads @ root_basis.matrix.T
                scores = np.clip((grads * grads).sum(axis=1) - (coords * coords).sum(axis=1),
                                 0.0, None)
            else:
                scores = np.zeros(0)

            def score(child, mask, parent_scores):
                child_scores = incremental_scores(parent_scores, walsh_vector(mask, n), grads)
                return _aggregate(child_scores, estimator), child_scores

            # zero within rounding counts as zero: for odd n the basis scale
            # 2^(-n/2) is inexact, so exact-zero residuals round to ~1e-16
            floor = 1e-12 * _aggregate((grads * grads).sum(axis=1), estimator)
            node, trace = _descend(n, _aggregate(scores, estimator), scores, score,
                                   "score", floor)
            per_region[(aset.stage, i)] = node
            traces[f"{aset.stage}:{i}"] = trace
    return SearchResult(f"vs-{estimator}", scope, per_region=per_region, trace=traces)


def _scoped_bound(model: Pomdp, stage_sets, scheme: ProjectionScheme, bound: str,
                  test: str, scope: str, positives=None):
    """Aggregate bound of one lattice node over the stage scope.

    Returns (value, positive pair sets per tested stage) so children can
    retest only pairs still positive at the parent (switch tests are monotone
    along edges). B reads only the switch sets of the stages in scope, so
    only those are tested; E's alternative sets recurse through every stage.
    """
    scoped = stage_sets[-1:] if scope == "last" else stage_sets
    tested = scoped if bound == "B" else stage_sets
    sw_per_stage = []
    new_positives = []
    for s_idx, aset in enumerate(tested):
        cands = positives[s_idx] if positives is not None else None
        sw = stage_switch_sets(aset, scheme, test, candidates=cands)
        sw_per_stage.append(sw)
        new_positives.append({(i, j) for i, s in enumerate(sw) for j in s if i < j})
    if bound == "B":
        value = max(bound_from_switch_sets(aset, sw) for aset, sw in zip(tested, sw_per_stage))
    else:
        alts = alt_sets(model, stage_sets, sw_per_stage)
        value = max(bound_E_from_alts(aset, stage_alts)
                    for aset, stage_alts in zip(scoped, alts[-len(scoped):]))
    return value, new_positives


def greedy_bound_search(model: Pomdp, stage_sets: list[AlphaSet], bound: str = "B",
                        test: str = "LP", scope: str = "all") -> SearchResult:
    """Greedy descent minimizing the chosen loss bound; returns one scheme."""
    if bound not in ("B", "E"):
        raise InputError(f"unknown bound {bound!r}")
    if test not in ("LP", "VS"):
        raise InputError(f"bound search needs the LP or VS test, got {test!r}")
    n = stage_sets[-1].matrix.shape[1].bit_length() - 1

    def score(node, mask, positives):
        return _scoped_bound(model, stage_sets, node, bound, test, scope, positives)

    value, positives = score(lattice_root(n), None, None)
    node, trace = _descend(n, value, positives, score, "bound")
    return SearchResult(f"{bound.lower()}-{test.lower()}", scope, scheme=node, trace=trace)


def run_search(model: Pomdp, stage_sets: list[AlphaSet],
               config: SearchConfig) -> SearchResult:
    """Dispatch one of the six methods; elapsed wall-clock lands on the result
    object only (artifact files stay byte-reproducible)."""
    start = time.perf_counter()
    if config.method in ESTIMATOR_METHODS:
        result = vs_search(stage_sets, config.method.split("-")[1], config.scope)
    else:
        bound, test = config.method.split("-")
        result = greedy_bound_search(model, stage_sets, bound.upper(), test.upper(),
                                     config.scope)
    result.elapsed_seconds = time.perf_counter() - start
    return result
