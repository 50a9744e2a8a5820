"""Greedy descents over the lattice of projection schemes.

Two families: bound-guided searches minimize the B or E loss bound (with LP
or VS switch tests) and return one global scheme; the estimator searches
minimize, per optimal region, the summed or maximal squared residual of the
region's value gradients outside the preserved null space, and return one
scheme per (stage, vector). All of them run one descent driver, which starts
at the all-singletons root, always moves to the best child, and stops when
merges would create 3-variable blocks, or early when the objective is already
zero. What nodes share is kept by its owner: a stage set its Walsh transform
(``AlphaSet.walsh``), a lattice node its children, and an estimator search
each pair marginal's parity vector and the one root all its regions descend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .bounds import (METHODS, SCHEME_METHOD, alt_sets, bound_E_from_alts,
                     bound_from_switch_sets, scheme_source_doc, stage_switch_sets)
from .model import Pomdp
from .projection import (ProjectionScheme, lattice_children, lattice_root,
                         residual_sq_length, walsh_vector)
from .solver import AlphaSet

BOUND_METHODS = ("b-lp", "b-vs", "e-lp", "e-vs")
ESTIMATOR_METHODS = ("vs-sum", "vs-max")
ALL_METHODS = BOUND_METHODS + ESTIMATOR_METHODS
# the stage sets a bound search's scope covers: the last one only, or every one
SCOPES = {"last": slice(-1, None), "all": slice(None)}


@dataclass
class SearchConfig:
    method: str
    scope: str = "all"

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise InputError(f"unknown search method {self.method!r}")
        if self.scope not in SCOPES:
            raise InputError(f"unknown stage scope {self.scope!r}")
        if self.method in ESTIMATOR_METHODS and self.scope != "all":
            raise InputError(f"search method {self.method!r} covers every stage; "
                             f"scope {self.scope!r} applies to the bound searches only")


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


def result_from_doc(doc, variables) -> SearchResult:
    """A search result from its JSON form, or from a bare scheme array: a
    result with no search behind it."""
    if isinstance(doc, list):
        doc = {"scheme": doc}
    if not isinstance(doc, dict):
        raise InputError("expected a scheme array or a search-result object")
    method, scope = doc.get("method", SCHEME_METHOD), doc.get("scope", SearchConfig.scope)
    for key, value in (("method", method), ("scope", scope)):
        if not isinstance(value, str):
            raise InputError(f"search result {key!r} must be a string, got {value!r}")
    if "scheme" in doc and "per_region" in doc:
        raise InputError("search result document carries both 'scheme' and 'per_region'")
    if "scheme" not in doc and "per_region" not in doc:
        raise InputError("search result document carries no scheme")
    result = SearchResult(method, scope, trace=doc.get("trace", []))
    if "scheme" in doc:
        result.scheme = ProjectionScheme.from_names(doc["scheme"], variables)
    else:
        if not isinstance(doc["per_region"], dict):
            raise InputError("search result 'per_region' must be an object keyed by 'stage:index'")
        per_region, keys, distinct = {}, {}, {}
        for key, names in doc["per_region"].items():
            try:
                stage, idx = (int(part) for part in key.split(":"))
            except ValueError:
                raise InputError(f"per-region key {key!r} is not 'stage:index'") from None
            first = keys.setdefault((stage, idx), key)
            if first != key:
                raise InputError(f"per-region keys {first!r} and {key!r} both name stage "
                                 f"{stage}, vector {idx}")
            # equal schemes share one object, and so one cached basis
            scheme = ProjectionScheme.from_names(names, variables)
            per_region[(stage, idx)] = distinct.setdefault(scheme, scheme)
        result.per_region = per_region
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
    # clamped at 0: np.clip with no upper bound computes this same maximum
    return np.maximum(updated, 0.0)


def _aggregate(values: np.ndarray, estimator: str) -> float:
    if values.size == 0:
        return 0.0
    return float(values.sum()) if estimator == "sum" else float(values.max())


def _descend(root: ProjectionScheme, value: float, state, score, label: str,
             floor: float = 0.0):
    """Greedy descent from the lattice ``root``, whose objective is ``value``.

    While the objective is above ``floor``, move to the first child with the
    strictly lowest ``score(child, mask, state) -> (value, state)``; ``state``
    carries what a child's score reuses from its parent. A node keeps its
    :func:`lattice_children`, so descents from one root build them once.
    Returns the final node and one ``{"merge": [...], label: value}`` trace
    entry per step.
    """
    node, n = root, root.n
    trace = []
    while value > floor:
        edges = lattice_children(node)
        if not edges:
            break
        best = None
        for child, mask in edges:
            child_value, child_state = score(child, mask, state)
            if best is None or child_value < best[0]:
                best = (child_value, child, child_state, mask)
        value, node, state, mask = best
        trace.append({"merge": [b for b in range(n) if mask >> b & 1], label: value})
    return node, trace


def vs_search(stage_sets: list[AlphaSet], estimator: str = "sum") -> SearchResult:
    """Per-region greedy descent for every vector of every stage set, scored by
    the sum or max estimator and updated incrementally along each accepted edge.

    Every region descends from one root, so a search takes each pair
    marginal's parity vector from :func:`walsh_vector` once, and builds
    each node's children once, for all its regions."""
    if estimator not in ("sum", "max"):
        raise InputError(f"unknown estimator {estimator!r}")
    n = stage_sets[-1].matrix.shape[1].bit_length() - 1
    root = lattice_root(n)
    # the root's edges are every pair marginal that any descent step adds
    parity = {mask: walsh_vector(mask, n) for _child, mask in lattice_children(root)}

    per_region: dict = {}
    traces: dict = {}
    for aset in stage_sets:
        for i in range(len(aset)):
            grads = _gradients(aset, i)
            if grads.shape[0]:
                coords = grads @ root.basis.matrix.T
                scores = np.maximum((grads * grads).sum(axis=1)
                                    - (coords * coords).sum(axis=1), 0.0)
            else:
                scores = np.zeros(0)

            def score(child, mask, parent_scores):
                child_scores = incremental_scores(parent_scores, parity[mask], grads)
                return _aggregate(child_scores, estimator), child_scores

            # zero within rounding counts as zero: for odd n the basis scale
            # 2^(-n/2) is inexact, so exact-zero residuals round to ~1e-16
            floor = 1e-12 * _aggregate((grads * grads).sum(axis=1), estimator)
            node, trace = _descend(root, _aggregate(scores, estimator), scores, score,
                                   "score", floor)
            per_region[(aset.stage, i)] = node
            traces[f"{aset.stage}:{i}"] = trace
    return SearchResult(f"vs-{estimator}", "all", per_region=per_region, trace=traces)


class NodeBound(NamedTuple):
    """What a lattice node's bound leaves for its children: the bound, the
    positive pairs and the switch sets of each tested stage."""
    value: float
    positives: list
    switch_sets: list


def _scoped_bound(model: Pomdp, stage_sets, scheme: ProjectionScheme, bound: str,
                  test: str, scope: str, parent: NodeBound | None = None) -> NodeBound:
    """Aggregate bound of one lattice node over the stage scope.

    B reads only the switch sets of the stages in scope, while E's
    alternative sets recurse through every stage. With the accepted
    ``parent`` node, only pairs still positive there are retested (switch
    tests are monotone along edges). ``positives`` maps each
    positive pair (i, j), i < j, to its LP decision, or to None under the
    VS test, and an LP test of a pair starts from the parent's decision.
    B and E are functions of the switch sets alone, so a node whose switch
    sets equal its parent's takes the parent's value without rebuilding
    alternative sets or bounds.
    """
    scoped = stage_sets[SCOPES[scope]]
    tested = scoped if bound == "B" else stage_sets
    sw_per_stage = []
    new_positives = []
    for s_idx, aset in enumerate(tested):
        cands = parent.positives[s_idx] if parent is not None else None
        # only an LP test starts from its pair's decision at the parent
        decisions = {} if test == "LP" else None
        sw = stage_switch_sets(aset, scheme, test, candidates=cands, decisions=decisions)
        sw_per_stage.append(sw)
        new_positives.append({(i, j): decisions[(i, j)] if decisions is not None else None
                              for i, targets in enumerate(sw) for j in targets if i < j})
    if parent is not None and sw_per_stage == parent.switch_sets:
        value = parent.value
    elif bound == "B":
        value = max(bound_from_switch_sets(aset, sw) for aset, sw in zip(tested, sw_per_stage))
    else:
        alts = alt_sets(model, stage_sets, sw_per_stage)
        value = max(bound_E_from_alts(aset, stage_alts)
                    for aset, stage_alts in zip(scoped, alts[-len(scoped):]))
    return NodeBound(value, new_positives, sw_per_stage)


def greedy_bound_search(model: Pomdp, stage_sets: list[AlphaSet], bound: str = "B",
                        test: str = "LP", scope: str = SearchConfig.scope) -> SearchResult:
    """Greedy descent minimizing the chosen loss bound; returns one scheme.
    With the VS test, every lattice node decides its pairs from the Walsh
    transform that each tested stage set keeps (``AlphaSet.walsh``)."""
    if bound not in ("B", "E"):
        raise InputError(f"unknown bound {bound!r}")
    if test not in METHODS:
        raise InputError(f"bound search needs the LP or VS test, got {test!r}")
    root = lattice_root(stage_sets[-1].matrix.shape[1].bit_length() - 1)

    def score(node, mask, parent):
        got = _scoped_bound(model, stage_sets, node, bound, test, scope, parent)
        return got.value, got

    start = _scoped_bound(model, stage_sets, root, bound, test, scope)
    node, trace = _descend(root, start.value, start, score, "bound")
    return SearchResult(f"{bound.lower()}-{test.lower()}", scope, scheme=node, trace=trace)


def run_search(model: Pomdp, stage_sets: list[AlphaSet],
               config: SearchConfig) -> SearchResult:
    """Dispatch one of the six methods; elapsed wall-clock lands on the result
    object only (artifact files stay byte-reproducible)."""
    start = time.perf_counter()
    if config.method in ESTIMATOR_METHODS:
        result = vs_search(stage_sets, config.method.split("-")[1])
    else:
        bound, test = config.method.split("-")
        result = greedy_bound_search(model, stage_sets, bound.upper(), test.upper(),
                                     config.scope)
    result.elapsed_seconds = time.perf_counter() - start
    return result
