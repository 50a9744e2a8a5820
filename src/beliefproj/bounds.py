"""Switch tests, switch sets, alternative-plan sets, and the loss bounds.

Two switch tests decide whether monitoring through a projection scheme can
make plan j look better than plan i from inside i's optimal region: an LP over
belief pairs with matching preserved marginals, and the algebraic subspace
test (nonzero residual of the value gradient outside the preserved null
space). Switch sets feed an upper bound on the loss of a single approximation
(B) and, through alternative-plan sets, of successive approximations (E). A
one-sided sampling oracle is kept as the reference the tests check both
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import GuardError, InputError, NumericalError
from .lpcore import EQUAL, GREATER, LinearProgram, solve_lp
from .model import Pomdp, sample_beliefs
from .projection import (ProjectionScheme, WalshBasis, build_basis, constraint_family,
                         indicator_vector, project_batch, residual_sq_length)
from .solver import AlphaSet, undominated

SWITCH_TOL = 1e-7  # strict-positivity threshold shared by the LP and VS tests
ALT_GUARD = 100_000
DEFAULT_SAMPLES = 100_000

METHODS = ("LP", "VS")


@dataclass(frozen=True)
class SwitchDecision:
    switches: bool
    method: str
    objective: float
    witness: tuple[np.ndarray, np.ndarray] | None = None


def scheme_lookup(scheme_source):
    """Normalize a scheme source to a callable (stage, vector index) -> scheme.

    Accepts a single ProjectionScheme (global) or a mapping keyed by
    (stage, vector index) as produced by the per-region searches.
    """
    if isinstance(scheme_source, ProjectionScheme):
        return lambda stage, idx: scheme_source
    if isinstance(scheme_source, dict):
        def lookup(stage, idx):
            try:
                return scheme_source[(stage, idx)]
            except KeyError:
                raise InputError(
                    f"per-region scheme map has no entry for stage {stage}, vector {idx}"
                ) from None
        return lookup
    raise InputError(f"unsupported scheme source {type(scheme_source).__name__}")


def lp_switch_test(alpha_i: np.ndarray, alpha_j: np.ndarray, scheme) -> SwitchDecision:
    """Linear switch test: is there a pair (b, b') agreeing on every preserved
    marginal with b favoring i and b' favoring j by a common positive margin?

    Variables are [b, b', x] with x free; the empty-set marginal constraint
    makes b' sum to one automatically.
    """
    dim = alpha_i.shape[0]
    if alpha_j.shape[0] != dim:
        raise InputError("alpha vectors differ in dimension")
    n = dim.bit_length() - 1
    diff = alpha_i - alpha_j
    ind = indicator_vector(constraint_family(scheme).subsets, n)
    k = ind.shape[0]
    rows = np.zeros((k + 3, 2 * dim + 1))
    rows[0, :dim] = diff
    rows[1, dim:2 * dim] = -diff
    rows[:2, -1] = -1.0
    rows[2:k + 2, :dim] = ind
    rows[2:k + 2, dim:2 * dim] = -ind
    rows[-1, :dim] = 1.0
    objective = np.zeros(2 * dim + 1)
    objective[-1] = 1.0
    constraints = list(zip(rows, [GREATER] * 2 + [EQUAL] * (k + 1), [0.0] * (k + 2) + [1.0]))
    lower = [0.0] * (2 * dim) + [None]
    result = solve_lp(LinearProgram(objective, constraints, lower=lower))
    if result.status != "optimal":
        raise NumericalError(f"switch-test LP unexpectedly {result.status}")
    switches = result.value > SWITCH_TOL
    witness = (result.x[:dim], result.x[dim:2 * dim]) if switches else None
    return SwitchDecision(switches, "LP", float(result.value), witness)


def vs_switch_test(alpha_i: np.ndarray, alpha_j: np.ndarray, basis: WalshBasis) -> SwitchDecision:
    """Algebraic switch test: positive iff the gradient has a component outside
    the span of the basis (squared residual above (SWITCH_TOL * |a_ij|)^2)."""
    diff = alpha_i - alpha_j
    residual = residual_sq_length(diff, basis)
    eps_sq = (SWITCH_TOL ** 2) * float(diff @ diff)
    return SwitchDecision(residual > eps_sq, "VS", residual)


def _pre_post_winners(aset: AlphaSet, scheme: ProjectionScheme,
                      samples: int, seed: int):
    rng = np.random.default_rng(seed)
    beliefs = sample_beliefs(aset.matrix.shape[1], samples, rng)
    pre = np.argmax(beliefs @ aset.matrix.T, axis=1)
    post = np.argmax(project_batch(beliefs, scheme) @ aset.matrix.T, axis=1)
    return beliefs, pre, post


def oracle_switch_test(i: int, j: int, aset: AlphaSet, scheme: ProjectionScheme,
                       samples: int = DEFAULT_SAMPLES, seed: int = 0,
                       pairwise: bool = False) -> SwitchDecision:
    """Sampling oracle: true if some sampled belief is won by i before
    projection and by j after. One-sided: a negative only reports absence of
    evidence. The pairwise variant ignores every other vector in the set.
    """
    if i == j:
        return SwitchDecision(False, "Oracle", 0.0)
    if pairwise:
        rng = np.random.default_rng(seed)
        beliefs = sample_beliefs(aset.matrix.shape[1], samples, rng)
        vi = beliefs @ aset.matrix[i]
        vj = beliefs @ aset.matrix[j]
        projected = project_batch(beliefs, scheme)
        pi = projected @ aset.matrix[i]
        pj = projected @ aset.matrix[j]
        pre_i = (vi >= vj) if i < j else (vi > vj)
        post_j = (pj >= pi) if j < i else (pj > pi)
        hits = pre_i & post_j
    else:
        beliefs, pre, post = _pre_post_winners(aset, scheme, samples, seed)
        hits = (pre == i) & (post == j)
    count = int(hits.sum())
    if count == 0:
        return SwitchDecision(False, "Oracle", 0.0)
    first = int(np.flatnonzero(hits)[0])
    if pairwise:
        witness = (beliefs[first], projected[first])
    else:
        witness = (beliefs[first], project_batch(beliefs[first:first + 1], scheme)[0])
    return SwitchDecision(True, "Oracle", count / samples, witness)


def oracle_switch_sets(aset: AlphaSet, scheme: ProjectionScheme,
                       samples: int = DEFAULT_SAMPLES, seed: int = 0) -> list[tuple[int, ...]]:
    """Full-set oracle switch sets for every vector from one shared sample."""
    _, pre, post = _pre_post_winners(aset, scheme, samples, seed)
    pairs = {(int(a), int(b)) for a, b in zip(pre, post) if a != b}
    return [tuple(sorted(j for (a, j) in pairs if a == i)) for i in range(len(aset))]


def stage_switch_sets(aset: AlphaSet, scheme_for, method: str = "LP", *,
                      candidates=None, basis_cache: dict | None = None) -> list[tuple[int, ...]]:
    """Switch sets for every vector of one stage set.

    ``scheme_for`` is a ProjectionScheme or a callable index -> scheme (each
    vector's own scheme governs its switch set). ``candidates`` optionally
    restricts which pairs (i, j), i < j, are tested (everything else is
    reported negative), which search callers use to exploit monotonicity
    along lattice edges.
    """
    if method not in METHODS:
        raise InputError(f"unknown switch-test method {method!r}")
    m = len(aset)
    if isinstance(scheme_for, ProjectionScheme):
        schemes = [scheme_for] * m
    else:
        schemes = [scheme_for(i) for i in range(m)]
    if basis_cache is None:
        basis_cache = {}
    sets: list[set[int]] = [set() for _ in range(m)]
    for i, scheme in enumerate(schemes):
        if method == "VS" and scheme not in basis_cache:
            basis_cache[scheme] = build_basis(scheme)
        for j in range(m):
            if j == i or (candidates is not None and (min(i, j), max(i, j)) not in candidates):
                continue
            if j < i and schemes[j] == scheme:
                # both tests are symmetric in (i, j) under one scheme, so the
                # decision made at (j, i) stands
                switches = i in sets[j]
            elif method == "VS":
                switches = vs_switch_test(aset.matrix[i], aset.matrix[j],
                                          basis_cache[scheme]).switches
            else:
                switches = lp_switch_test(aset.matrix[i], aset.matrix[j], scheme).switches
            if switches:
                sets[i].add(j)
    return [tuple(sorted(s)) for s in sets]


def bound_from_switch_sets(aset: AlphaSet, switch_sets) -> float:
    """max over vectors and their switch targets of the componentwise maximum
    of (alpha - alpha'): the simplex maximum of the pairwise value gap."""
    best = 0.0
    for i, sw in enumerate(switch_sets):
        for j in sw:
            gap = float(np.max(aset.matrix[i] - aset.matrix[j]))
            if gap > best:
                best = gap
    return best


def _minimal_members(members: list[np.ndarray]) -> list[np.ndarray]:
    """Drop duplicates and every member that pointwise-dominates another;
    the survivors attain the same max of (alpha - member). Negation is exact,
    so :func:`undominated` on the negated rows makes exactly these cuts."""
    return [members[i] for i in undominated(-np.stack(members))]


def alt_sets(model: Pomdp, stage_sets: list[AlphaSet], switch_sets_per_stage,
             guard: int = ALT_GUARD) -> list[list[list[np.ndarray]]]:
    """Alternative-plan value vectors per stage per vector.

    Stage 1 alternatives are the vector itself plus its switch targets. At
    stage k the plan may first switch at the root, then substitute any
    alternative subplan per observation; every reachable plan's value vector
    is produced by the backup formula. Each set is reduced to its pointwise-
    minimal members, which leaves the E bound unchanged.
    """
    alts: list[list[list[np.ndarray]]] = []
    for k, aset in enumerate(stage_sets):
        stage_alts = []
        if k == 0:
            for i in range(len(aset)):
                members = [aset.matrix[i]]
                members += [aset.matrix[j] for j in switch_sets_per_stage[0][i]]
                stage_alts.append(_minimal_members(members))
        else:
            prev_alts = alts[-1]
            transformed: dict[tuple[int, int, int], list[np.ndarray]] = {}

            def branch_values(a, z, p):
                key = (a, z, p)
                got = transformed.get(key)
                if got is None:
                    obs_col = model.observation_fn[a][:, z]
                    got = [model.transition[a] @ (obs_col * w) for w in prev_alts[p]]
                    transformed[key] = got
                return got

            for i in range(len(aset)):
                members = []
                for root in (i, *switch_sets_per_stage[k][i]):
                    vec = aset.vectors[root]
                    per_z = [branch_values(vec.action, z, vec.strategy[z])
                             for z in range(model.n_observations)]
                    combos = 1
                    for lst in per_z:
                        combos *= len(lst)
                    if len(members) + combos > guard:
                        raise GuardError(
                            f"alternative set for stage {k + 1} vector {i} exceeds {guard} members")
                    for picks in product(*per_z):
                        acc = picks[0].copy()
                        for extra in picks[1:]:
                            acc += extra
                        members.append(model.reward + model.discount * acc)
                stage_alts.append(_minimal_members(members))
        alts.append(stage_alts)
    return alts


def bound_E_from_alts(aset: AlphaSet, stage_alts) -> float:
    """max over vectors and their alternatives of the componentwise maximum of
    (alpha - alternative), clamped at zero."""
    best = 0.0
    for i, members in enumerate(stage_alts):
        for w in members:
            gap = float(np.max(aset.matrix[i] - w))
            if gap > best:
                best = gap
    return best


@dataclass
class StageBounds:
    stage: int
    B: float
    E: float
    switch_sets: list[tuple[int, ...]]
    alt_set_sizes: list[int]


@dataclass
class BoundsReport:
    method: str
    scheme_source: object
    stages: list[StageBounds]

    @property
    def max_B(self) -> float:
        return max(s.B for s in self.stages)

    @property
    def max_E(self) -> float:
        return max(s.E for s in self.stages)

    def to_doc(self, variables) -> dict:
        return {
            "method": self.method,
            "scheme": scheme_source_doc(self.scheme_source, variables),
            "per_stage": [
                {"stage": s.stage, "B": s.B, "E": s.E,
                 "switch_sets": [list(sw) for sw in s.switch_sets],
                 "alt_set_sizes": s.alt_set_sizes}
                for s in self.stages
            ],
            "B": self.max_B,
            "E": self.max_E,
        }


def scheme_source_doc(scheme_source, variables):
    """Names-based JSON form of a global scheme or per-region scheme map."""
    if isinstance(scheme_source, ProjectionScheme):
        return scheme_source.to_names(variables)
    return {f"{stage}:{idx}": scheme.to_names(variables)
            for (stage, idx), scheme in sorted(scheme_source.items())}


def compute_bounds(model: Pomdp, stage_sets: list[AlphaSet], scheme_source,
                   method: str = "VS", *, alt_guard: int = ALT_GUARD) -> BoundsReport:
    """Per-stage switch sets with their B bounds and, through the
    alternative-set recursion, E bounds."""
    lookup = scheme_lookup(scheme_source)
    basis_cache: dict = {}
    sw_per_stage = [
        stage_switch_sets(aset, lambda i, k=aset.stage: lookup(k, i), method,
                          basis_cache=basis_cache)
        for aset in stage_sets]
    alts = alt_sets(model, stage_sets, sw_per_stage, guard=alt_guard)
    stages = [StageBounds(aset.stage, bound_from_switch_sets(aset, sw),
                          bound_E_from_alts(aset, stage_alts), sw,
                          [len(members) for members in stage_alts])
              for aset, sw, stage_alts in zip(stage_sets, sw_per_stage, alts)]
    return BoundsReport(method, scheme_source, stages)
