"""Switch tests, switch sets, alternative-plan sets, and the loss bounds.

Three switch tests decide whether monitoring through a projection scheme can
make plan j look better than plan i from inside i's optimal region: an LP over
belief pairs with matching preserved marginals, the algebraic subspace test
(nonzero residual of the value gradient outside the preserved null space), and
a one-sided sampling oracle. Switch sets feed an upper bound on the loss of a
single approximation (B) and, through alternative-plan sets, of successive
approximations (E).
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
from .solver import AlphaSet

SWITCH_TOL = 1e-7  # strict-positivity threshold shared by the LP and VS tests
ALT_GUARD = 100_000
DEFAULT_SAMPLES = 100_000

METHODS = ("LP", "VS", "Oracle")


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


def lp_switch_test(alpha_i: np.ndarray, alpha_j: np.ndarray, scheme,
                   threshold: float = SWITCH_TOL) -> SwitchDecision:
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
    nvar = 2 * dim + 1
    objective = np.zeros(nvar)
    objective[-1] = 1.0
    constraints = []
    row = np.zeros(nvar)
    row[:dim] = diff
    row[-1] = -1.0
    constraints.append((row, GREATER, 0.0))
    row = np.zeros(nvar)
    row[dim:2 * dim] = -diff
    row[-1] = -1.0
    constraints.append((row, GREATER, 0.0))
    for mask in constraint_family(scheme).subsets:
        ind = indicator_vector(mask, n)
        row = np.zeros(nvar)
        row[:dim] = ind
        row[dim:2 * dim] = -ind
        constraints.append((row, EQUAL, 0.0))
    row = np.zeros(nvar)
    row[:dim] = 1.0
    constraints.append((row, EQUAL, 1.0))
    lower = [0.0] * (2 * dim) + [None]
    result = solve_lp(LinearProgram(objective, constraints, lower=lower))
    if result.status != "optimal":
        raise NumericalError(f"switch-test LP unexpectedly {result.status}")
    switches = result.value > threshold
    witness = (result.x[:dim], result.x[dim:2 * dim]) if switches else None
    return SwitchDecision(switches, "LP", float(result.value), witness)


def vs_switch_test(alpha_i: np.ndarray, alpha_j: np.ndarray, basis: WalshBasis,
                   threshold: float = SWITCH_TOL) -> SwitchDecision:
    """Algebraic switch test: positive iff the gradient has a component outside
    the span of the basis (squared residual above (threshold * |a_ij|)^2)."""
    diff = alpha_i - alpha_j
    residual = residual_sq_length(diff, basis)
    eps_sq = (threshold ** 2) * float(diff @ diff)
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
                      samples: int = DEFAULT_SAMPLES, seed: int = 0,
                      candidates=None, basis_cache: dict | None = None) -> list[tuple[int, ...]]:
    """Switch sets for every vector of one stage set.

    ``scheme_for`` is a ProjectionScheme or a callable index -> scheme (each
    vector's own scheme governs its switch set). ``candidates`` optionally
    restricts which pairs are tested (everything else is reported negative),
    which search callers use to exploit monotonicity along lattice edges.
    """
    if method not in METHODS:
        raise InputError(f"unknown switch-test method {method!r}")
    m = len(aset)
    fixed = None
    if not callable(scheme_for):
        fixed = scheme_for
        scheme_for = lambda idx: fixed  # noqa: E731
    if method == "Oracle":
        schemes = {scheme_for(i) for i in range(m)}
        if len(schemes) == 1:
            return oracle_switch_sets(aset, schemes.pop(), samples, seed)
        out = []
        for i in range(m):
            sets = oracle_switch_sets(aset, scheme_for(i), samples, seed)
            out.append(sets[i])
        return out

    if basis_cache is None:
        basis_cache = {}

    def basis_for(scheme):
        basis = basis_cache.get(scheme)
        if basis is None:
            basis = basis_cache[scheme] = build_basis(scheme)
        return basis

    sets: list[set[int]] = [set() for _ in range(m)]
    if fixed is not None:
        # one scheme for every vector: both tests are symmetric in (i, j),
        # so each unordered pair is decided once
        basis = basis_for(fixed) if method == "VS" else None
        for i in range(m):
            for j in range(i + 1, m):
                if candidates is not None and (i, j) not in candidates:
                    continue
                if method == "VS":
                    decision = vs_switch_test(aset.matrix[i], aset.matrix[j], basis)
                else:
                    decision = lp_switch_test(aset.matrix[i], aset.matrix[j], fixed)
                if decision.switches:
                    sets[i].add(j)
                    sets[j].add(i)
    else:
        for i in range(m):
            scheme = scheme_for(i)
            basis = basis_for(scheme) if method == "VS" else None
            for j in range(m):
                if j == i:
                    continue
                if method == "VS":
                    decision = vs_switch_test(aset.matrix[i], aset.matrix[j], basis)
                else:
                    decision = lp_switch_test(aset.matrix[i], aset.matrix[j], scheme)
                if decision.switches:
                    sets[i].add(j)
    return [tuple(sorted(s)) for s in sets]


def switch_set(i: int, aset: AlphaSet, scheme: ProjectionScheme, method: str = "LP",
               *, samples: int = DEFAULT_SAMPLES, seed: int = 0) -> tuple[int, ...]:
    """Indices j whose plans the scheme could erroneously switch vector i to."""
    if method == "Oracle":
        return oracle_switch_sets(aset, scheme, samples, seed)[i]
    return stage_switch_sets(aset, scheme, method, samples=samples, seed=seed)[i]


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


def bound_B(aset: AlphaSet, scheme_source, method: str = "LP", *,
            stage: int | None = None, samples: int = DEFAULT_SAMPLES,
            seed: int = 0) -> float:
    """Loss bound for a single approximation at one stage."""
    stage = aset.stage if stage is None else stage
    if isinstance(scheme_source, ProjectionScheme):
        source = scheme_source
    else:
        lookup = scheme_lookup(scheme_source)
        source = lambda i: lookup(stage, i)  # noqa: E731
    sets = stage_switch_sets(aset, source, method, samples=samples, seed=seed)
    return bound_from_switch_sets(aset, sets)


def bound_E(model: Pomdp, stage_sets: list[AlphaSet], scheme_source,
            method: str = "LP", *, alt_guard: int = ALT_GUARD,
            samples: int = DEFAULT_SAMPLES, seed: int = 0) -> list[float]:
    """Per-stage loss bounds for successive approximations."""
    report = compute_bounds(model, stage_sets, scheme_source, method,
                            alt_guard=alt_guard, samples=samples, seed=seed)
    return [s.E for s in report.stages]


def _minimal_members(members: list[np.ndarray]) -> list[np.ndarray]:
    """Drop duplicates and every member that pointwise-dominates another;
    the survivors attain the same max of (alpha - member)."""
    uniq = []
    seen = set()
    for w in members:
        key = w.tobytes()
        if key not in seen:
            seen.add(key)
            uniq.append(w)
    if len(uniq) <= 1:
        return uniq
    mat = np.stack(uniq)
    keep = []
    for i in range(len(uniq)):
        ge = np.all(mat[i] >= mat, axis=1)
        ge[i] = False
        if not ge.any():
            keep.append(i)
    return [uniq[i] for i in keep]


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
    E: float | None
    switch_sets: list[tuple[int, ...]]
    alt_set_sizes: list[int] | None


@dataclass
class BoundsReport:
    method: str
    scheme_source: object
    stages: list[StageBounds]

    @property
    def max_B(self) -> float:
        return max(s.B for s in self.stages)

    @property
    def max_E(self) -> float | None:
        if any(s.E is None for s in self.stages):
            return None
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


def compute_bounds(model: Pomdp | None, stage_sets: list[AlphaSet], scheme_source,
                   method: str = "VS", include_E: bool = True, *,
                   alt_guard: int = ALT_GUARD, samples: int = DEFAULT_SAMPLES,
                   seed: int = 0) -> BoundsReport:
    """Per-stage switch sets and B bounds, plus E bounds when ``include_E``
    (which requires the model for the alternative-set recursion)."""
    lookup = scheme_lookup(scheme_source)
    basis_cache: dict = {}
    sw_per_stage = []
    for aset in stage_sets:
        if isinstance(scheme_source, ProjectionScheme):
            source = scheme_source
        else:
            source = lambda i, k=aset.stage: lookup(k, i)  # noqa: E731
        sw = stage_switch_sets(aset, source, method, samples=samples, seed=seed,
                               basis_cache=basis_cache)
        sw_per_stage.append(sw)
    alts = None
    if include_E:
        if model is None:
            raise InputError("E bounds require the model")
        alts = alt_sets(model, stage_sets, sw_per_stage, guard=alt_guard)
    stages = []
    for idx, aset in enumerate(stage_sets):
        b_val = bound_from_switch_sets(aset, sw_per_stage[idx])
        e_val = bound_E_from_alts(aset, alts[idx]) if alts is not None else None
        sizes = [len(members) for members in alts[idx]] if alts is not None else None
        stages.append(StageBounds(aset.stage, b_val, e_val, sw_per_stage[idx], sizes))
    return BoundsReport(method, scheme_source, stages)
