"""Switch tests, switch sets, alternative-plan floors, and the loss bounds.

Two switch tests decide whether monitoring through a projection scheme can
make plan j look better than plan i from inside i's optimal region: an LP over
belief pairs with matching preserved marginals, and the algebraic subspace
test (nonzero residual of the value gradient outside the preserved null
space). One walk, :func:`stage_switch_sets`, picks the pairs of a stage
set that either test decides: the LP test runs once per pair, and the
algebraic test decides each row's pairs at once from the Walsh transform
that the stage set keeps (``AlphaSet.walsh``), with the per-pair
:func:`vs_switch_test` kept as its reference. Switch sets feed an upper
bound on the loss of a single approximation (B) and, through each vector's
floor (the pointwise minimum of its alternative plans' values, by a dynamic
program over observation paths), of successive approximations (E). A
one-sided sampling oracle is kept as the reference the tests check both
tests against. A scheme source is one global ProjectionScheme or a
per-region map keyed by (stage, vector index); :func:`scheme_of` reads both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

import numpy as np

from .errors import GuardError, InputError, NumericalError
from .lpcore import EQUAL, GREATER, LinearProgram, LpResult, solve_lp
from .model import Pomdp, sample_beliefs
from .projection import (ProjectionScheme, WalshBasis, indicator_vector, project_batch,
                         residual_sq_length)
from .solver import AlphaSet

SWITCH_TOL = 1e-7  # strict-positivity threshold shared by the LP and VS tests
ALT_GUARD = 100_000
DEFAULT_SAMPLES = 100_000
MARGINAL_ROWS = 256  # switch-LP marginal rows kept, one per (subset, variable count)
SCHEME_METHOD = "scheme"  # the method label of a scheme that no search produced

METHODS = ("LP", "VS")


@dataclass(frozen=True)
class SwitchDecision:
    switches: bool
    # the LP test's margin where its solve stopped: the optimum when
    # negative, any value above SWITCH_TOL when positive; the VS residual
    objective: float
    witness: tuple[np.ndarray, np.ndarray] | None = None
    # LP test only: its solve, and the preserved subsets its program holds
    lp: LpResult | None = field(default=None, repr=False, compare=False)
    subsets: frozenset = field(default=frozenset(), repr=False, compare=False)


def scheme_of(scheme_source, stage: int, idx: int) -> ProjectionScheme:
    """The scheme of vector ``idx`` of stage ``stage`` under a global scheme or
    a per-region map keyed by (stage, vector index)."""
    if isinstance(scheme_source, ProjectionScheme):
        return scheme_source
    if isinstance(scheme_source, dict):
        try:
            return scheme_source[(stage, idx)]
        except KeyError:
            raise InputError(f"per-region scheme map has no entry for stage {stage}, "
                             f"vector {idx}") from None
    raise InputError(f"unsupported scheme source {type(scheme_source).__name__}")


def lp_switch_test(alpha_i: np.ndarray, alpha_j: np.ndarray, scheme: ProjectionScheme,
                   warm: SwitchDecision | None = None) -> SwitchDecision:
    """Linear switch test: is there a pair (b, b') agreeing on every preserved
    marginal with b favoring i and b' favoring j by a common positive margin?

    Variables are [b, b', x⁺, x⁻], all >= 0: the margin x = x⁺ - x⁻ is
    free, so its negative part's entries negate its positive part's in every
    row and in the objective, -0.0 where x has none. The empty-set marginal
    constraint makes b' sum to one automatically. The rows are the two
    margins, one marginal row per preserved subset in family order, and the
    sum of b.

    ``warm`` is optionally this pair's LP decision under a coarser scheme.
    The program is then that decision's program extended by the marginal
    rows of the preserved subsets it lacks, in family order, and the solve
    starts from its final tableau.

    The solve stops at the first vertex whose margin is above ``SWITCH_TOL``
    (status "stopped"), which decides a switch; only a pair that does not
    switch is solved to the optimum.
    """
    dim = alpha_i.shape[0]
    if alpha_j.shape[0] != dim:
        raise InputError("alpha vectors differ in dimension")
    n = dim.bit_length() - 1
    diff = alpha_i - alpha_j
    family = scheme.family
    if warm is not None and (warm.lp is None or not warm.subsets <= family.members
                             or not np.array_equal(warm.lp.program.constraints[0][0][:dim],
                                                   diff)):
        raise InputError("warm start is not this pair's switch LP under a coarser scheme")
    known = warm.subsets if warm is not None else frozenset()
    marginals = [_marginal_row(mask, n) for mask in family.subsets if mask not in known]
    if warm is not None:
        lp = warm.lp.extend([(row, 0.0) for row in marginals])
    else:
        objective = np.zeros(2 * dim + 2)
        objective[-2:] = 1.0, -1.0
        margin = np.concatenate([diff, np.zeros(dim), [-1.0, 1.0]])
        mirror = np.concatenate([np.zeros(dim), -diff, [-1.0, 1.0]])
        total = np.concatenate([np.ones(dim), np.zeros(dim), [0.0, -0.0]])
        constraints = ([(margin, GREATER, 0.0), (mirror, GREATER, 0.0)]
                       + [(row, EQUAL, 0.0) for row in marginals] + [(total, EQUAL, 1.0)])
        lp = LinearProgram(objective, constraints, stop_above=SWITCH_TOL)
    result = solve_lp(lp)
    if result.status not in ("optimal", "stopped"):
        raise NumericalError(f"switch-test LP unexpectedly {result.status}")
    # the tableau's objective decided the stop, so rounding in value cannot flip it
    switches = result.status == "stopped" or result.value > SWITCH_TOL
    witness = (result.x[:dim], result.x[dim:2 * dim]) if switches else None
    return SwitchDecision(switches, float(result.value), witness, result, family.members)


@lru_cache(maxsize=MARGINAL_ROWS)
def _marginal_row(mask: int, n: int) -> np.ndarray:
    """The switch LP's row for preserved subset ``mask`` over [b, b', x⁺, x⁻]:
    the subset's marginal under b minus that under b'. Read-only, so that
    every program holding it shares one copy."""
    ind = indicator_vector(mask, n)
    row = np.concatenate([ind, -ind, [0.0, -0.0]])
    row.setflags(write=False)
    return row


def vs_switch_test(alpha_i: np.ndarray, alpha_j: np.ndarray, basis: WalshBasis) -> SwitchDecision:
    """Algebraic switch test: positive iff the gradient has a component outside
    the span of the basis (squared residual above (SWITCH_TOL * |a_ij|)^2)."""
    diff = alpha_i - alpha_j
    residual = residual_sq_length(diff, basis)
    eps_sq = (SWITCH_TOL ** 2) * float(diff @ diff)
    return SwitchDecision(residual > eps_sq, residual)


def _oracle_sample(aset: AlphaSet, scheme: ProjectionScheme, samples: int, seed: int):
    """The oracle's beliefs drawn from ``seed`` and their projections, row for row."""
    beliefs = sample_beliefs(aset.matrix.shape[1], samples, np.random.default_rng(seed))
    return beliefs, project_batch(beliefs, scheme)


def _winners(beliefs: np.ndarray, aset: AlphaSet) -> np.ndarray:
    """Per belief row, the index of the best vector of ``aset`` (lowest on ties)."""
    return np.argmax(beliefs @ aset.matrix.T, axis=1)


def oracle_switch_test(i: int, j: int, aset: AlphaSet, scheme: ProjectionScheme,
                       samples: int = DEFAULT_SAMPLES, seed: int = 0,
                       pairwise: bool = False) -> SwitchDecision:
    """Sampling oracle: true if some sampled belief is won by i before
    projection and by j after. One-sided: a negative only reports absence of
    evidence. The pairwise variant ignores every other vector in the set.
    """
    if i == j:
        return SwitchDecision(False, 0.0)
    beliefs, projected = _oracle_sample(aset, scheme, samples, seed)
    if pairwise:
        vi = beliefs @ aset.matrix[i]
        vj = beliefs @ aset.matrix[j]
        pi = projected @ aset.matrix[i]
        pj = projected @ aset.matrix[j]
        pre_i = (vi >= vj) if i < j else (vi > vj)
        post_j = (pj >= pi) if j < i else (pj > pi)
        hits = pre_i & post_j
    else:
        hits = (_winners(beliefs, aset) == i) & (_winners(projected, aset) == j)
    count = int(hits.sum())
    if count == 0:
        return SwitchDecision(False, 0.0)
    first = int(np.flatnonzero(hits)[0])
    return SwitchDecision(True, count / samples, (beliefs[first], projected[first]))


def oracle_switch_sets(aset: AlphaSet, scheme: ProjectionScheme,
                       samples: int = DEFAULT_SAMPLES, seed: int = 0) -> list[tuple[int, ...]]:
    """Full-set oracle switch sets for every vector from one shared sample."""
    beliefs, projected = _oracle_sample(aset, scheme, samples, seed)
    pre, post = _winners(beliefs, aset), _winners(projected, aset)
    pairs = {(int(a), int(b)) for a, b in zip(pre, post) if a != b}
    return [tuple(sorted(j for (a, j) in pairs if a == i)) for i in range(len(aset))]


def stage_switch_sets(aset: AlphaSet, scheme_source, method: str = "LP", *,
                      candidates=None, decisions: dict | None = None) -> list[tuple[int, ...]]:
    """Switch sets for every vector of one stage set.

    Vector i's own scheme, ``scheme_of(scheme_source, aset.stage, i)``,
    governs its switch set. ``candidates`` optionally restricts which pairs
    (i, j), i < j, are tested (everything else is reported negative), which
    search callers use to exploit monotonicity along lattice edges; it maps
    each pair to its decision under a coarser scheme, or None, which its LP
    test starts from (``lp_switch_test``'s ``warm``). ``decisions``, when
    given, receives the SwitchDecision of each pair tested, keyed (i, j) as
    tested, in row order.

    Rows are grouped by scheme and decided one at a time: row i against
    every candidate j != i but a j < i of its own scheme, since both tests
    are symmetric in (i, j) under one scheme and row j decided the pair.

    The VS test decides a row's pairs at once from the unnormalised Walsh
    coefficients C of the stage's rows, ``aset.walsh``, which the set
    transforms once and keeps, so every lattice node of a search reads the
    same table. Pair (i, j) switches iff the sum over the masks outside the
    scheme's family of (C_i - C_j)^2 exceeds ``SWITCH_TOL^2`` times that sum
    over every mask, which is 2^n * |a_i - a_j|^2 (Parseval):
    :func:`vs_switch_test`'s criterion, both sides scaled by 2^n. The sum
    runs over the outside masks themselves, so a pair that differs only
    inside the family reads exactly 0 (|d|^2 minus the inside sum would
    leave rounding there). A decision's ``objective`` is the outside sum
    over 2^n, the squared residual. Beside C, no step holds more floats
    than C does.
    """
    if method not in METHODS:
        raise InputError(f"unknown switch-test method {method!r}")
    m = len(aset)
    group: dict[ProjectionScheme, int] = {}
    ids = [group.setdefault(scheme_of(scheme_source, aset.stage, i), len(group))
           for i in range(m)]
    schemes = list(group)
    if m < 2:
        return [()] * m
    if method == "VS":
        coefficients = aset.walsh
        dim = coefficients.shape[1]
        # per scheme, one column of 1.0 at the masks outside its family (0.0
        # inside) and one of 1.0 at every mask
        weights = []
        for scheme in schemes:
            columns = np.ones((dim, 2))
            columns[list(scheme.family.subsets), 0] = 0.0
            weights.append(columns)
    sets: list[set[int]] = [set() for _ in range(m)]
    partners = None
    if candidates is not None:
        partners = [set() for _ in range(m)]
        for i, j in candidates:
            partners[i].add(j)
            partners[j].add(i)
    for i, g in enumerate(ids):
        js = [j for j in range(m) if j != i and (j > i or ids[j] != g)
              and (partners is None or j in partners[i])]
        if not js:
            continue
        if method == "VS":
            sums = _squared_gap_sums(coefficients, i, js, weights[g])
            switches = (sums[:, 0] > SWITCH_TOL ** 2 * sums[:, 1]).tolist()
            # the decisions are made only for a caller that keeps them
            row = (map(SwitchDecision, switches, (sums[:, 0] / dim).tolist())
                   if decisions is not None else ())
        else:
            row = [lp_switch_test(aset.matrix[i], aset.matrix[j], schemes[g],
                                  candidates.get((i, j)) if candidates is not None else None)
                   for j in js]
            switches = [decision.switches for decision in row]
        if decisions is not None:
            decisions.update(zip([(i, j) for j in js], row))
        for j in compress(js, switches):
            sets[i].add(j)
            if j > i and ids[j] == g:
                sets[j].add(i)  # row j does not retest this pair
    return [tuple(sorted(s)) for s in sets]


def _squared_gap_sums(coefficients: np.ndarray, i: int, js, weights: np.ndarray) -> np.ndarray:
    """(C_j - C_i)^2 summed against each column of ``weights``, one row per j
    of ``js``. A weight of 0.0 adds an exact zero, so a 0/1 column sums the
    terms it marks and no others."""
    gaps = coefficients.take(js, axis=0)
    gaps -= coefficients[i]
    return np.square(gaps, out=gaps) @ weights


def _largest_gap(aset: AlphaSet, members_per_vector) -> float:
    """max over vectors and the rows of their member arrays of the
    componentwise maximum of (alpha - member), clamped at zero: the simplex
    maximum of the value gap between a plan and one that may take its place."""
    best = 0.0
    for alpha, members in zip(aset.matrix, members_per_vector):
        gap = float((alpha - members).max())
        if gap > best:
            best = gap
    return best


def bound_from_switch_sets(aset: AlphaSet, switch_sets) -> float:
    """B: the gap of :func:`bound_E_from_alts` with each vector's switch
    targets, and the vector itself, as its alternatives."""
    return _largest_gap(aset, (aset.matrix[[i, *sw]] for i, sw in enumerate(switch_sets)))


def alt_sets(model: Pomdp, stage_sets: list[AlphaSet],
             switch_sets_per_stage) -> list[list[np.ndarray]]:
    """Each vector's floor per stage, as a one-row array: the pointwise
    minimum of the value vectors of the plans that may take its place.

    Stage 1 alternatives are the vector itself plus its switch targets. At
    stage k the plan may first switch at the root, then follow any
    alternative of each continuation. The minimum of a linear functional C
    over those members separates by observation, so in difference form
    W(p, C) = min over members m of C (m - alpha_p) is the minimum over the
    roots r of p of C (alpha_r - alpha_p) + gamma sum_z W(sigma_z(r), C M),
    with M = T_a diag(O_a[:, z]) for r's action a, and the floor is
    alpha_p + W(p, I). C is fixed by the (action, observation) path from
    the top, so W has one entry per (stage, vector, path). A vector with no
    switch target and only such vectors below it has W = 0 exactly and no
    entry, so a belief-preserving scheme's floors are its vectors. The
    entries are listed top down, and GuardError is raised at the first one
    above ``ALT_GUARD``, before any product; their values are then computed
    bottom up.
    """
    plans = [(aset.actions.tolist(), aset.strategies.tolist()) for aset in stage_sets]
    trivial = []  # stage 1 continues with the zero plan, which is trivial
    for switch_sets, (_, strategies) in zip(switch_sets_per_stage, plans):
        trivial.append([not targets and (not trivial or all(trivial[-1][c] for c in sigma))
                        for targets, sigma in zip(switch_sets, strategies)])
    paths = [(0, 0, 0)]  # path id -> (parent id, action, observation); 0 is the empty path
    path_ids: dict[tuple[int, int, int], int] = {}
    levels: list[dict] = [{} for _ in stage_sets]  # (vector, path id) -> W, per stage

    def continuations(k, r, path):
        """(vector, path id) of each of root r's non-trivial continuations."""
        actions, strategies = plans[k]
        for z, c in enumerate(strategies[r]):
            if not trivial[k - 1][c]:
                step = (path, actions[r], z)
                if step not in path_ids:
                    path_ids[step] = len(paths)
                    paths.append(step)
                yield c, path_ids[step]

    entries = 0

    def enter(k, key):
        nonlocal entries
        if key not in levels[k]:
            entries += 1
            if entries > ALT_GUARD:
                raise GuardError(f"alternative set for stage {k + 1} vector {key[0]} needs "
                                 f"more than {ALT_GUARD} entries")
            levels[k][key] = None

    for k in reversed(range(len(stage_sets))):
        for p, flat in enumerate(trivial[k]):
            if not flat:
                enter(k, (p, 0))
        for p, path in levels[k] if k else ():
            for r in (p, *switch_sets_per_stage[k][p]):
                for key in continuations(k, r, path):
                    enter(k - 1, key)

    floors = []
    for k, aset in enumerate(stage_sets):
        switch_sets, level = switch_sets_per_stage[k], levels[k]
        for p, path in level:
            targets = list(switch_sets[p])
            values = np.zeros((1 + len(targets), aset.matrix.shape[1]))
            if targets:
                # C (alpha_r - alpha_p), deepest step first as backup takes
                # one, so no product of two tables is formed
                columns, step = (aset.matrix[targets] - aset.matrix[p]).T, path
                while step:
                    step, a, z = paths[step]
                    columns = model.transition[a] @ (model.observation_fn[a][:, z, None] * columns)
                values[1:] = columns.T
            for row, r in enumerate((p, *targets) if k else ()):
                values[row] += model.discount * sum(levels[k - 1][key]
                                                    for key in continuations(k, r, path))
            level[p, path] = values.min(axis=0)
        if k:
            levels[k - 1] = {}
        zero = np.zeros(aset.matrix.shape[1])
        gaps = np.array([level.get((p, 0), zero) for p in range(len(aset))])
        floors.append(list((aset.matrix + gaps)[:, np.newaxis]))
    return floors


def bound_E_from_alts(aset: AlphaSet, stage_alts) -> float:
    """E: the largest value gap between a vector and its alternatives."""
    return _largest_gap(aset, stage_alts)


def scheme_source_doc(scheme_source, variables):
    """Names-based JSON form of a global scheme or per-region scheme map."""
    if isinstance(scheme_source, ProjectionScheme):
        return scheme_source.to_names(variables)
    return {f"{stage}:{idx}": scheme.to_names(variables)
            for (stage, idx), scheme in sorted(scheme_source.items())}


def compute_bounds(model: Pomdp, stage_sets: list[AlphaSet],
                   scheme_source) -> tuple[list[float], list[float]]:
    """Per-stage B and E bounds, stage 1 first: B from the VS switch sets,
    E through the alternative-set recursion. A per-region map must give a
    scheme to every vector of ``stage_sets`` and to nothing else."""
    if isinstance(scheme_source, dict):
        sizes = {aset.stage: len(aset) for aset in stage_sets}
        for stage, idx in scheme_source:
            if not 0 <= idx < sizes.get(stage, 0):
                raise InputError(f"per-region scheme key '{stage}:{idx}' names no vector "
                                 "of the policy")
    sw_per_stage = [stage_switch_sets(aset, scheme_source, "VS") for aset in stage_sets]
    alts = alt_sets(model, stage_sets, sw_per_stage)
    return ([bound_from_switch_sets(aset, sw) for aset, sw in zip(stage_sets, sw_per_stage)],
            [bound_E_from_alts(aset, stage_alts) for aset, stage_alts in zip(stage_sets, alts)])
