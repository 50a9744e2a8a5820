"""Differential test of solve_lp against HiGHS on witness- and switch-shaped
programs, solved from scratch and warm-started from a solved program. Their
free margin is a pair of nonnegative columns, x⁺ and x⁻, and HiGHS gets the
same program."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
optimize = pytest.importorskip("scipy.optimize")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from beliefproj import (LinearProgram, LpResult, ProjectionScheme, bounds,  # noqa: E402
                        lp_switch_test, solve_lp, solver)
from beliefproj.bounds import SWITCH_TOL  # noqa: E402
from beliefproj.projection import indicator_vector  # noqa: E402

from conftest import random_partition, solve_to_optimum  # noqa: E402

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

# a few repeated values make ties and degenerate vertices common
entries = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                    st.floats(-1.0, 1.0, allow_nan=False))


def highs(lp: LinearProgram) -> tuple[str, float | None]:
    rows = np.array([coeffs for coeffs, _rel, _rhs in lp.constraints])
    rels = np.array([rel for _coeffs, rel, _rhs in lp.constraints])
    rhs = np.array([rhs for _coeffs, _rel, rhs in lp.constraints], dtype=float)
    sign = np.where(rels == ">=", -1.0, 1.0)
    ineq, eq = rels != "=", rels == "="
    res = optimize.linprog(
        -lp.objective,
        A_ub=(sign[:, np.newaxis] * rows)[ineq] if ineq.any() else None,
        b_ub=(sign * rhs)[ineq] if ineq.any() else None,
        A_eq=rows[eq] if eq.any() else None,
        b_eq=rhs[eq] if eq.any() else None,
        bounds=[(0.0, upper) for upper in lp.upper], method="highs")
    status = HIGHS_STATUS[res.status]
    return status, (-res.fun if status == "optimal" else None)


def captured_lp(module, run) -> LinearProgram:
    """The first program ``run()`` hands to ``module.solve_lp``."""
    seen = []

    def capture(lp):
        seen.append(lp)
        return solve_lp(lp)
    with mock.patch.object(module, "solve_lp", capture):
        run()
    return seen[0]


def assert_agrees(lp: LinearProgram) -> None:
    ours = solve_lp(lp)
    status, value = highs(lp)
    assert ours.status == status
    if status == "optimal":
        assert ours.value == pytest.approx(value, abs=1e-7)


def assert_feasible(lp: LinearProgram, x: np.ndarray) -> None:
    for coeffs, rel, rhs in lp.constraints:
        slack = float(coeffs @ x) - rhs
        assert {"=": abs(slack), ">=": -slack, "<=": slack}[rel] <= 1e-7
    assert np.all(x >= -1e-7)


def assert_switch_agrees(lp: LinearProgram) -> LpResult:
    """A switch program, which stops at the first vertex whose margin is
    above SWITCH_TOL, decides as HiGHS's optimum does, and its x is a
    feasible point with that margin when the decision is positive; the same
    program solved to the optimum agrees with HiGHS. Returns that optimum."""
    assert lp.stop_above == SWITCH_TOL
    ours = solve_lp(lp)
    full = solve_to_optimum(lp)
    status, value = highs(lp)
    assert full.status == status
    assert ours.status == status or (status, ours.status) == ("optimal", "stopped")
    if status == "optimal":
        assert full.value == pytest.approx(value, abs=1e-7)
        assert (ours.status == "stopped" or ours.value > SWITCH_TOL) == (value > SWITCH_TOL)
        assert_feasible(lp, ours.x)
        if ours.status == "stopped":
            assert ours.value > SWITCH_TOL
    return full


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    arrays(float, 1 << n, elements=entries),
    st.lists(arrays(float, 1 << n, elements=entries), min_size=1, max_size=10))))
def test_witness_programs_match_highs(case):
    target, others = case
    assert_agrees(captured_lp(solver, lambda: solver._witness(target, others)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), arrays(float, 1 << n, elements=entries), arrays(float, 1 << n, elements=entries),
    st.integers(0, 2**32 - 1))))
# pricing's first column pivots on the 1e-9 entry of a column whose largest
# entry is 1, then on 8e-8 in a column grown to 5e8, and phase 1 ends
# "unbounded" unless another column enters; HiGHS finds the optimum 0
@example(case=(4, np.array([-1.0] + [0.0] * 15),
               np.array([0.0] + [-0.5] * 6 + [1e-9, -1.0] + [-0.5] * 7), 4))
def test_switch_programs_match_highs(case):
    n, alpha_i, alpha_j, seed = case
    scheme = ProjectionScheme(random_partition(n, np.random.default_rng(seed)))
    assert_switch_agrees(captured_lp(bounds, lambda: lp_switch_test(alpha_i, alpha_j, scheme)))


def extra_row(n, dim, rng, kind):
    """An equality row over [b, b', x⁺, x⁻] as (coefficients, rhs): a switch
    LP's marginal row for a random subset, or random coefficients with a
    random right-hand side (which may make the program infeasible). The x⁻
    entry is the negation of the x⁺ entry, so x = x⁺ - x⁻ stays free."""
    row, rhs = np.zeros(2 * dim + 2), 0.0
    if kind == "marginal":
        ind = indicator_vector(int(rng.integers(0, 1 << n)), n)
        row[:dim], row[dim:2 * dim] = ind, -ind
    else:
        row[:-1] = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=row.size - 1)
        rhs = float(rng.choice([0.0, 0.25, 1.0]))
    row[-1] = -row[-2]
    return row, rhs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), arrays(float, 1 << n, elements=entries), arrays(float, 1 << n, elements=entries),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["marginal", "random"]), min_size=1, max_size=2))))
# a forced pivot on a 2e-9 entry leaves entries near 1e9 in the next column;
# tying its ratios within an absolute 1e-9 would step another row to -0.5 and
# report 0.5 (cold in the first, warm in the second) for an optimum of 8e-10
@example(case=(2, np.array([-1.0, 0.0, -0.5, 0.0]), np.array([-1.0, -1.0, -1.0, 1e-9]), 2,
               ["random"]))
@example(case=(2, np.array([-1.0, -0.5, 0.0, 0.0]), np.array([-1.0, -1.0, -1.0, 1e-9]), 2,
               ["random"]))
def test_warm_started_switch_programs_match_highs_and_cold(case):
    n, alpha_i, alpha_j, seed, kinds = case
    rng = np.random.default_rng(seed)
    parent_lp = captured_lp(bounds, lambda: lp_switch_test(
        alpha_i, alpha_j, ProjectionScheme(random_partition(n, rng))))
    parent = solve_lp(parent_lp)
    assert parent.status in ("optimal", "stopped")
    # the parent's final tableau, stopped or optimal, starts both solves
    warm_lp = parent.extend([extra_row(n, 1 << n, rng, kind) for kind in kinds])
    assert warm_lp.warm is parent and warm_lp.stop_above == SWITCH_TOL
    warm = assert_switch_agrees(warm_lp)
    rows = warm_lp.constraints
    cold = solve_lp(LinearProgram(parent_lp.objective, rows))
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.value == pytest.approx(cold.value, abs=1e-7)
        for coeffs, _rel, rhs in rows[2:]:
            assert coeffs @ warm.x == pytest.approx(rhs, abs=1e-7)
        assert np.all(warm.x >= -1e-7)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), arrays(float, 1 << n, elements=entries), arrays(float, 1 << n, elements=entries),
    st.integers(0, 2**32 - 1))))
@example(case=(4, np.array([-1.0] + [0.0] * 15),
               np.array([0.0] + [-0.5] * 6 + [1e-9, -1.0] + [-0.5] * 7), 4))
@example(case=(2, np.array([-1.0, 0.0, -0.5, 0.0]), np.array([-1.0, -1.0, -1.0, 1e-9]), 2))
@example(case=(2, np.array([-1.0, -0.5, 0.0, 0.0]), np.array([-1.0, -1.0, -1.0, 1e-9]), 2))
# the difference is a function of x0 alone, so preserving x0 leaves no switch
@example(case=(2, np.array([1.0, 0.0, 1.0, 0.0]), np.zeros(4), 0))
def test_sign_only_switch_decisions_equal_the_full_optimum_decisions(case):
    """Cold at a random partition, then warm-started along merges of its
    blocks down to one block, each from the coarser scheme's result: a
    positive decision stops as soon as it is proved, a negative one runs to
    the optimum, and either way the decision is the optimum's."""
    n, alpha_i, alpha_j, seed = case
    blocks = random_partition(n, np.random.default_rng(seed))
    decision = None
    while True:
        decision = lp_switch_test(alpha_i, alpha_j, ProjectionScheme(blocks), decision)
        full = solve_to_optimum(decision.lp.program)
        assert decision.switches == (full.value > SWITCH_TOL)
        assert decision.lp.status == ("stopped" if decision.switches else "optimal")
        if len(blocks) == 1:
            break
        blocks = (blocks[0] + blocks[1],) + blocks[2:]
