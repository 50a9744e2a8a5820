"""Differential test of solve_lp against HiGHS on witness- and switch-shaped
programs, solved from scratch and warm-started from a solved program."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
optimize = pytest.importorskip("scipy.optimize")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from beliefproj import (InputError, LinearProgram, bounds, lp_switch_test,  # noqa: E402
                        solve_lp, solver)
from beliefproj.lpcore import EQUAL, GREATER  # noqa: E402
from beliefproj.projection import indicator_vector  # noqa: E402

from conftest import random_partition  # noqa: E402

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
        bounds=list(zip(lp.lower, lp.upper)), method="highs")
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    arrays(float, 1 << n, elements=entries),
    st.lists(arrays(float, 1 << n, elements=entries), min_size=1, max_size=10))))
def test_witness_programs_match_highs(case):
    target, others = case
    assert_agrees(captured_lp(solver, lambda: solver._witness(target, others, 1e-9)))


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
    blocks = random_partition(n, np.random.default_rng(seed))
    assert_agrees(captured_lp(bounds, lambda: lp_switch_test(alpha_i, alpha_j, blocks)))


def extra_row(n, dim, rng, kind):
    """An equality row over [b, b', x]: a switch LP's marginal row for a
    random subset, or random coefficients with a random right-hand side
    (which may make the program infeasible)."""
    row = np.zeros(2 * dim + 1)
    if kind == "marginal":
        ind = indicator_vector(int(rng.integers(0, 1 << n)), n)
        row[:dim], row[dim:2 * dim] = ind, -ind
        return row, EQUAL, 0.0
    row[:] = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=row.size)
    return row, EQUAL, float(rng.choice([0.0, 0.25, 1.0]))


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
        alpha_i, alpha_j, random_partition(n, rng)))
    parent = solve_lp(parent_lp)
    assert parent.status == "optimal"
    extra = [extra_row(n, 1 << n, rng, kind) for kind in kinds]
    rows = parent_lp.constraints + extra
    warm = solve_lp(LinearProgram(parent_lp.objective, rows, parent_lp.lower, warm=parent))
    cold = solve_lp(LinearProgram(parent_lp.objective, rows, parent_lp.lower))
    status, value = highs(LinearProgram(parent_lp.objective, rows, parent_lp.lower))
    assert warm.status == cold.status == status
    if status == "optimal":
        assert warm.value == pytest.approx(value, abs=1e-7)
        assert warm.value == pytest.approx(cold.value, abs=1e-7)
        for coeffs, _rel, rhs in rows[2:]:
            assert coeffs @ warm.x == pytest.approx(rhs, abs=1e-7)
        assert np.all(warm.x[:-1] >= -1e-7)

    # the start must be a solved prefix of the program, extended by equalities
    with pytest.raises(InputError, match="not a prefix"):
        solve_lp(LinearProgram(parent_lp.objective, extra + parent_lp.constraints,
                               parent_lp.lower, warm=parent))
    moved = [(coeffs + 1.0, rel, rhs) if k == 0 else (coeffs, rel, rhs)
             for k, (coeffs, rel, rhs) in enumerate(rows)]
    with pytest.raises(InputError, match="not a prefix"):
        solve_lp(LinearProgram(parent_lp.objective, moved, parent_lp.lower, warm=parent))
    with pytest.raises(InputError, match="equality rows"):
        solve_lp(LinearProgram(parent_lp.objective, parent_lp.constraints
                               + [(extra[0][0], GREATER, 0.0)], parent_lp.lower, warm=parent))
