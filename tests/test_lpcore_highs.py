"""Differential test of solve_lp against HiGHS on witness- and switch-shaped programs."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
optimize = pytest.importorskip("scipy.optimize")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from beliefproj import LinearProgram, bounds, lp_switch_test, solve_lp, solver  # noqa: E402

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
def test_switch_programs_match_highs(case):
    n, alpha_i, alpha_j, seed = case
    blocks = random_partition(n, np.random.default_rng(seed))
    assert_agrees(captured_lp(bounds, lambda: lp_switch_test(alpha_i, alpha_j, blocks)))
