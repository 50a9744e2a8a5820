import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from beliefproj import InputError, LinearProgram, NumericalError, lpcore, solve_lp


def test_simple_bound():
    result = solve_lp(LinearProgram(np.array([1.0]), [(np.array([1.0]), "<=", 3.0)]))
    assert result.status == "optimal"
    assert result.value == pytest.approx(3.0, abs=1e-9)
    assert result.pivots == 1


def test_infeasible():
    result = solve_lp(LinearProgram(np.array([1.0]), [(np.array([1.0]), "<=", -1.0)]))
    assert result.status == "infeasible"


def test_unbounded():
    assert solve_lp(LinearProgram(np.array([1.0]), [])).status == "unbounded"


def test_equality_and_free_variable():
    # max x - y with x + y = 1, x <= 0.75, y free but y >= -2 via constraint;
    # the columns are [x, y+, y-] with y = y+ - y-
    objective = np.array([1.0, -1.0, 1.0])
    constraints = [
        (np.array([1.0, 1.0, -1.0]), "=", 1.0),
        (np.array([1.0, 0.0, -0.0]), "<=", 0.75),
        (np.array([0.0, 1.0, -1.0]), ">=", -2.0),
    ]
    result = solve_lp(LinearProgram(objective, constraints))
    assert result.status == "optimal"
    x, y_plus, y_minus = result.x
    np.testing.assert_allclose([x, y_plus - y_minus], [0.75, 0.25], atol=1e-9)


def test_upper_and_shifted_lower_bounds():
    # max x + y with 1 <= x <= 2, y <= 4, x + y <= 5; x >= 1 is a row, since
    # every variable is bounded below by 0
    lp = LinearProgram(np.array([1.0, 1.0]),
                       [(np.array([1.0, 1.0]), "<=", 5.0),
                        (np.array([1.0, 0.0]), ">=", 1.0)],
                       upper=[2.0, 4.0])
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.value == pytest.approx(5.0, abs=1e-9)
    assert 1.0 - 1e-9 <= result.x[0] <= 2.0 + 1e-9


def _enumerate_vertices(A_eq, b_eq, objective):
    """Best basic feasible solution of A_eq x = b_eq, x >= 0 (testing oracle)."""
    m, n = A_eq.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        B = A_eq[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        x_b = np.linalg.solve(B, b_eq)
        if np.any(x_b < -1e-9):
            continue
        x = np.zeros(n)
        x[list(cols)] = x_b
        value = float(objective @ x)
        if best is None or value > best:
            best = value
    return best


def test_random_programs_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(12):
        A = rng.normal(size=(5, 8))
        x0 = np.abs(rng.normal(size=8))
        b = A @ x0 + np.abs(rng.normal(size=5))  # x0 strictly feasible
        c = rng.normal(size=8)
        rows = [(A[i], "<=", float(b[i])) for i in range(5)]
        rows.append((np.ones(8), "<=", 30.0))  # keep the polytope bounded
        result = solve_lp(LinearProgram(c, rows))
        assert result.status == "optimal"

        A_std = np.hstack([np.vstack([A, np.ones(8)]), np.eye(6)])
        b_std = np.concatenate([b, [30.0]])
        c_std = np.concatenate([c, np.zeros(6)])
        oracle = _enumerate_vertices(A_std, b_std, c_std)
        assert result.value == pytest.approx(oracle, abs=1e-7)


def test_strong_duality_spot_check():
    rng = np.random.default_rng(7)
    for _ in range(8):
        A = rng.normal(size=(4, 6))
        b = np.abs(rng.normal(size=4)) + 0.5   # primal feasible at x = 0
        c = rng.normal(size=6) - 0.5
        rows = [(A[i], "<=", float(b[i])) for i in range(4)]
        rows.append((np.ones(6), "<=", 25.0))
        primal = solve_lp(LinearProgram(c, rows))
        assert primal.status == "optimal"

        # dual of max c.x, [A; 1] x <= [b; 25], x >= 0
        A_full = np.vstack([A, np.ones(6)])
        b_full = np.concatenate([b, [25.0]])
        dual_rows = [(-A_full[:, j], "<=", -float(c[j])) for j in range(6)]
        dual = solve_lp(LinearProgram(-b_full, dual_rows))
        assert dual.status == "optimal"
        assert primal.value == pytest.approx(-dual.value, abs=1e-6)


def test_bit_for_bit_determinism():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 8))
    b = np.abs(rng.normal(size=5)) + 1
    c = rng.normal(size=8)
    rows = [(A[i], "<=", float(b[i])) for i in range(5)] + [(np.ones(8), "<=", 10.0)]
    r1 = solve_lp(LinearProgram(c, rows))
    r2 = solve_lp(LinearProgram(c, rows))
    assert r1.value == r2.value
    assert r1.x.tobytes() == r2.x.tobytes()


def test_beale_cycling_program_terminates(monkeypatch):
    # Beale (1955): largest-coefficient pricing with lowest-index ratio ties
    # cycles through degenerate bases here; the lowest-index fallback escapes
    lp = LinearProgram(np.array([0.75, -20.0, 0.5, -6.0]), [
        (np.array([0.25, -8.0, -1.0, 9.0]), "<=", 0.0),
        (np.array([0.5, -12.0, -0.5, 3.0]), "<=", 0.0),
        (np.array([0.0, 0.0, 1.0, 0.0]), "<=", 1.0),
    ])
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.value == pytest.approx(1.25, abs=1e-9)
    np.testing.assert_allclose(result.x, [1.0, 0.0, 1.0, 0.0], atol=1e-9)
    assert result.pivots > lpcore.DEGENERATE_RUN

    monkeypatch.setattr(lpcore, "DEGENERATE_RUN", 10**9)
    with pytest.raises(NumericalError, match="did not converge"):
        solve_lp(lp)


def test_witness_program_that_once_failed_phase_one(monkeypatch):
    # a 24x65 witness LP from pruning stage 4 of random_pomdp(6, 2, 3, seed 7,
    # discount 0.9), coefficients 2e-5..1.2; the lowest-index rule reported a
    # phase-1 "unbounded" on it at tol 1e-9 and 1e-10; HiGHS: 4.9068e-4
    diffs = np.array(json.loads(
        (Path(__file__).parent / "data" / "witness_lp_24x65.json").read_text())["diffs"])
    dim = diffs.shape[1]
    # columns [b, x+, x-], the free margin x = x+ - x-
    constraints = [(np.append(row, [-1.0, 1.0]), ">=", 0.0) for row in diffs]
    constraints.append((np.append(np.ones(dim), [0.0, -0.0]), "=", 1.0))
    objective = np.zeros(dim + 2)
    objective[-2:] = 1.0, -1.0
    for tol in (1e-8, 1e-9, 1e-10):
        monkeypatch.setattr(lpcore, "FEAS_TOL", tol)
        result = solve_lp(LinearProgram(objective, constraints))
        assert result.status == "optimal"
        assert result.value == pytest.approx(4.906811737730672e-4, abs=1e-12)


def test_a_program_checks_its_rows_and_bounds():
    objective = np.array([1.0, 1.0])
    row = (np.array([1.0, -1.0]), "=", 0.0)
    for constraints, upper, message in [
            ([row, (np.array([1.0]), "=", 0.0)], None, "constraint dimension"),
            ([row, (np.array([1.0, -1.0]), "~", 0.0)], None, "unknown relation"),
            ([row], [None], "bounds length")]:
        with pytest.raises(InputError, match=message):
            LinearProgram(objective, constraints, upper=upper)


def test_an_extended_program_shares_its_start_and_checks_only_its_new_rows():
    # max x + y with x + y <= 2, x >= 0 and y free, then x - y = 0; the
    # columns are [x, y+, y-] with y = y+ - y-
    objective = np.array([1.0, 1.0, -1.0])
    start = solve_lp(LinearProgram(objective, [(np.array([1.0, 1.0, -1.0]), "<=", 2.0)]))
    assert start.status == "optimal"
    child = start.extend([(np.array([1.0, -1.0, 1.0]), 0.0)])
    assert child.warm is start and start.program.warm is None
    assert child.objective is objective and child.upper is start.program.upper
    assert child.constraints[0] is start.program.constraints[0]
    assert [rel for _coeffs, rel, _rhs in child.constraints] == ["<=", "="]
    result = solve_lp(child)
    assert result.status == "optimal"
    x, y_plus, y_minus = result.x
    np.testing.assert_allclose([x, y_plus - y_minus], [1.0, 1.0], atol=1e-9)
    # the extended program's own result extends again
    again = solve_lp(result.extend([(np.array([1.0, 0.0, -0.0]), 0.5)]))
    assert again.status == "optimal"
    x, y_plus, y_minus = again.x
    np.testing.assert_allclose([x, y_plus - y_minus], [0.5, 0.5], atol=1e-9)

    with pytest.raises(InputError, match="constraint dimension"):
        start.extend([(np.array([1.0, -1.0, 1.0]), 0.0), (np.array([1.0]), 0.0)])


def assert_warm_and_cold_agree(child: LinearProgram):
    warm = solve_lp(child)
    cold = solve_lp(LinearProgram(child.objective, child.constraints, child.upper))
    assert warm.status == cold.status == "optimal"
    assert warm.value == pytest.approx(cold.value, abs=1e-9)
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)
    return warm, cold


def test_an_extension_of_a_capped_program_appends_only_its_new_row():
    # max x + 2y with x + y <= 5, x <= 2 and y <= 4 (caps), then x - y = -1;
    # the start's final tableau already holds the two cap rows
    start = solve_lp(LinearProgram(np.array([1.0, 2.0]), [(np.array([1.0, 1.0]), "<=", 5.0)],
                                   upper=[2.0, 4.0]))
    assert start.status == "optimal" and start.tableau[0].shape[0] == 3
    warm, cold = assert_warm_and_cold_agree(start.extend([(np.array([1.0, -1.0]), -1.0)]))
    np.testing.assert_allclose(warm.x, [2.0, 3.0], atol=1e-9)
    # three rows and one more, over the two variables, three slacks and the rhs
    assert warm.tableau[0].shape == cold.tableau[0].shape == (4, 6)


def test_an_appended_row_whose_reduced_rhs_is_negative():
    # max x with x + y <= 4 ends with x = 4 basic in that row; x - y = 1,
    # reduced by it, is -2y - s = -3, so the builder flips it to 2y + s = 3
    start = solve_lp(LinearProgram(np.array([1.0, 0.0]), [(np.array([1.0, 1.0]), "<=", 4.0)]))
    np.testing.assert_allclose(start.x, [4.0, 0.0], atol=1e-9)
    warm, _cold = assert_warm_and_cold_agree(start.extend([(np.array([1.0, -1.0]), 1.0)]))
    np.testing.assert_allclose(warm.x, [2.5, 1.5], atol=1e-9)


def test_only_a_result_with_a_final_tableau_can_be_extended():
    infeasible = solve_lp(LinearProgram(np.array([1.0]), [(np.array([1.0]), "<=", -1.0)]))
    assert infeasible.status == "infeasible" and infeasible.tableau is None
    with pytest.raises(InputError, match="final tableau"):
        infeasible.extend([(np.array([1.0]), 0.0)])


def test_a_warm_start_is_not_a_program_argument():
    start = solve_lp(LinearProgram(np.array([1.0]), [(np.array([1.0]), "<=", 3.0)]))
    with pytest.raises(TypeError):
        LinearProgram(np.array([1.0]), [], warm=start)
