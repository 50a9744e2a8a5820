"""``solve_lp`` against the exact referee of ``exact_lp.py`` on cold witness
and switch programs of n <= 3 variables.

Whenever a program's exact optimum lies farther than ``MARGIN`` from the
tolerance its caller decides by (``DOMINANCE_TOL`` for a witness,
``SWITCH_TOL`` for a switch), ``solve_lp`` must report the exact status,
a stop counting as "optimal", and the exact decision. Programs inside the
margin are counted and printed, not asserted; every tenth seed builds one
on purpose, so the count is not empty by construction.
"""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from beliefproj import LinearProgram, ProjectionScheme, bounds, lpcore, solver
from beliefproj.bounds import SWITCH_TOL
from beliefproj.solver import DOMINANCE_TOL

from conftest import captured_lp, random_partition
from exact_lp import solve_exact

SEEDS = 100  # two programs each; about 1 s of exact pivots in all
# entries lie in [-1, 1], so rounding moves an optimum by about 1e-15; the
# margin keeps every exact tie at 0, 1e-9 and 1e-7 from either tolerance
# asserted, and holds only the programs built to sit on a tolerance
MARGIN = 1e-10


def entries(rng, size):
    """Floats in [-1, 1], half of them from a few repeated values, so that
    ties and degenerate vertices are common."""
    values = rng.uniform(-1.0, 1.0, size)
    repeated = rng.random(size) < 0.5
    values[repeated] = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], int(repeated.sum()))
    return values


@pytest.fixture(scope="module")
def cases():
    """(name, program, tolerance, exact status, exact optimum) per program."""
    programs = []
    for seed in range(SEEDS):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        dim = 1 << n
        target = entries(rng, dim)
        others = [entries(rng, dim) for _ in range(int(rng.integers(1, 7)))]
        alpha_i, alpha_j = entries(rng, dim), entries(rng, dim)
        blocks = random_partition(n, rng)
        if seed % 10 == 0:
            # optimum DOMINANCE_TOL, up to the rounding of target's entries
            others = [target - DOMINANCE_TOL]
            # beliefs on the even and the odd states share every variable's
            # marginal, so the margin reaches SWITCH_TOL exactly (n >= 2)
            parity = np.array([bin(s).count("1") % 2 for s in range(dim)])
            alpha_i, alpha_j = SWITCH_TOL * (1 - 2 * parity), np.zeros(dim)
            blocks = tuple((v,) for v in range(n))
        scheme = ProjectionScheme(blocks)
        programs += [
            (f"witness program, seed {seed}, n={n}", DOMINANCE_TOL,
             captured_lp(solver, lambda: solver._witness(target, others))),
            (f"switch program, seed {seed}, n={n}, blocks {blocks}", SWITCH_TOL,
             captured_lp(bounds, lambda: bounds.lp_switch_test(alpha_i, alpha_j, scheme)))]
    return [(name, lp, tol, *solve_exact(lp)) for name, tol, lp in programs]


def differential(cases) -> int:
    """Fail naming every program whose ``lpcore.solve_lp`` status or
    decision is not the exact one; returns how many lay inside the margin."""
    inside, failures = 0, []
    for name, lp, tol, status, optimum in cases:
        if status == "optimal" and abs(optimum - tol) <= MARGIN:
            inside += 1
            continue
        result = lpcore.solve_lp(lp)
        ours = ("optimal" if result.status == "stopped" else result.status,
                result.status == "stopped"
                or (result.status == "optimal" and result.value > tol))
        exact = (status, status == "optimal" and optimum > tol)
        if ours != exact:
            failures.append(f"{name}: solve_lp gives {ours}, the exact solve {exact} "
                            f"(optimum {float(optimum)!r}, tolerance {tol})")
    assert not failures, "\n".join(failures)
    return inside


def test_solve_lp_decides_as_the_exact_optimum(cases):
    inside = differential(cases)
    print(f"{inside} of {len(cases)} programs within {MARGIN} of their tolerance, not asserted")
    assert 0 < inside < len(cases) // 10


def test_a_flipped_decision_fails_the_differential_naming_the_program(cases, monkeypatch):
    name, flipped_lp, tol, _status, optimum = next(
        case for case in cases if abs(case[4] - case[2]) > MARGIN)
    solve_lp = lpcore.solve_lp

    def flipping(lp):
        result = solve_lp(lp)
        if lp is flipped_lp:
            return replace(result, status="optimal", value=0.0 if optimum > tol else 1.0)
        return result

    monkeypatch.setattr(lpcore, "solve_lp", flipping)
    with pytest.raises(AssertionError, match=re.escape(name)):
        differential(cases)


@pytest.mark.parametrize("objective,constraints,upper,expected", [
    ([1.0], [([3.0], "<=", 1.0)], None, ("optimal", Fraction(1, 3))),
    ([1.0], [([1.0], ">=", 2.0), ([1.0], "<=", 1.0)], None, ("infeasible", None)),
    ([1.0], [([1.0], ">=", 1.0)], None, ("unbounded", None)),
    ([1.0, 1.0], [([1.0, 1.0], "=", 1.0), ([2.0, 2.0], "=", 2.0)], None, ("optimal", 1)),
    ([-1.0, 2.0], [([1.0, -1.0], ">=", -0.5)], [None, 0.1], ("optimal", Fraction(0.1) * 2)),
], ids=["fraction", "infeasible", "unbounded", "redundant-row", "upper-bound"])
def test_exact_referee_on_hand_solved_programs(objective, constraints, upper, expected):
    lp = LinearProgram(np.array(objective), [(np.array(c), rel, rhs) for c, rel, rhs in constraints],
                       upper=upper)
    assert solve_exact(lp) == expected
