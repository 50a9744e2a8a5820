"""Exact-arithmetic referee for ``beliefproj.lpcore.LinearProgram``.

Every float is a rational, so a program's float entries, read as
``fractions.Fraction``, define an exact program whose status and optimum
no rounding can blur. ``solve_exact`` finds them with a two-phase simplex
over the rationals under Bland's rule (the lowest-index improving column
enters; among the rows of least ratio the one whose basic column has the
lowest index leaves), which cannot cycle. It ignores ``stop_above`` and
always solves to the optimum. It is slow (tens of milliseconds for a
program of a few dozen columns) and meant for small programs in tests.
"""

from __future__ import annotations

from fractions import Fraction

from beliefproj.lpcore import EQUAL, LESS


def _pivot(T: list, basis: list, row: int, col: int) -> None:
    pivot = T[row][col]
    T[row] = [value / pivot for value in T[row]]
    for i, other in enumerate(T):
        factor = other[col]
        if i != row and factor:
            T[i] = [a - factor * b for a, b in zip(other, T[row])]
    basis[row] = col


def _simplex(T: list, basis: list, cost: list, columns: range) -> str:
    """Maximize ``cost`` over the rows ``T`` (each ending in its right-hand
    side) from the feasible ``basis``, entering only ``columns``: "optimal"
    or "unbounded"."""
    while True:
        basic = set(basis)
        for col in columns:
            if col not in basic and cost[col] > sum(cost[b] * T[i][col]
                                                    for i, b in enumerate(basis)):
                break
        else:
            return "optimal"
        ratios = [(T[i][-1] / T[i][col], basis[i], i) for i in range(len(T)) if T[i][col] > 0]
        if not ratios:
            return "unbounded"
        _pivot(T, basis, min(ratios)[2], col)


def solve_exact(lp) -> tuple[str, Fraction | None]:
    """(status, exact optimum) of ``lp``: "optimal" with its value, or
    "infeasible" or "unbounded" with None."""
    n = lp.objective.shape[0]
    rows = [([Fraction(float(a)) for a in coeffs], rel, Fraction(float(rhs)))
            for coeffs, rel, rhs in lp.constraints]
    rows += [([Fraction(int(i == j)) for i in range(n)], LESS, Fraction(float(bound)))
             for j, bound in enumerate(lp.upper) if bound is not None]
    flipped = {LESS: ">=", ">=": LESS, EQUAL: EQUAL}
    rows = [([-a for a in coeffs], flipped[rel], -rhs) if rhs < 0 else (coeffs, rel, rhs)
            for coeffs, rel, rhs in rows]
    slacks = [i for i, (_c, rel, _r) in enumerate(rows) if rel != EQUAL]
    arts = [i for i, (_c, rel, _r) in enumerate(rows) if rel != LESS]
    art_start = n + len(slacks)
    width = art_start + len(arts)
    T, basis = [], []
    for i, (coeffs, rel, rhs) in enumerate(rows):
        row = coeffs + [Fraction(0)] * (width - n) + [rhs]
        if rel != EQUAL:
            row[n + slacks.index(i)] = Fraction(1 if rel == LESS else -1)
        if rel == LESS:
            basis.append(n + slacks.index(i))
        else:
            row[art_start + arts.index(i)] = Fraction(1)
            basis.append(art_start + arts.index(i))
        T.append(row)

    phase1 = [Fraction(0)] * art_start + [Fraction(-1)] * len(arts)
    _simplex(T, basis, phase1, range(width))
    if sum(phase1[b] * T[i][-1] for i, b in enumerate(basis)) < 0:
        return "infeasible", None
    # an artificial still basic is at zero: swap it for a real column, or
    # drop its row, which the others imply
    for i in reversed(range(len(T))):
        if basis[i] >= art_start:
            col = next((j for j in range(art_start) if T[i][j]), None)
            if col is None:
                del T[i], basis[i]
            else:
                _pivot(T, basis, i, col)

    phase2 = [Fraction(float(c)) for c in lp.objective] + [Fraction(0)] * (width - n)
    if _simplex(T, basis, phase2, range(art_start)) == "unbounded":
        return "unbounded", None
    return "optimal", sum(phase2[b] * T[i][-1] for i, b in enumerate(basis))
