"""Small dense linear program solver (two-phase primal simplex).

Built for the many small programs this package solves (dominance pruning and
switch tests): deterministic pivoting, explicit statuses, and explicit
numerical-failure errors rather than silent infeasibility.

Pricing enters the column of largest reduced cost (Dantzig's rule), which
takes far fewer pivots than the lowest-index rule on these programs. The
lowest-index rule (Bland's) is kept as the anti-cycling fallback: it takes
over after a run of degenerate pivots and cannot cycle, so every solve
terminates.

Every solve appends its program's rows to a tableau: an empty one, or for a
program that extends a solved one by equality rows (``LpResult.extend``),
that solution's final tableau. The appended rows are written in the start's
nonbasic columns and get slack and artificial columns; phase 1 drives out
the artificials and phase 2 goes on from the basis it leaves.

A program that only asks whether its optimum is above a threshold
(``LinearProgram.stop_above``) ends phase 2 at the first vertex whose
objective is above it, with status "stopped". A feasible point above the
threshold proves that the optimum is too; a program whose optimum is not
above it still runs to the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

import numpy as np

from .errors import InputError, NumericalError

FEAS_TOL = 1e-9
DEGENERATE_RUN = 50  # consecutive degenerate pivots before Bland's rule takes over
PIVOT_REL = 1e-3  # smallest tied pivot entry kept, relative to the largest
PIVOT_FLOOR = 1e-6  # smallest pivot entry, relative to its column's largest |entry|

LESS, EQUAL, GREATER = "<=", "=", ">="
_SWAPPED = {LESS: GREATER, EQUAL: EQUAL, GREATER: LESS}  # a row's relation once negated


@dataclass
class LinearProgram:
    """maximize objective . x subject to constraints, x >= 0.

    ``constraints`` is a list of (coefficients, relation, rhs) with relation
    one of "<=", "=", ">="; a finite ``upper`` entry adds a cap. A free
    variable is written by the caller as two columns, its positive and its
    negative part, whose entries are each other's negations.

    ``warm`` is set only by :meth:`LpResult.extend`: the result whose final
    tableau the solve appends this program's further rows to.

    ``stop_above``, when set, ends phase 2 at the first vertex whose
    objective is above it, with status "stopped".
    """

    objective: np.ndarray
    constraints: list
    upper: list | None = None
    stop_above: float | None = None

    warm: LpResult | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.shape[0]
        if self.upper is None:
            self.upper = [None] * n
        if len(self.upper) != n:
            raise InputError("bounds length does not match objective dimension")
        for coeffs, rel, _rhs in self.constraints:
            if np.asarray(coeffs).shape != (n,):
                raise InputError("constraint dimension does not match objective")
            if rel not in (LESS, EQUAL, GREATER):
                raise InputError(f"unknown relation {rel!r}")


@dataclass
class LpResult:
    # "optimal" | "infeasible" | "unbounded", or "stopped": phase 2 reached a
    # vertex whose objective is above the program's ``stop_above``, which x
    # is; its value may be below the optimum
    status: str
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0  # basis changes made, over both phases
    # when optimal or stopped: the program solved and its final (tableau,
    # basis), read-only
    program: LinearProgram | None = field(default=None, repr=False, compare=False)
    tableau: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False,
                                                          compare=False)

    def extend(self, rows) -> LinearProgram:
        """The solved program plus the list of equality rows ``(coefficients,
        rhs)``, whose solve starts from this result's final tableau. It shares
        this program's objective, bounds and threshold, which were checked
        when it was built."""
        if self.tableau is None:
            raise InputError("a warm start must carry a final tableau (an 'optimal' or "
                             f"'stopped' solve), not {self.status!r}")
        n = self.program.objective.shape[0]
        if any(np.asarray(coeffs).shape != (n,) for coeffs, _rhs in rows):
            raise InputError("constraint dimension does not match objective")
        # a shallow copy, made directly: copy.copy's generic protocol costs
        # several times as much, once per warm switch LP
        lp = LinearProgram.__new__(LinearProgram)
        lp.__dict__.update(vars(self.program))
        lp.constraints = lp.constraints + [(coeffs, EQUAL, rhs) for coeffs, rhs in rows]
        lp.warm = self
        return lp


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot on T[row, col], every row of T at once, its reduced costs
    included."""
    pivot_row = T[row]
    pivot_row /= pivot_row[col]
    factors = T[:, col:col + 1].copy()
    factors[row] = 0.0
    # a row whose factor is zero, signed or not, keeps its bits
    np.subtract(T, factors * pivot_row, out=T, where=factors != 0.0)
    basis[row] = col


def _leaving_row(T: np.ndarray, basis: np.ndarray, enter: int) -> tuple[int, float, bool]:
    """Minimum-ratio row for the entering column, its ratio, and whether its
    entry is under ``PIVOT_FLOOR`` times the column's largest |entry|; or
    (-1, inf, False) when the column has no entry above ``FEAS_TOL``.

    Rows tie when stepping to their ratio leaves every row's value above
    ``-FEAS_TOL`` (Harris's bound, so a tie never costs more than ``FEAS_TOL``
    of feasibility, however large the column's entries). A tie goes to the row
    whose basic column has the lowest index, unless that row's entry is
    below ``PIVOT_REL`` times the largest tied entry: then the tie goes to
    the lowest basic column among the tied rows whose entries are not.
    Dividing by an entry that small next to a usable one blows the tableau up.

    The tableau's last row, the reduced costs, takes no part. A column has
    one entry per row, a dozen or so, so the test runs over its Python
    floats, whose arithmetic is numpy's, one IEEE operation at a time.
    """
    column = T[:-1, enter].tolist()
    rhs = T[:-1, -1].tolist()
    rows, bound = [], inf
    for i, entry in enumerate(column):
        if entry > FEAS_TOL:
            rows.append(i)
            harris = (rhs[i] + FEAS_TOL) / entry
            if harris < bound:
                bound = harris
    if not rows:
        return -1, inf, False
    tied = [i for i in rows if rhs[i] / column[i] <= bound]
    if len(tied) > 1:
        floor = PIVOT_REL * max([column[i] for i in tied])
        tied = [i for i in tied if column[i] >= floor]
    leave = min(tied, key=basis.tolist().__getitem__) if len(tied) > 1 else tied[0]
    tiny = column[leave] < PIVOT_FLOOR * max(max(column), -min(column))
    return leave, rhs[leave] / column[leave], tiny


def _next_stable_column(T, basis, r, bland, first):
    """Entering column, leaving row and step once the pricing's ``first``
    choice would pivot under ``PIVOT_FLOOR``: the next improving column in
    pricing order whose pivot is not, or ``first`` when there is none.
    Dividing a row by a pivot that small next to the column's other
    entries floods the tableau with its inverse (Harris 1973)."""
    improving = np.flatnonzero(r > FEAS_TOL)
    if not bland:
        improving = improving[np.argsort(-r[improving], kind="stable")]
    for enter in improving.tolist():
        if enter != first[0]:
            leave, step, tiny = _leaving_row(T, basis, enter)
            if not tiny:
                return enter, leave, step
    return first


def _run_simplex(T, basis, cost, max_iter, stop_above=None):
    """Simplex on a canonical tableau whose last row holds the reduced
    costs; returns ("optimal" | "unbounded" | "stopped", pivots).

    Enters the column of largest reduced cost, lowest index on ties. After
    ``DEGENERATE_RUN`` consecutive degenerate pivots it enters the lowest-index
    improving column (Bland's rule) until a pivot moves the vertex again.
    A column whose pivot entry is under ``PIVOT_FLOOR`` of its largest entry
    gives way to the next improving column in that order. With ``stop_above``
    set, it returns "stopped" at the first vertex, the starting one included,
    whose objective in the tableau is above that threshold.
    """
    rows, r = T[:-1], T[-1, :-1]
    if r.size == 0:
        return "optimal", 0
    degenerate = 0
    for pivots in range(max_iter):
        if stop_above is not None and cost[basis] @ rows[:, -1] > stop_above:
            return "stopped", pivots
        if not pivots:
            # the starting vertex's reduced costs, once it has not stopped
            np.subtract(cost, cost[basis] @ rows[:, :-1], out=r)
        bland = degenerate >= DEGENERATE_RUN
        enter = int((r > FEAS_TOL if bland else r).argmax())
        if r[enter] <= FEAS_TOL:
            return "optimal", pivots
        leave, step, tiny = _leaving_row(T, basis, enter)
        if tiny:
            enter, leave, step = _next_stable_column(T, basis, r, bland, (enter, leave, step))
        if leave < 0:
            return "unbounded", pivots
        degenerate = degenerate + 1 if step <= FEAS_TOL else 0
        _pivot(T, basis, leave, enter)
    raise NumericalError(f"simplex did not converge within {max_iter} pivots")


def _tableau(lp: LinearProgram):
    """Initial tableau, basis and first artificial column: the rows the
    program's start lacks, appended below the start's tableau, then a row
    for the reduced costs. The start is ``lp.warm``'s final tableau, lacking
    the rows after its program's, or an empty one, lacking the constraints
    and a <= row per finite upper bound. A row with a negative right-hand
    side is flipped (swapping <= and >=). Each inequality gets a slack (<=)
    or surplus (>=) column and each row not <= an artificial, slacks first;
    a <= row's slack is basic, else its artificial.
    """
    n = lp.objective.shape[0]
    warm = lp.warm
    if warm is None:
        rows = lp.constraints + [(np.eye(1, n, j)[0], LESS, bound)
                                 for j, bound in enumerate(lp.upper) if bound is not None]
        m0, width = 0, n
    else:
        rows = lp.constraints[len(warm.program.constraints):]
        T0, basis0 = warm.tableau
        m0, width = T0.shape[0], T0.shape[1] - 1
    e = len(rows)
    coeffs, rels, rhs = zip(*rows) if rows else ((), (), ())
    rhs = [float(value) for value in rhs]
    # a row flips when its right-hand side, reduced by the start's rows, is
    # negative. A cold start reduces nothing, and a warm one appends only
    # equalities, which keep their columns when flipped: the width is known.
    flips = [value < 0.0 for value in rhs]
    equalities = rels.count(EQUAL)
    if warm is not None and equalities != e:
        raise InputError("a warm start appends equality rows only")
    art_start = width + e - equalities
    arts = sum([rel == EQUAL or (rel == LESS) == flip for rel, flip in zip(rels, flips)])
    T = np.zeros((m0 + e + 1, art_start + arts + 1))
    A, b = T[m0:-1, :width], T[m0:-1, -1]
    A[:, :n] = np.array(coeffs, dtype=float).reshape(e, n)
    b[:] = rhs
    if m0:
        T[:m0, :width] = T0[:, :-1]
        T[:m0, -1] = T0[:, -1]
        # subtract the basic columns' multiples of their rows; pivoting keeps
        # those columns exact unit vectors, so their entries cancel exactly
        coef = A[:, basis0]
        A -= coef @ T0[:, :-1]
        b -= coef @ T0[:, -1]
        flips = [value < 0.0 for value in b.tolist()]
    slack, art, basis = width, art_start, (basis0.tolist() if m0 else [])
    for i, rel, flip in zip(range(m0, m0 + e), rels, flips):
        if flip:
            np.negative(T[i, :width], out=T[i, :width])
            T[i, -1] = -T[i, -1]
            rel = _SWAPPED[rel]
        if rel != EQUAL:
            T[i, slack] = 1.0 if rel == LESS else -1.0
            if rel == LESS:
                basis.append(slack)
            slack += 1
        if rel != LESS:
            T[i, art] = 1.0
            basis.append(art)
            art += 1
    return T, np.array(basis, dtype=np.intp), art_start


def solve_lp(lp: LinearProgram) -> LpResult:
    """Solve the program; statuses are explicit and pivoting is deterministic.

    Phase 1 maximizes minus the sum of the artificial columns, phase 2 the
    objective, both from the basis :func:`_tableau` starts with.
    """
    T, basis, art_start = _tableau(lp)
    m, total = T.shape[0] - 1, T.shape[1] - 1

    max_iter = 10_000 + 200 * (m + total)
    pivots = 0

    if art_start < total:
        cost1 = np.zeros(total)
        cost1[art_start:] = -1.0
        status, pivots = _run_simplex(T, basis, cost1, max_iter)
        if status != "optimal":
            raise NumericalError("phase-1 simplex reported unbounded; program is malformed")
        if float(cost1[basis] @ T[:-1, -1]) < -FEAS_TOL:
            return LpResult("infeasible", pivots=pivots)
        # drive remaining artificials out of the basis or drop redundant rows
        basic = [i for i, j in enumerate(basis.tolist()) if j >= art_start]
        if basic:
            keep = np.ones(m + 1, dtype=bool)
            for i in basic:
                pivot_cols = np.flatnonzero(np.abs(T[i, :art_start]) > FEAS_TOL)
                if pivot_cols.size:
                    _pivot(T, basis, i, int(pivot_cols[0]))
                    pivots += 1
                else:
                    keep[i] = False
            if not keep.all():
                T, basis = T[keep], basis[keep[:-1]]
        # the right-hand side moves into the first artificial column, and the
        # tableau ends there
        T[:, art_start] = T[:, -1]
        T = T[:, :art_start + 1]

    cost2 = np.zeros(T.shape[1] - 1)
    cost2[:lp.objective.shape[0]] = lp.objective
    status, phase2 = _run_simplex(T, basis, cost2, max_iter, lp.stop_above)
    pivots += phase2
    if status == "unbounded":
        return LpResult("unbounded", pivots=pivots)

    T = T[:-1]
    # every column's value at the final basis; x is the program's columns
    full = np.zeros(T.shape[1])
    full[basis] = T[:, -1]
    x = full[:lp.objective.shape[0]]
    T.setflags(write=False)
    basis.setflags(write=False)
    return LpResult(status, x, float(lp.objective @ x), pivots, lp, (T, basis))
