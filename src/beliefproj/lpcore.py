"""Small dense linear program solver (two-phase primal simplex).

Built for the many small programs this package solves (dominance pruning and
switch tests): deterministic pivoting, explicit statuses, and explicit
numerical-failure errors rather than silent infeasibility.

Pricing enters the column of largest reduced cost (Dantzig's rule), which
takes far fewer pivots than the lowest-index rule on these programs. The
lowest-index rule (Bland's) is kept as the anti-cycling fallback: it takes
over after a run of degenerate pivots and cannot cycle, so every solve
terminates.

A program that extends a solved one by equality rows can start from that
solution (``LinearProgram.warm``). The new rows are appended to the solved
program's final tableau and written in its nonbasic columns, each with one
artificial column; phase 1 then drives out only those artificials and phase
2 resumes from the basis it leaves. Both phases run the same simplex as a
cold solve, with the same pricing, fallback and tie-breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

FEAS_TOL = 1e-9
DEGENERATE_RUN = 50  # consecutive degenerate pivots before Bland's rule takes over
PIVOT_REL = 1e-3  # smallest tied pivot entry kept, relative to the largest
PIVOT_FLOOR = 1e-6  # smallest pivot entry, relative to its column's largest |entry|

LESS, EQUAL, GREATER = "<=", "=", ">="


@dataclass
class LinearProgram:
    """maximize objective . x subject to constraints and variable bounds.

    ``constraints`` is a list of (coefficients, relation, rhs) with relation
    one of "<=", "=", ">=". Bounds default to [0, +inf) per variable; a lower
    bound of None makes the variable free, a finite upper adds a cap.

    ``warm`` optionally holds the optimal :class:`LpResult` of a program with
    the same objective and bounds whose constraints are a prefix of these;
    every constraint past that prefix must be an equality. The solve then
    starts from that result's final tableau.
    """

    objective: np.ndarray
    constraints: list
    lower: list | None = None
    upper: list | None = None
    warm: LpResult | None = field(default=None, repr=False)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.shape[0]
        if self.lower is None:
            self.lower = [0.0] * n
        if self.upper is None:
            self.upper = [None] * n
        if len(self.lower) != n or len(self.upper) != n:
            raise InputError("bounds length does not match objective dimension")
        for coeffs, rel, _rhs in self.constraints:
            if np.asarray(coeffs).shape != (n,):
                raise InputError("constraint dimension does not match objective")
            if rel not in (LESS, EQUAL, GREATER):
                raise InputError(f"unknown relation {rel!r}")


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    pivots: int = 0  # basis changes made, over both phases
    # when optimal: the program solved and its final (tableau, basis), read-only
    program: LinearProgram | None = field(default=None, repr=False, compare=False)
    tableau: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False,
                                                          compare=False)


def _pivot(T: np.ndarray, r: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = T[row]
    pivot_row /= pivot_row[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    others = factors.nonzero()[0]
    T[others] -= factors[others, np.newaxis] * pivot_row
    if r[col] != 0.0:
        r -= r[col] * pivot_row[:-1]
    basis[row] = col


def _leaving_row(T: np.ndarray, basis: np.ndarray, enter: int,
                 tol: float) -> tuple[int, float, bool]:
    """Minimum-ratio row for the entering column, its ratio, and whether its
    entry is under ``PIVOT_FLOOR`` times the column's largest |entry|; or
    (-1, inf, False) when the column has no entry above ``tol``.

    Rows tie when stepping to their ratio leaves every row's value above
    ``-tol`` (Harris's bound, so a tie never costs more than ``tol`` of
    feasibility, however large the column's entries). A tie goes to the row
    whose basic column has the lowest index, unless that row's entry is
    below ``PIVOT_REL`` times the largest tied entry: then the tie goes to
    the lowest basic column among the tied rows whose entries are not.
    Dividing by an entry that small next to a usable one blows the tableau up.
    """
    column = T[:, enter]
    rows = (column > tol).nonzero()[0]
    if rows.size == 0:
        return -1, np.inf, False
    entries = column[rows]
    rhs = T[rows, -1]
    ratios = rhs / entries
    tied = (ratios <= ((rhs + tol) / entries).min()).nonzero()[0]
    if tied.size > 1:
        tied = tied[entries[tied] >= PIVOT_REL * entries[tied].max()]
    k = tied[basis[rows[tied]].argmin()] if tied.size > 1 else tied[0]
    tiny = entries[k] < PIVOT_FLOOR * np.abs(column).max()
    return int(rows[k]), float(ratios[k]), tiny


def _next_stable_column(T, basis, r, tol, bland, first):
    """Entering column, leaving row and step once the pricing's ``first``
    choice would pivot under ``PIVOT_FLOOR``: the next improving column in
    pricing order whose pivot is not, or ``first`` when there is none.
    Dividing a row by a pivot that small next to the column's other
    entries floods the tableau with its inverse (Harris 1973)."""
    improving = np.flatnonzero(r > tol)
    if not bland:
        improving = improving[np.argsort(-r[improving], kind="stable")]
    for enter in improving.tolist():
        if enter != first[0]:
            leave, step, tiny = _leaving_row(T, basis, enter, tol)
            if not tiny:
                return enter, leave, step
    return first


def _run_simplex(T, basis, cost, tol, max_iter):
    """Simplex on a canonical tableau; returns ("optimal" | "unbounded", pivots).

    Enters the column of largest reduced cost, lowest index on ties. After
    ``DEGENERATE_RUN`` consecutive degenerate pivots it enters the lowest-index
    improving column (Bland's rule) until a pivot moves the vertex again.
    A column whose pivot entry is under ``PIVOT_FLOOR`` of its largest entry
    gives way to the next improving column in that order.
    """
    r = cost - (cost[basis] @ T[:, :-1] if len(basis) else 0.0)
    if r.size == 0:
        return "optimal", 0
    degenerate = 0
    for pivots in range(max_iter):
        bland = degenerate >= DEGENERATE_RUN
        enter = int((r > tol if bland else r).argmax())
        if r[enter] <= tol:
            return "optimal", pivots
        leave, step, tiny = _leaving_row(T, basis, enter, tol)
        if tiny:
            enter, leave, step = _next_stable_column(T, basis, r, tol, bland,
                                                     (enter, leave, step))
        if leave < 0:
            return "unbounded", pivots
        degenerate = degenerate + 1 if step <= tol else 0
        _pivot(T, r, basis, leave, enter)
    raise NumericalError(f"simplex did not converge within {max_iter} pivots")


def _cold_tableau(lp: LinearProgram, free, shift, col_plus, col_minus):
    """Initial tableau, basis and first artificial column of a solve from
    scratch: a slack basis plus one artificial per row that is not <=."""
    n = lp.objective.shape[0]
    capped = [j for j in range(n) if lp.upper[j] is not None]

    # constraint rows, then one <= row per finite upper bound, in shifted space
    k = len(lp.constraints)
    m = k + len(capped)
    C = np.zeros((m, n))
    b = np.zeros(m)
    if k:
        C[:k] = [coeffs for coeffs, _rel, _rhs in lp.constraints]
        b[:k] = [float(rhs) for _coeffs, _rel, rhs in lp.constraints]
    C[np.arange(k, m), capped] = 1.0
    b[k:] = [float(lp.upper[j]) for j in capped]
    b -= C @ shift
    rels = [rel for _coeffs, rel, _rhs in lp.constraints] + [LESS] * len(capped)
    less = np.array([rel == LESS for rel in rels], dtype=bool)
    equal = np.array([rel == EQUAL for rel in rels], dtype=bool)
    # a negative right-hand side flips its row and swaps <= with >=
    neg = b < 0.0
    C[neg] = -C[neg]
    b[neg] = -b[neg]
    less = np.where(neg, ~less & ~equal, less)

    # slack (<=) or surplus (>=) column per inequality, artificial per row not <=
    ncols = n + int(free.sum())
    art_start = ncols + int(np.count_nonzero(~equal))
    total = art_start + int(np.count_nonzero(~less))
    slack = ncols + np.cumsum(~equal) - 1
    art = art_start + np.cumsum(~less) - 1
    rows = np.arange(m)
    T = np.zeros((m, total + 1))
    T[:, col_plus] = C
    T[:, col_minus] = -C[:, free]
    T[:, -1] = b
    T[rows[~equal], slack[~equal]] = np.where(less, 1.0, -1.0)[~equal]
    T[rows[~less], art[~less]] = 1.0
    basis = np.where(less, slack, art)
    return T, basis, art_start


def _same_row(got, want) -> bool:
    return got is want or (got[1] == want[1] and float(got[2]) == float(want[2])
                           and np.array_equal(got[0], want[0]))


def _warm_tableau(lp: LinearProgram, free, shift, col_plus, col_minus):
    """Initial tableau, basis and first artificial column of a solve that
    starts from ``lp.warm``: its final tableau with the new equality rows
    below, each written in the nonbasic columns and given an artificial."""
    warm = lp.warm
    if warm.tableau is None:
        raise InputError(f"a warm start must be an optimal solve, not {warm.status!r}")
    base = warm.program
    k = len(base.constraints)
    if len(lp.constraints) < k or not all(map(_same_row, lp.constraints, base.constraints)):
        raise InputError("the warm start's constraints are not a prefix of the program's")
    if not (np.array_equal(lp.objective, base.objective) and list(lp.lower) == list(base.lower)
            and list(lp.upper) == list(base.upper)):
        raise InputError("the warm start solved a program with another objective or bounds")
    extra = lp.constraints[k:]
    if any(rel != EQUAL for _coeffs, rel, _rhs in extra):
        raise InputError("a warm start can only be extended by equality rows")

    T0, basis0 = warm.tableau
    m0, width = T0.shape[0], T0.shape[1] - 1
    e = len(extra)
    C = np.array([coeffs for coeffs, _rel, _rhs in extra], dtype=float).reshape(e, len(free))
    A = np.zeros((e, width))
    A[:, col_plus] = C
    A[:, col_minus] = -C[:, free]
    b = np.array([float(rhs) for _coeffs, _rel, rhs in extra]) - C @ shift
    # subtract the basic columns' multiples of their rows; pivoting keeps
    # those columns exact unit vectors, so their entries cancel exactly
    coef = A[:, basis0]
    A -= coef @ T0[:, :-1]
    b -= coef @ T0[:, -1]
    neg = b < 0.0
    A[neg] = -A[neg]
    b[neg] = -b[neg]

    T = np.zeros((m0 + e, width + e + 1))
    T[:m0, :width] = T0[:, :-1]
    T[:m0, -1] = T0[:, -1]
    T[m0:, :width] = A
    T[m0:, width:-1] = np.eye(e)
    T[m0:, -1] = b
    basis = np.concatenate([basis0, width + np.arange(e)])
    return T, basis, width


def solve_lp(lp: LinearProgram, tol: float = FEAS_TOL) -> LpResult:
    """Solve the program; statuses are explicit and pivoting is deterministic.

    Phase 1 maximizes minus the sum of the artificial columns, phase 2 the
    objective. With ``lp.warm`` set, only the appended rows carry
    artificials, and the solved program's basis is where pivoting starts.
    """
    n = lp.objective.shape[0]
    free = np.array([lo is None for lo in lp.lower], dtype=bool)
    shift = np.array([0.0 if lo is None else float(lo) for lo in lp.lower])
    # free variables split into a positive part and a negative part next to it
    col_plus = np.arange(n) + np.cumsum(free) - free
    col_minus = col_plus[free] + 1
    build = _cold_tableau if lp.warm is None else _warm_tableau
    T, basis, art_start = build(lp, free, shift, col_plus, col_minus)
    m, total = T.shape[0], T.shape[1] - 1

    max_iter = 10_000 + 200 * (m + total)
    pivots = 0

    if art_start < total:
        cost1 = np.zeros(total)
        cost1[art_start:] = -1.0
        status, pivots = _run_simplex(T, basis, cost1, tol, max_iter)
        if status != "optimal":
            raise NumericalError("phase-1 simplex reported unbounded; program is malformed")
        if float(cost1[basis] @ T[:, -1]) < -tol:
            return LpResult("infeasible", pivots=pivots)
        # drive remaining artificials out of the basis or drop redundant rows
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= art_start):
            pivot_cols = np.flatnonzero(np.abs(T[i, :art_start]) > tol)
            if pivot_cols.size:
                _pivot(T, np.zeros(total), basis, i, int(pivot_cols[0]))
                pivots += 1
            else:
                keep[i] = False
        T = np.delete(T[keep], np.s_[art_start:total], axis=1)
        basis = basis[keep]

    cost2 = np.zeros(T.shape[1] - 1)
    cost2[col_plus] = lp.objective
    cost2[col_minus] = -lp.objective[free]
    status, phase2 = _run_simplex(T, basis, cost2, tol, max_iter)
    pivots += phase2
    if status == "unbounded":
        return LpResult("unbounded", pivots=pivots)

    full = np.zeros(T.shape[1] - 1)
    full[basis] = T[:, -1]
    x = shift + full[col_plus]
    x[free] -= full[col_minus]
    T.setflags(write=False)
    basis.setflags(write=False)
    return LpResult("optimal", x, float(lp.objective @ x), pivots, lp, (T, basis))
