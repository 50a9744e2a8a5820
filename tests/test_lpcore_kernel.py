"""The simplex kernel's ratio test and pivot, bit for bit against reference
copies written with one numpy operation per step over whole columns.

The kernel keeps the reduced costs as the tableau's last row and runs its
ratio test over Python floats; the references take the constraint rows and
the reduced costs apart and do the same arithmetic in numpy. Both must pick
the same row, report the same ratio and flag, and leave the same bits in
every entry, signed zeros included.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from beliefproj import lpcore  # noqa: E402
from beliefproj.lpcore import FEAS_TOL, PIVOT_FLOOR, PIVOT_REL  # noqa: E402


def reference_leaving_row(T, basis, enter):
    column = T[:, enter]
    rows = (column > FEAS_TOL).nonzero()[0]
    if rows.size == 0:
        return -1, np.inf, False
    entries = column[rows]
    rhs = T[rows, -1]
    ratios = rhs / entries
    tied = (ratios <= ((rhs + FEAS_TOL) / entries).min()).nonzero()[0]
    if tied.size > 1:
        tied = tied[entries[tied] >= PIVOT_REL * entries[tied].max()]
    k = tied[basis[rows[tied]].argmin()] if tied.size > 1 else tied[0]
    tiny = entries[k] < PIVOT_FLOOR * np.abs(column).max()
    return int(rows[k]), float(ratios[k]), tiny


def reference_pivot(T, r, basis, row, col):
    pivot_row = T[row]
    pivot_row /= pivot_row[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    others = factors.nonzero()[0]
    T[others] -= factors[others, np.newaxis] * pivot_row
    if r[col] != 0.0:
        r -= r[col] * pivot_row[:-1]
    basis[row] = col


# repeated values make ratio ties; both zeros and a tiny entry next to large
# ones reach the signed-zero and PIVOT_FLOOR paths. No entry is so small that
# dividing by it overflows.
values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-9, 2e-9, 1e-8, 1e3]),
                   st.integers(-10**6, 10**6).map(lambda k: k / 1024),
                   st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6))


@st.composite
def tableaux(draw):
    """(T with the reduced costs as its last row, basis): m rows over m + k
    columns and a nonnegative right-hand side, basic columns distinct."""
    m = draw(st.integers(1, 6))
    width = m + draw(st.integers(1, 5))
    entries = draw(st.lists(values, min_size=(m + 1) * (width + 1),
                            max_size=(m + 1) * (width + 1)))
    T = np.array(entries).reshape(m + 1, width + 1)
    T[:-1, -1] = np.abs(T[:-1, -1])
    T[-1, -1] = 0.0
    basis = np.array(draw(st.permutations(range(width)))[:m], dtype=np.intp)
    return T, basis


def bits(array):
    return array.tobytes()


@settings(max_examples=200, deadline=None)
@given(tableaux())
def test_ratio_test_matches_the_numpy_reference(case):
    T, basis = case
    for enter in range(T.shape[1] - 1):
        got = lpcore._leaving_row(T, basis, enter)
        want = reference_leaving_row(T[:-1], basis, enter)
        assert got[0] == want[0] and got[2] == want[2]
        assert bits(np.float64(got[1])) == bits(np.float64(want[1]))


def test_the_ratio_test_flags_a_tiny_pivot_and_breaks_ties_by_basic_column():
    # one eligible row, 1e-8 next to a column entry of 100: under PIVOT_FLOOR
    T = np.array([[1e-8, 0.0], [-100.0, 1.0], [0.0, 0.0]])
    assert lpcore._leaving_row(T, np.array([1, 0]), 0) == (0, 0.0, True)
    # three rows tie at ratio 0; the lowest basic column among those whose
    # entries are at least PIVOT_REL of the largest tied entry wins
    T = np.array([[1e-4, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
    assert lpcore._leaving_row(T, np.array([5, 9, 7]), 0) == (2, 0.0, False)
    assert reference_leaving_row(T[:-1], np.array([5, 9, 7]), 0) == (2, 0.0, False)


@settings(max_examples=200, deadline=None)
@given(tableaux(), st.data())
def test_pivot_matches_the_numpy_reference(case, data):
    T, basis = case
    m, width = T.shape[0] - 1, T.shape[1] - 1
    candidates = [(i, j) for i in range(m) for j in range(width) if T[i, j] != 0.0]
    if not candidates:
        return
    row, col = data.draw(st.sampled_from(candidates))
    got, got_basis = T.copy(), basis.copy()
    lpcore._pivot(got, got_basis, row, col)
    want, r, want_basis = T[:-1].copy(), T[-1, :-1].copy(), basis.copy()
    reference_pivot(want, r, want_basis, row, col)
    assert bits(got[:-1]) == bits(want)
    assert bits(got[-1, :-1]) == bits(r)
    assert bits(got_basis) == bits(want_basis)


def test_pivot_keeps_the_bits_of_rows_whose_factor_is_a_signed_zero():
    T = np.array([[2.0, -4.0, -0.0, 6.0],
                  [-0.0, -0.0, 5.0, -0.0],
                  [0.0, 3.0, -0.0, 1.0],
                  [-0.0, 1.0, 2.0, 0.0]])
    got, basis = T.copy(), np.array([0, 2, 1], dtype=np.intp)
    lpcore._pivot(got, basis, 0, 0)
    want, r = T[:-1].copy(), T[-1, :-1].copy()
    reference_pivot(want, r, np.array([0, 2, 1], dtype=np.intp), 0, 0)
    assert bits(got[:-1]) == bits(want) and bits(got[-1, :-1]) == bits(r)
    # rows 1 and 2 and the reduced costs had zero factors: untouched
    assert bits(got[1:]) == bits(T[1:])
