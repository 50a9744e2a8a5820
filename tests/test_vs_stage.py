"""The stage-level VS pass against the per-pair reference test.

``stage_switch_sets(..., "VS")`` decides every pair of a stage from one
unnormalised Walsh transform of the stage matrix; ``vs_switch_test`` on
``build_basis`` of the row's scheme is the reference it must equal, pair for
pair. The property test's rows hold small dyadic numbers, so the transform
is exact and every true residual is either 0 or far above the tolerance:
the two computations then cannot disagree through rounding at the
threshold. The edge cases add float rows and pairs at 4 and 1/4 times the
tolerance.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from beliefproj import (ProjectionScheme, build_basis, lattice_root,  # noqa: E402
                        vs_switch_test, walsh_transform, walsh_vector)
from beliefproj.bounds import SWITCH_TOL, stage_switch_sets  # noqa: E402
from beliefproj.solver import AlphaSet  # noqa: E402

STAGE = 2


def as_set(matrix):
    m = len(matrix)
    return AlphaSet(STAGE, np.asarray(matrix, dtype=float), np.zeros(m, dtype=np.intp),
                    np.zeros((m, 1), dtype=np.intp))


def reference(aset, schemes, candidates=None):
    """Switch sets and tested pairs of the per-pair loop: row i tests every
    candidate j != i under its own scheme, except a j < i of the same scheme,
    whose decision at (j, i) stands."""
    m = len(aset)
    sets, tested = [set() for _ in range(m)], {}
    for i, j in itertools.permutations(range(m), 2):
        if candidates is not None and (min(i, j), max(i, j)) not in candidates:
            continue
        if j < i and schemes[j] == schemes[i]:
            switches = i in sets[j]
        else:
            tested[(i, j)] = vs_switch_test(aset.matrix[i], aset.matrix[j],
                                            build_basis(schemes[i]))
            switches = tested[(i, j)].switches
        if switches:
            sets[i].add(j)
    return [tuple(sorted(s)) for s in sets], tested


def check_against_reference(aset, schemes, source, candidates=None):
    decisions = {}
    got = stage_switch_sets(aset, source, "VS", candidates=candidates, decisions=decisions)
    expected, tested = reference(aset, schemes, candidates)
    assert got == expected
    assert list(decisions) == list(tested)
    for pair, decision in decisions.items():
        assert decision.switches == tested[pair].switches, pair
        assert decision.objective == pytest.approx(tested[pair].objective, rel=1e-9, abs=1e-9)
    return got


@st.composite
def partitions(draw, n):
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for variable, label in enumerate(labels):
        blocks.setdefault(label, []).append(variable)
    return ProjectionScheme(tuple(map(tuple, blocks.values())))


@st.composite
def stages(draw):
    """A stage matrix whose rows are fresh small dyadic rows, copies of an
    earlier row, or an earlier row plus a constant; one scheme per row."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 6))
    dim = 1 << n
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("fresh", "copy", "shift")) if rows else st.just("fresh"))
        if kind == "fresh":
            rows.append(np.array(draw(st.lists(st.integers(-4, 4), min_size=dim,
                                               max_size=dim)), dtype=float) / 4)
        else:
            base = rows[draw(st.integers(0, len(rows) - 1))]
            shift = draw(st.integers(-8, 8)) / 2 if kind == "shift" else 0.0
            rows.append(base + shift)
    schemes = [draw(partitions(n)) for _ in range(m)]
    return as_set(np.stack(rows)), schemes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stage_decisions_equal_the_per_pair_reference(data):
    aset, schemes = data.draw(stages())
    m = len(aset)
    # one global scheme, and the drawn schemes as a per-region source
    check_against_reference(aset, [schemes[0]] * m, schemes[0])
    source = {(STAGE, i): scheme for i, scheme in enumerate(schemes)}
    check_against_reference(aset, schemes, source)
    pairs = list(itertools.combinations(range(m), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    check_against_reference(aset, schemes, source, dict.fromkeys(chosen))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7])
def test_edge_cases_decide_as_the_reference(n):
    dim = 1 << n
    rng = np.random.default_rng(n)
    row = rng.normal(size=dim)
    other = rng.normal(size=dim)
    one_block = ProjectionScheme.full(n)
    root = lattice_root(n)
    # a single row has no pair to test
    assert check_against_reference(as_set([row]), [root], root) == [()]
    # equal rows and rows that differ by a constant never switch
    flat = as_set([row, row, row + 2.5, row - 0.1])
    assert check_against_reference(flat, [root] * 4, root) == [()] * 4
    # the one-block scheme preserves every marginal, so nothing switches, and
    # with no mask outside its family every residual is exactly 0
    mixed = as_set([row, other, row + other, 3.0 * other])
    decisions = {}
    assert stage_switch_sets(mixed, one_block, "VS", decisions=decisions) == [()] * 4
    assert len(decisions) == 6 and all(d.objective == 0.0 for d in decisions.values())
    assert check_against_reference(mixed, [one_block] * 4, one_block) == [()] * 4
    check_against_reference(mixed, [root] * 4, root)
    if n > 1:
        # a residual of 4 and of 1/4 times the tolerance, relative to |d|^2
        for factor, expected in ((4.0, [(1,), (0,)]), (0.25, [(), ()])):
            eps = SWITCH_TOL * factor ** 0.5
            pair = as_set([walsh_vector(1, n) + eps * walsh_vector(0b11, n), np.zeros(dim)])
            assert check_against_reference(pair, [root] * 2, root) == expected


def test_walsh_transform_gives_every_parity_coordinate(rng):
    for n in range(1, 8):
        matrix = rng.normal(size=(3, 1 << n))
        coefficients = walsh_transform(matrix)
        for mask in range(1 << n):
            scaled = matrix @ walsh_vector(mask, n) * 2.0 ** (n / 2)
            np.testing.assert_allclose(coefficients[:, mask], scaled, rtol=1e-12, atol=1e-12)
    integers = rng.integers(-9, 10, size=(4, 32))
    states = np.arange(32)
    signs = np.array([[(-1) ** bin(s & mask).count("1") for s in states] for mask in states])
    assert np.array_equal(walsh_transform(integers), integers @ signs.T)


def test_vs_stage_pass_memory_stays_linear_in_the_stage_at_thirteen_variables():
    """MAX_TABLE_ENTRIES admits n = 13 (8,192 states). The stage pass holds
    the stage's Walsh coefficients and one row's gaps, about two arrays the
    size of the stage matrix (2 MB here): a 2^n x 2^n Walsh matrix would
    take 512 MB and an m x m x 2^n array 64 MB."""
    n, m = 13, 32
    aset = as_set(np.random.default_rng(13).normal(size=(m, 1 << n)))
    stage_bytes = m * (1 << n) * 8
    for scheme in (lattice_root(n), ProjectionScheme(((0, 1), *((v,) for v in range(2, n))))):
        scheme.family  # built and kept with the scheme, outside the measured pass
        tracemalloc.start()
        try:
            decisions = {}
            sets = stage_switch_sets(aset, scheme, "VS", decisions=decisions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(decisions) == m * (m - 1) // 2
        assert sets == [tuple(j for j in range(m) if j != i) for i in range(m)]
        assert peak < 2.5 * stage_bytes
