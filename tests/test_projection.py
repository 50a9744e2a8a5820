import numpy as np
import pytest

from beliefproj import (InputError, ProjectionScheme, build_basis,
                        constraint_family, displacement, lattice_children,
                        lattice_root, marginal_true, project, project_batch,
                        residual_sq_length, walsh_vector)
from beliefproj.projection import indicator_vector, mask_of

from conftest import random_partition

# The two-variable worked example: b(x)=0.3, b(y)=0.4, joint b(xy)=0.2.
# Index order has bit 0 = x, bit 1 = y.
B_XY = np.array([0.5, 0.1, 0.2, 0.2])
PRODUCT_XY = np.array([0.42, 0.18, 0.28, 0.12])
INDEPENDENT = ProjectionScheme(((0,), (1,)))


def test_project_two_variable_example():
    projected = project(B_XY, INDEPENDENT)
    np.testing.assert_allclose(projected, PRODUCT_XY, atol=1e-15)


def test_project_identity_scheme_is_exact():
    np.testing.assert_array_equal(project(B_XY, ProjectionScheme.full(2)), B_XY)


def test_project_fixed_point_on_product_form():
    np.testing.assert_allclose(project(PRODUCT_XY, INDEPENDENT), PRODUCT_XY, atol=1e-12)


def test_project_batch_matches_project(rng):
    scheme = ProjectionScheme(((0, 2), (1,)))
    beliefs = rng.dirichlet(np.ones(8), size=20)
    batch = project_batch(beliefs, scheme)
    for row, b in zip(batch, beliefs):
        np.testing.assert_array_equal(row, project(b, scheme))


def test_marginal_true_empty_set_and_point_mass():
    assert marginal_true(B_XY, 0) == 1.0
    point = np.zeros(8)
    point[7] = 1.0
    for mask in range(8):
        assert marginal_true(point, mask) == 1.0


def test_marginal_true_matches_state_scan(rng):
    b = rng.dirichlet(np.ones(16))
    mask = mask_of([0, 2])
    scan = sum(b[s] for s in range(16) if s & mask == mask)
    assert marginal_true(b, mask) == pytest.approx(scan, abs=1e-14)


def test_constraint_family_counts():
    fam = constraint_family(INDEPENDENT)
    assert fam.subsets == (0, 1, 2)
    assert fam.count == 3
    # overlapping blocks are allowed for analysis: {XY, YZ} has six marginals
    fam = constraint_family([(0, 1), (1, 2)])
    assert fam.subsets == (0, 1, 2, 3, 4, 6)
    assert fam.count == 6
    fam = constraint_family(ProjectionScheme.full(3))
    assert fam.count == 8


def reference_column_state(col):
    """Map the reference sign table's column order (xyz, xy!z, .., !x!y!z:
    all-true state first, z toggling fastest) to our state index."""
    x = 1 - ((col >> 2) & 1)
    y = 1 - ((col >> 1) & 1)
    z = 1 - (col & 1)
    return x | (y << 1) | (z << 2)


PARITY_TABLE = {
    mask_of([]): [1, 1, 1, 1, 1, 1, 1, 1],
    mask_of([0]): [-1, -1, -1, -1, 1, 1, 1, 1],
    mask_of([1]): [-1, -1, 1, 1, -1, -1, 1, 1],
    mask_of([2]): [-1, 1, -1, 1, -1, 1, -1, 1],
    mask_of([0, 1]): [1, 1, -1, -1, -1, -1, 1, 1],
    mask_of([1, 2]): [1, -1, -1, 1, 1, -1, -1, 1],
}


@pytest.mark.parametrize("mask", sorted(PARITY_TABLE))
def test_walsh_vector_signs(mask):
    vec = walsh_vector(mask, 3)
    scale = 8 ** -0.5
    for col, sign in enumerate(PARITY_TABLE[mask]):
        assert vec[reference_column_state(col)] == sign * scale


def test_build_basis_overlapping_blocks_reproduces_table():
    basis = build_basis([(0, 1), (1, 2)], n=3)
    assert basis.subsets == (0, 1, 2, 3, 4, 6)
    scale = 8 ** -0.5
    for row, mask in enumerate(basis.subsets):
        signs = PARITY_TABLE[mask]
        for col in range(8):
            assert basis.matrix[row, reference_column_state(col)] == signs[col] * scale


def test_build_basis_sizes():
    assert build_basis(ProjectionScheme.singletons(3)).subsets == (0, 1, 2, 4)
    basis = build_basis(ProjectionScheme(((0, 1), (2,))))
    assert basis.subsets == (0, 1, 2, 3, 4)
    assert constraint_family(ProjectionScheme(((0, 1), (2,)))).count == 5


def test_basis_orthonormal_on_random_schemes(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        basis = build_basis(ProjectionScheme(random_partition(n, rng)))
        gram = basis.matrix @ basis.matrix.T
        np.testing.assert_allclose(gram, np.eye(len(basis.subsets)), atol=1e-12)


def test_displacement_of_product_form_is_zero():
    np.testing.assert_allclose(displacement(PRODUCT_XY, INDEPENDENT),
                               np.zeros(4), atol=1e-15)


def test_displacement_matches_worked_example():
    d = displacement(B_XY, INDEPENDENT)
    assert d[3] == pytest.approx(-0.08, abs=1e-15)  # state xy
    assert d.sum() == pytest.approx(0.0, abs=1e-15)


def test_displacement_orthogonal_to_basis(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        scheme = ProjectionScheme(random_partition(n, rng))
        basis = build_basis(scheme)
        b = rng.dirichlet(np.ones(1 << n))
        d = displacement(b, scheme)
        assert np.abs(basis.matrix @ d).max() < 1e-12


def test_project_preserves_family_marginals(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        scheme = ProjectionScheme(random_partition(n, rng))
        b = rng.dirichlet(np.ones(1 << n))
        projected = project(b, scheme)
        for mask in constraint_family(scheme).subsets:
            assert marginal_true(projected, mask) == pytest.approx(
                marginal_true(b, mask), abs=1e-12)


def test_project_idempotent(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        scheme = ProjectionScheme(random_partition(n, rng))
        b = rng.dirichlet(np.ones(1 << n))
        once = project(b, scheme)
        np.testing.assert_allclose(project(once, scheme), once, atol=1e-12)


def test_residual_of_basis_member_is_zero():
    basis = build_basis(ProjectionScheme(((0, 1), (2,))))
    for mask in basis.subsets:
        assert residual_sq_length(walsh_vector(mask, 3), basis) == 0.0


def test_residual_zero_under_identity_scheme(rng):
    basis = build_basis(ProjectionScheme.full(3))
    for _ in range(10):
        w = rng.normal(size=8)
        assert residual_sq_length(w, basis) <= 1e-12 * float(w @ w)


def test_residual_matches_explicit_projection(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        scheme = ProjectionScheme(random_partition(n, rng))
        basis = build_basis(scheme)
        w = rng.normal(size=1 << n)
        coords = basis.matrix @ w
        explicit = w - basis.matrix.T @ coords
        expected = float(explicit @ explicit)
        assert residual_sq_length(w, basis) == pytest.approx(
            expected, rel=1e-8, abs=1e-10)


def test_residual_dimension_mismatch():
    basis = build_basis(ProjectionScheme.full(2))
    with pytest.raises(InputError):
        residual_sq_length(np.zeros(8), basis)


def test_lattice_root_and_children():
    root = lattice_root(3)
    assert root.blocks == ((0,), (1,), (2,))
    children = lattice_children(root)
    assert [c.blocks for c, _ in children] == [
        ((0, 1), (2,)), ((0, 2), (1,)), ((0,), (1, 2))]
    assert [m for _, m in children] == [3, 5, 6]


def test_lattice_stops_at_pair_blocks():
    assert lattice_children(ProjectionScheme(((0, 1), (2,)))) == []
    assert len(lattice_children(lattice_root(4))) == 6


def test_basis_grows_by_one_marginal_along_edges():
    frontier = [lattice_root(4)]
    seen = set()
    edges = 0
    while frontier:
        parent = frontier.pop()
        if parent in seen:
            continue
        seen.add(parent)
        parent_subsets = set(build_basis(parent).subsets)
        for child, mask in lattice_children(parent):
            assert set(build_basis(child).subsets) == parent_subsets | {mask}
            frontier.append(child)
            edges += 1
    assert edges == 12  # 6 root edges + 6 second-level edges in the n=4 lattice


def test_residual_monotone_along_edges(rng):
    root = lattice_root(4)
    root_basis = build_basis(root)
    for _ in range(20):
        w = rng.normal(size=16)
        parent = residual_sq_length(w, root_basis)
        for child, _ in lattice_children(root):
            assert residual_sq_length(w, build_basis(child)) <= parent + 1e-12


def test_scheme_validation():
    with pytest.raises(InputError):
        ProjectionScheme(((0,), (0, 1)))
    with pytest.raises(InputError):
        ProjectionScheme(((0,), (2,)))
    with pytest.raises(InputError):
        ProjectionScheme(((0,), ()))


def test_scheme_name_serialization():
    scheme = ProjectionScheme(((0, 2), (1,)))
    names = scheme.to_names(("A", "B", "C"))
    assert names == [["A", "C"], ["B"]]
    assert ProjectionScheme.from_names(names, ("A", "B", "C")) == scheme


def test_mask_helpers():
    np.testing.assert_array_equal(indicator_vector(mask_of([0]), 2),
                                  [0.0, 1.0, 0.0, 1.0])
    np.testing.assert_array_equal(indicator_vector((0, mask_of([0]), mask_of([0, 1])), 2),
                                  [[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
