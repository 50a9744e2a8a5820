"""Projection schemes, projected beliefs, and displacement-subspace algebra.

A scheme is a partition of the variable indices; projecting a belief replaces
it with the product of its block marginals. The family of preserved marginals
induces a subspace of reachable displacements whose orthogonal complement is
spanned by parity (Walsh) vectors, one per preserved subset.

Variable subsets are represented as integer bitmasks (bit i <-> variable i),
matching the state indexing of :mod:`beliefproj.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import InputError
from .model import num_states, state_bit


def mask_of(indices) -> int:
    """Bitmask for an iterable of variable indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class ProjectionScheme:
    """A partition of variables 0..n-1 into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = tuple(sorted((tuple(sorted(set(b))) for b in self.blocks),
                             key=lambda b: b[0] if b else -1))
        object.__setattr__(self, "blocks", canon)
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise InputError("projection scheme has an empty block")
            if seen & set(block):
                raise InputError("projection scheme blocks overlap")
            seen |= set(block)
        if seen != set(range(len(seen))):
            raise InputError("projection scheme blocks must cover variables 0..n-1")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @cached_property
    def block_keys(self) -> tuple[np.ndarray, ...]:
        """Per block, each state's restriction to the block packed into a
        small index. Computed on first use and kept with the scheme, since the
        belief dimension is always 2^n."""
        dim = num_states(self.n)
        keys = tuple(_block_keys(block, dim) for block in self.blocks)
        for k in keys:
            k.setflags(write=False)
        return keys

    @cached_property
    def basis(self) -> WalshBasis:
        """:func:`build_basis` of the scheme, built on first use and kept
        with it, like ``block_keys``."""
        return build_basis(self)

    @staticmethod
    def singletons(n: int) -> "ProjectionScheme":
        return ProjectionScheme(tuple((i,) for i in range(n)))

    @staticmethod
    def full(n: int) -> "ProjectionScheme":
        return ProjectionScheme((tuple(range(n)),))

    def to_names(self, variables) -> list[list[str]]:
        return [[variables[i] for i in block] for block in self.blocks]

    @staticmethod
    def from_names(doc, variables) -> "ProjectionScheme":
        if not isinstance(doc, list) or not all(
                isinstance(block, list) and all(isinstance(name, str) for name in block)
                for block in doc):
            raise InputError(f"scheme {doc!r} is not a list of blocks of variable names")
        index = {name: i for i, name in enumerate(variables)}
        try:
            blocks = tuple(tuple(index[name] for name in block) for block in doc)
        except KeyError as e:
            raise InputError(f"scheme references unknown variable {e.args[0]!r}") from None
        covered = {i for block in blocks for i in block}
        missing = [name for i, name in enumerate(variables) if i not in covered]
        if missing:
            raise InputError(f"scheme leaves out variables {missing}")
        return ProjectionScheme(blocks)


@dataclass(frozen=True)
class ConstraintFamily:
    """All subsets of variables contained in some block, including the empty set."""

    subsets: tuple[int, ...]  # bitmasks, sorted ascending

    @property
    def count(self) -> int:
        return len(self.subsets)


@dataclass(frozen=True)
class WalshBasis:
    """Orthonormal parity vectors spanning the null space of the displacement
    subspace; one row of ``matrix`` per subset, in ``subsets`` order."""

    n: int
    subsets: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def _blocks_of(scheme_or_blocks) -> tuple[tuple[int, ...], ...]:
    if isinstance(scheme_or_blocks, ProjectionScheme):
        return scheme_or_blocks.blocks
    return tuple(tuple(b) for b in scheme_or_blocks)


def constraint_family(scheme_or_blocks) -> ConstraintFamily:
    """Downward-closed family of preserved subsets. Accepts a ProjectionScheme
    or raw blocks (overlapping blocks are allowed here for analysis)."""
    subsets: set[int] = {0}
    for block in _blocks_of(scheme_or_blocks):
        for r in range(1, len(block) + 1):
            for combo in combinations(sorted(block), r):
                subsets.add(mask_of(combo))
    return ConstraintFamily(tuple(sorted(subsets)))


def walsh_vector(mask: int, n: int) -> np.ndarray:
    """The +-2^(-n/2) vector signed by parity: entry for state s is positive
    iff s makes an even number of the subset's variables true."""
    states = np.arange(num_states(n), dtype=np.uint64)
    parity = np.bitwise_count(states & np.uint64(mask)) & 1
    scale = 2.0 ** (-n / 2.0)
    return np.where(parity == 0, scale, -scale)


def indicator_vector(mask, n: int) -> np.ndarray:
    """0/1 vector marking states where every variable of the subset is true;
    given a sequence of masks, one such row per mask."""
    states = np.arange(num_states(n), dtype=np.uint64)
    masks = np.asarray(mask, dtype=np.uint64)[..., np.newaxis]
    return ((states & masks) == masks).astype(float)


def build_basis(scheme_or_blocks, n: int | None = None) -> WalshBasis:
    """Orthonormal basis of the displacement null space, one Walsh vector per
    member of the constraint family, ordered by subset bitmask."""
    if n is None:
        if not isinstance(scheme_or_blocks, ProjectionScheme):
            raise InputError("n is required when passing raw blocks")
        n = scheme_or_blocks.n
    family = constraint_family(scheme_or_blocks)
    matrix = np.stack([walsh_vector(m, n) for m in family.subsets])
    return WalshBasis(n, family.subsets, matrix)


def marginal_true(b: np.ndarray, mask: int) -> float:
    """Probability that every variable of the subset is true; 1 for the empty set."""
    if mask == 0:
        return 1.0
    states = np.arange(b.shape[0], dtype=np.uint64)
    sel = (states & np.uint64(mask)) == np.uint64(mask)
    return float(b[sel].sum())


def _block_keys(block: tuple[int, ...], dim: int) -> np.ndarray:
    """Pack each state's restriction to the block into a small index."""
    states = np.arange(dim)
    keys = np.zeros(dim, dtype=np.int64)
    for j, var in enumerate(block):
        keys |= state_bit(states, var) << j
    return keys


def project(b: np.ndarray, scheme: ProjectionScheme) -> np.ndarray:
    """Product of block marginals: the belief the scheme monitors in place of b."""
    return project_batch(b[np.newaxis, :], scheme)[0]


def project_batch(beliefs: np.ndarray, scheme: ProjectionScheme) -> np.ndarray:
    """Row-wise :func:`project` for a (count, 2^n) array of beliefs.

    Each row's marginals are summed in state order by one ``bincount`` over
    row-offset keys, so a row's result does not depend on the other rows.
    """
    count, dim = beliefs.shape
    if dim != num_states(scheme.n):
        raise InputError(f"belief dimension {dim} != 2^{scheme.n}")
    weights = np.ascontiguousarray(beliefs, dtype=float).reshape(-1)
    rows = np.arange(count)[:, np.newaxis]
    out = np.ones((count, dim))
    for block, keys in zip(scheme.blocks, scheme.block_keys):
        size = 1 << len(block)
        offsets = keys + size * rows  # row r's marginals occupy bins r*size ...
        marg = np.bincount(offsets.reshape(-1), weights=weights, minlength=count * size)
        out *= marg.take(offsets)
    return out


def displacement(b: np.ndarray, scheme: ProjectionScheme) -> np.ndarray:
    """project(b, scheme) - b; sums to zero and is orthogonal to the basis."""
    return project(b, scheme) - b


def residual_sq_length(w: np.ndarray, basis: WalshBasis) -> float:
    """Squared length of the component of ``w`` outside the basis span,
    computed as w.w - sum of squared basis coordinates, clamped at 0."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != basis.matrix.shape[1]:
        raise InputError(f"vector dimension {w.shape[0]} != basis dimension {basis.matrix.shape[1]}")
    coords = basis.matrix @ w
    value = float(w @ w - coords @ coords)
    return value if value > 0.0 else 0.0


def lattice_root(n: int) -> ProjectionScheme:
    """Top of the search lattice: all variables independent."""
    return ProjectionScheme.singletons(n)


def lattice_children(scheme: ProjectionScheme) -> list[tuple[ProjectionScheme, int]]:
    """Children that merge two singleton blocks, with the new preserved marginal
    as the edge label. Merges creating blocks of 3+ variables are not generated,
    so descents stop at pair partitions."""
    singles = [b[0] for b in scheme.blocks if len(b) == 1]
    others = [b for b in scheme.blocks if len(b) > 1]
    children = []
    for i, j in combinations(sorted(singles), 2):
        rest = [(k,) for k in singles if k not in (i, j)]
        child = ProjectionScheme(tuple(rest) + ((i, j),) + tuple(others))
        children.append((child, mask_of((i, j))))
    return children
