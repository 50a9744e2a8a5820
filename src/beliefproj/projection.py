"""Projection schemes, projected beliefs, and displacement-subspace algebra.

A scheme is a partition of the variable indices; projecting a belief replaces
it with the product of its block marginals. The family of preserved marginals
induces a subspace of reachable displacements whose orthogonal complement is
spanned by parity (Walsh) vectors, one per preserved subset. The fast
Walsh-Hadamard transform (:func:`walsh_transform`) gives a vector's
coordinates along all 2^n parity vectors at once.

Variable subsets are represented as integer bitmasks (bit i <-> variable i),
matching the state indexing of :mod:`beliefproj.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import InputError
from .model import num_states, packed_bits


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
        named = sum(map(len, self.blocks))
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
        if len(seen) != named:
            raise InputError("projection scheme block names a variable twice")
        if seen != set(range(len(seen))):
            raise InputError("projection scheme blocks must cover variables 0..n-1")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @cached_property
    def gather_plan(self) -> GatherPlan:
        """:class:`GatherPlan` of the scheme, built on first use and kept
        with it, since the belief dimension is always 2^n."""
        return GatherPlan.of(self)

    @cached_property
    def basis(self) -> WalshBasis:
        """:func:`build_basis` of the scheme, built on first use and kept
        with it, like ``gather_plan``."""
        return build_basis(self)

    @cached_property
    def family(self) -> ConstraintFamily:
        """:func:`constraint_family` of the scheme, kept like ``basis``."""
        return constraint_family(self)

    @cached_property
    def children(self) -> tuple[tuple[ProjectionScheme, int], ...]:
        """Children that merge two singleton blocks, each with the new
        preserved marginal as its edge label, kept like ``basis``. Merges
        creating blocks of 3+ variables are not generated, so descents stop
        at pair partitions."""
        singles = [b[0] for b in self.blocks if len(b) == 1]
        others = tuple(b for b in self.blocks if len(b) > 1)
        children = []
        for i, j in combinations(singles, 2):
            rest = tuple((k,) for k in singles if k not in (i, j))
            children.append((ProjectionScheme(rest + ((i, j),) + others), mask_of((i, j))))
        return tuple(children)

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
class GatherPlan:
    """Index arrays that project (count, 2^n) beliefs through a scheme with
    one gather per block and one gather back.

    Row b of ``order`` is a column order for block b: read as a
    (2^n / size, size) array, its column k lists, in increasing order, the
    states whose restriction to the block packs into k, so a sum down that
    axis adds each bin's states in state order. ``spread`` gives, per state,
    its index in the outer product of the block marginals taken in block
    order.
    """

    order: np.ndarray
    spread: np.ndarray

    def __post_init__(self):
        self.order.setflags(write=False)
        self.spread.setflags(write=False)

    @staticmethod
    def of(scheme: ProjectionScheme) -> "GatherPlan":
        dim = num_states(scheme.n)
        order = np.empty((len(scheme.blocks), dim), dtype=np.intp)
        spread = np.zeros(dim, dtype=np.intp)
        for row, block in zip(order, scheme.blocks):
            size = 1 << len(block)
            keys = packed_bits(block, dim)
            row[:] = np.argsort(keys, kind="stable").reshape(size, -1).T.reshape(-1)
            spread = spread * size + keys
        return GatherPlan(order, spread)


@dataclass(frozen=True)
class ConstraintFamily:
    """All subsets of variables contained in some block, including the empty set."""

    subsets: tuple[int, ...]  # bitmasks, sorted ascending

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.subsets)


@dataclass(frozen=True)
class WalshBasis:
    """Orthonormal parity vectors spanning the null space of the displacement
    subspace; one row of ``matrix`` per subset, in ``subsets`` order."""

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


def walsh_transform(matrix: np.ndarray) -> np.ndarray:
    """Unnormalised (+-1) Walsh-Hadamard transform of each row of a
    (rows, 2^n) array: entry [r, mask] is the sum over states s of
    (-1)^|s & mask| * matrix[r, s], that is 2^(n/2) times the row's coordinate
    along ``walsh_vector(mask, n)``.

    The fast transform (Fino & Algazi, 1976) in radix 8: the sign factors
    over the bits of the state index, so each pass multiplies by the 8 x 8
    Hadamard matrix along three more bits (its top-left 2 x 2 or 4 x 4 block
    on a last pass of fewer bits). That is O(rows * n * 2^n) with no
    2^n x 2^n matrix, and at most two arrays the size of the input at a time.
    Integer-valued rows transform exactly.
    """
    out = np.array(matrix, dtype=float)
    rows, dim = out.shape
    index = np.arange(min(8, dim))
    hadamard = 1.0 - 2.0 * (np.bitwise_count(index[:, np.newaxis] & index) & 1)
    done = 1  # the low bits transformed so far span this many states
    while done < dim:
        width = min(8, dim // done)
        out = np.matmul(hadamard[:width, :width],
                        out.reshape(rows, dim // (done * width), width, done))
        out = out.reshape(rows, dim)
        done *= width
    return out


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
    return WalshBasis(family.subsets, matrix)


def marginal_true(b: np.ndarray, mask: int) -> float:
    """Probability that every variable of the subset is true; 1 for the empty set."""
    if mask == 0:
        return 1.0
    states = np.arange(b.shape[0], dtype=np.uint64)
    sel = (states & np.uint64(mask)) == np.uint64(mask)
    return float(b[sel].sum())


def project(b: np.ndarray, scheme: ProjectionScheme) -> np.ndarray:
    """Product of block marginals: the belief the scheme monitors in place of b."""
    return project_batch(b[np.newaxis, :], scheme)[0]


def project_batch(beliefs: np.ndarray, scheme: ProjectionScheme) -> np.ndarray:
    """Row-wise :func:`project` for a (count, 2^n) array of beliefs.

    Per block, one gather through the scheme's :class:`GatherPlan` turns
    the rows into columns with the block's bins side by side, and one sum
    down the first axis adds each bin's states in state order, so a row's
    marginals, and its result, do not depend on the other rows. The outer
    product of the marginals, in block order, is gathered back to state
    order once.
    """
    count, dim = beliefs.shape
    if dim != num_states(scheme.n):
        raise InputError(f"belief dimension {dim} != 2^{scheme.n}")
    plan = scheme.gather_plan
    columns = np.ascontiguousarray(beliefs.T, dtype=float)
    product = np.ones((1, count))
    for order, block in zip(plan.order, scheme.blocks):
        size = 1 << len(block)
        marg = columns.take(order, axis=0).reshape(-1, size * count).sum(axis=0)
        product = (product[:, np.newaxis, :] * marg.reshape(1, size, count)).reshape(-1, count)
    del columns  # not held through the gather back
    return np.ascontiguousarray(product.take(plan.spread, axis=0).T)


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
    return ProjectionScheme(tuple((i,) for i in range(n)))


def lattice_children(scheme: ProjectionScheme) -> list[tuple[ProjectionScheme, int]]:
    """``scheme.children`` as a new list, so a caller cannot change the kept one."""
    return list(scheme.children)
