"""Exact linear algebra over GF(2) on bit-packed vectors.

Vectors are packed little-endian into Python ints: coordinate j of a
vector is bit j of its ``bits`` field, so the string form writes
coordinate 0 first ("110" has coordinates 0 and 1 set).

Two primitives here serve the whole package: `_ref_insert`, the one
echelon insertion (rank_and_basis, the matroid's span coordinates and
its dependency code all run on it), and `_xor_span`, the one table of
every XOR combination of a few vectors (coset tables, circuits, odd
girth and the rows of enumerate_subspaces read it). Subspace rows are
ints; GFVector wraps the vectors of files, reports, witnesses and matroids.

A coset v + H of a subspace is named by its canonical representative,
the one element with every pivot bit of H's RREF basis clear. This
module keeps no coset objects: `boolfn.coset_indices` lays all cosets
of H out as one table of point indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError, InvalidInputError

SUBSPACE_ENUM_MAX_N = 8


@dataclass(frozen=True)
class GFVector:
    """A vector in {0,1}^dim, coordinates packed into ``bits``. dim = 0
    is the one point of {0,1}^0, the image of every map into a function
    of n = 0."""

    dim: int
    bits: int

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidInputError(f"dimension must be nonnegative, got {self.dim}")
        if self.bits < 0 or self.bits >> self.dim:
            raise InvalidInputError(f"bits 0x{self.bits:x} do not fit in dimension {self.dim}")

    @classmethod
    def from_bits(cls, s: str) -> "GFVector":
        """Parse a coordinate string, first character = coordinate 0."""
        if not s or set(s) - {"0", "1"}:
            raise InvalidInputError(f"not a 0/1 coordinate string: {s!r}")
        return cls(len(s), int(s[::-1], 2))

    def to_bits(self) -> str:
        return "".join("1" if self.bits >> j & 1 else "0" for j in range(self.dim))

    def __xor__(self, other: "GFVector") -> "GFVector":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")
        return GFVector(self.dim, self.bits ^ other.bits)

    def __repr__(self):
        return f"GFVector({self.to_bits()!r})"


def _check_common_dim(vectors: Sequence[GFVector], dim: int | None) -> int:
    for v in vectors:
        if dim is None:
            dim = v.dim
        elif v.dim != dim:
            raise DimensionMismatchError(f"mixed dimensions {dim} and {v.dim}")
    if dim is None:
        raise InvalidInputError("ambient dimension required for an empty vector set")
    return dim


def _ref_insert(rows: dict[int, tuple[int, int]], w: int, combo: int = 0) -> tuple[int, int]:
    """Insert w into an echelon table keyed by pivot (= highest set bit),
    not fully reduced: XOR by the pivot rows until a new top bit appears,
    and keep w there. `combo` is a mask of the inputs w stands for; each
    row carries its own, and w's is XORed along. Returns the reduced
    (w, combo): w == 0 when w was in the span, and then the inputs in
    combo XOR to zero."""
    while w:
        p = w.bit_length() - 1
        row = rows.get(p)
        if row is None:
            rows[p] = (w, combo)
            break
        w ^= row[0]
        combo ^= row[1]
    return w, combo


def _xor_span(vectors: Sequence[int]) -> np.ndarray:
    """The span table: element c is the XOR of vectors[i] over the set
    bits i of c. Every word must fit int64."""
    out = np.zeros(1 << len(vectors), dtype=np.int64)
    for i, w in enumerate(vectors):
        out[1 << i:2 << i] = out[:1 << i] ^ w
    return out


@dataclass(frozen=True)
class Subspace:
    """A subspace of {0,1}^ambient_dim with its unique RREF basis.

    The basis rows, ints packed like GFVector.bits, are in descending
    pivot order; two equal subspaces always carry identical basis tuples.
    """

    ambient_dim: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(b.bit_length() - 1 for b in self.basis)


def rank_and_basis(vectors: Iterable[GFVector], dim: int | None = None) -> tuple[int, Subspace]:
    """Rank of the span together with its canonical RREF basis: the
    echelon rows of _ref_insert, each cleared of the lower pivot bits in
    ascending pivot order."""
    vectors = tuple(vectors)
    dim = _check_common_dim(vectors, dim)
    rows: dict[int, tuple[int, int]] = {}
    for v in vectors:
        _ref_insert(rows, v.bits)
    rref: dict[int, int] = {}
    for p in sorted(rows):
        w = rows[p][0]
        for q, b in rref.items():
            if w >> q & 1:
                w ^= b
        rref[p] = w
    basis = tuple(rref[p] for p in reversed(rref))
    return len(basis), Subspace(dim, basis)


def enumerate_subspaces(n: int, codim: int) -> Iterator[Subspace]:
    """All subspaces of {0,1}^n of the given codimension, each exactly once.

    Enumerates canonical RREF bases directly: pivot sets in descending
    lexicographic order, then row 0's free entries fastest; each row runs
    through the span table of the non-pivot bits below its pivot. This
    yield order is the repo's canonical subspace order.
    """
    if n > SUBSPACE_ENUM_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds subspace enumeration cap {SUBSPACE_ENUM_MAX_N}")
    if not 0 <= codim <= n:
        raise InvalidInputError(f"codim {codim} out of range for n={n}")
    for pivots in combinations(range(n - 1, -1, -1), n - codim):
        rows = [(_xor_span([1 << b for b in range(p) if b not in pivots]) | 1 << p).tolist()
                for p in reversed(pivots)]
        for basis in product(*rows):
            yield Subspace(n, basis[::-1])


@dataclass(frozen=True)
class LinearMap:
    """A linear map {0,1}^domain_dim -> {0,1}^n given by basis images."""

    domain_dim: int
    images: tuple[GFVector, ...]

    def __post_init__(self):
        if len(self.images) != self.domain_dim:
            raise InvalidInputError(
                f"need {self.domain_dim} images, got {len(self.images)}")
        dims = {im.dim for im in self.images}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed image dimensions {sorted(dims)}")
