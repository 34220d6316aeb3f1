"""Exact linear algebra over GF(2) on bit-packed vectors.

Vectors are packed little-endian into Python ints: coordinate j of a
vector is bit j of its ``bits`` field, so the string form writes
coordinate 0 first ("110" has coordinates 0 and 1 set).

Two primitives here serve the whole package: `_ref_insert`, the one
echelon insertion (rank_and_basis, the matroid's span coordinates and
its dependency code all run on it), and `_xor_span`, the one table of
every XOR combination of a few vectors, or of each row of a batch of
them (coset tables, circuits, odd girth and the rows of each enumerated
basis read it). Subspace rows are ints; GFVector wraps the vectors of
files, reports, witnesses and matroids.

The canonical subspace order is batched: `subspace_batches` yields,
pivot set by pivot set, every RREF basis with those pivots as one
(B, dim) int64 array, beside the coset representatives they share; the
families and the regularity search both read the batches.

A coset v + H of a subspace is named by its canonical representative,
the one element with every pivot bit of H's RREF basis clear. This
module keeps no coset objects: `boolfn` lays all cosets of each basis
of a batch out as one table of point indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
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


def _xor_span(vectors) -> np.ndarray:
    """The span table of the last axis of `vectors` (a sequence of ints
    or a (..., d) int64 array): element c is the XOR of vectors[..., i]
    over the set bits i of c, so the shape is (..., 2^d). Every word
    must fit int64."""
    vectors = np.asarray(vectors, dtype=np.int64)
    out = np.zeros((*vectors.shape[:-1], 1 << vectors.shape[-1]), dtype=np.int64)
    for i in range(vectors.shape[-1]):
        out[..., 1 << i:2 << i] = out[..., :1 << i] ^ vectors[..., i, None]
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


def subspace_batches(n: int, codim: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The RREF bases of all subspaces of {0,1}^n of the given
    codimension, one (reps, bases) pair per pivot set: bases is a
    (B, n - codim) int64 array, and reps (the span table of the
    non-pivot bits) their 2^codim coset representatives, ascending.

    Pivot sets come in descending lexicographic order. Row j of a basis
    (descending pivots, as in Subspace.basis) runs through the span
    table of the non-pivot bits below its pivot, and within a batch row
    0's free entries change fastest, then row 1's, and so on. This
    order is the repo's canonical subspace order.
    """
    if n > SUBSPACE_ENUM_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds subspace enumeration cap {SUBSPACE_ENUM_MAX_N}")
    if not 0 <= codim <= n:
        raise InvalidInputError(f"codim {codim} out of range for n={n}")
    dim = n - codim
    for pivots in combinations(range(n - 1, -1, -1), dim):
        # row j's table is the prefix of the non-pivot span over the
        # p_j - (dim - 1 - j) non-pivot bits below its pivot p_j
        span = _xor_span([1 << b for b in range(n) if b not in pivots])
        sizes = [1 << p - (dim - 1 - j) for j, p in enumerate(pivots)]
        batch = np.empty((math.prod(sizes), dim), dtype=np.int64)
        stride = 1
        for j, (p, size) in enumerate(zip(pivots, sizes)):
            batch.reshape(-1, size, stride, dim)[..., j] = span[:size, None] | 1 << p
            stride *= size
        yield span, batch


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
