"""Boolean functions as complete truth tables, with exact Walsh-Hadamard
Fourier analysis and toy-scale regularity search.

Every Walsh-Hadamard transform in the package is one kernel,
`_hadamard`: H_{2^n} applied to each row of a (..., 2^n) array as matrix
products, one per Kronecker factor H_{2^k}, k <= 4, of H_{2^n} =
H_{2^k_1} x ... x H_{2^k_t} (Fino and Algazi, IEEE Trans. Computers
1976), or one product with H_{2^n} itself when that is small. It
computes in its argument's dtype, and exactness is the caller's
argument for that dtype: after the factors on the lowest b bits every
value, and every partial sum of a product, is a signed sum of at most
2^b entries of a row, so at most the row's sum of absolute values. `wht`,
the regularity search's coset tables and the families' free-set table
transform 0/1 rows in float32, where that is at most
2^n <= 2^WHT_MAX_N = 2^24, and float32 holds every such integer; a
spectrum is then cast to int32. The tester's XOR-correlations choose
float64 or int64 from their own bound (tester module docstring). Each
BLAS call keeps m*n*k <= 2^17 (one stacked item of a batched
np.matmul), below OpenBLAS's 2^18 threshold for starting its worker
threads (the one-row n <= 8 product, at most 256 x 256, is below the
1024 x 1024 where sgemv was seen to thread): a threaded call leaves
those workers spinning after it returns, and their CPU time lands on
whatever numpy work comes next. numpy's int64 matmul calls no BLAS.

Point-to-index convention (fixed for the whole repo): a point x maps to
index ix(x) = sum_j x_j 2^j, i.e. coordinate j is bit j of the index.

The cosets of a subspace H are read through one index table: a row per
coset, reps ascending, and a column per element of H. `_coset_tables`
lays it out for each basis of a `gf2.subspace_batches` batch from the
representatives the batch carries; the families read the same tables.
One row-wise transform of f's values at the tables gives every coset's
spectrum, from which each basis's uniform-coset count is read.
The regularity search walks each pivot set's batch in chunks of at most
_CHUNK_ENTRIES = 2^16 table entries (2^16 >> n bases), one `_hadamard`
call per chunk, so a chunk's indices, values and transform take under
1 MiB beside the batch (at most 2^16 bases of 4 rows, 2 MiB, at n = 8).

`FourierSpectrum.power_sum(k)` has two routes. While n*k <= 62 it is one
int64 sum: by Parseval sum_a c_a^2 = 2^n |f| <= 2^(2n) and |c_a| <= 2^n,
so for k >= 2 sum_a |c_a|^k <= 2^(n(k-2)) * 2^(2n) = 2^(nk) <= 2^62
bounds every partial sum (for k <= 1, 2^n terms of at most 2^n give
2^(2n) <= 2^48). Past that bound (the fourth power at n = 20, say) it
sums Python ints over the histogram of distinct coefficient values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .gf2 import SUBSPACE_ENUM_MAX_N, Subspace, _xor_span, subspace_batches

WHT_MAX_N = 24


def _check_dim(n: int) -> None:
    if not 0 <= n <= WHT_MAX_N:
        raise InvalidInputError(f"domain dimension {n} out of supported range")


class BooleanFunction:
    """A function {0,1}^n -> {0,1} stored as a full truth table.

    n = 0 is permitted (a single-point domain).
    """

    __slots__ = ("n", "table")

    def __init__(self, n: int, table):
        _check_dim(n)
        arr = np.asarray(table, dtype=np.uint8)
        if arr.shape != (1 << n,):
            raise InvalidInputError(
                f"table length {arr.shape} does not match 2^{n}")
        if arr.max(initial=0) > 1:
            raise InvalidInputError("table entries must be 0 or 1")
        arr.flags.writeable = False
        self.n = n
        self.table = arr

    def ones(self) -> list[int]:
        return [int(x) for x in np.flatnonzero(self.table)]

    def ones_count(self) -> int:
        return int(self.table.sum())

    def __eq__(self, other):
        return (isinstance(other, BooleanFunction) and self.n == other.n
                and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))

    def __repr__(self):
        if self.n <= 4:
            return f"BooleanFunction(n={self.n}, ones={self.ones()})"
        return f"BooleanFunction(n={self.n}, ones_count={self.ones_count()})"


def random_function(n: int, rng, density: float = 0.5) -> BooleanFunction:
    _check_dim(n)
    return BooleanFunction(n, (rng.random(1 << n) < density).astype(np.uint8))


@dataclass(frozen=True)
class FourierSpectrum:
    """Unnormalized integer spectrum: coeffs[a] = sum_x f(x)(-1)^{a.x}.

    The true Fourier coefficient is coeffs[a] / 2^n. coeffs is int32, exact
    because |coeffs[a]| <= 2^n <= 2^WHT_MAX_N, and `wht` computes it in
    float32, exact up to 2^24 (module docstring); `power_sum` picks int64
    or Python ints from its own bound.
    """

    n: int
    coeffs: np.ndarray

    def coeff(self, alpha: int) -> int:
        return int(self.coeffs[alpha])

    def max_abs_nonzero(self) -> int:
        """max_{a != 0} |coeffs[a]| (0 when n = 0)."""
        return int(np.abs(self.coeffs[1:]).max(initial=0))

    def power_sum(self, k: int) -> int:
        """sum_a coeffs[a]^k, exact: one int64 sum when n*k <= 62, where
        the Parseval bound keeps every partial sum in int64 (module
        docstring), else Python ints over the histogram of distinct
        coefficient values."""
        if self.n * k <= 62:
            powers = self.coeffs.astype(np.int64)
            powers **= k
            return int(powers.sum())
        values, counts = np.unique(self.coeffs, return_counts=True)
        return sum(int(v) ** k * int(c) for v, c in zip(values, counts))

    def top(self, count: int) -> list[int]:
        """The `count` alphas of largest |coeffs|, magnitude descending and
        ties in ascending alpha: np.argsort(-|coeffs|, kind="stable")[:count],
        without sorting the whole spectrum."""
        mags = np.abs(self.coeffs)
        kth = max(mags.shape[0] - count, 0)
        cand = np.flatnonzero(mags >= np.partition(mags, kth)[kth])   # ascending alpha
        return cand[np.argsort(-mags[cand], kind="stable")[:count]].tolist()


@cache
def _sign_matrix(k: int, dtype: np.dtype) -> np.ndarray:
    """H_{2^k}[a, x] = (-1)^{popcount(a & x)} in `dtype`, symmetric and
    read-only, for k <= 16 (the points are uint16); built on first use,
    so only the sizes and dtypes a process transforms in are held."""
    points = np.arange(1 << k, dtype=np.uint16)
    h = (np.bitwise_count(points[:, None] & points) & 1).astype(dtype)
    h *= -2
    h += 1
    h.flags.writeable = False
    return h


_GEMM_MAX_MNK = 1 << 17     # per BLAS call: OpenBLAS starts threads past 2^18
_ONE_PRODUCT_MAX_BYTES = 1 << 18    # H_{2^n} used whole: float32 n <= 8, 64-bit n <= 7


def _hadamard(values: np.ndarray, dtype: np.dtype | type) -> np.ndarray:
    """H_{2^n} times every row of the (..., 2^n) array `values`, in any
    layout, computed in and returned as a new array of `dtype`, whose
    exactness is the caller's argument (module docstring). `values` is
    never written: the tester shares its factors between slices. When
    rows * 4^n <= _GEMM_MAX_MNK and H_{2^n} fits _ONE_PRODUCT_MAX_BYTES,
    one product with H_{2^n}; else one np.matmul per factor H_{2^k} on
    bits s..s+k-1, over the (rows * 2^(n-s-k), 2^k, 2^s) view, each
    stacked item capped at _GEMM_MAX_MNK, between two buffers (the
    C-ordered cast of `values` is one of them when it is a copy)."""
    dtype = np.dtype(dtype)
    size = values.shape[-1]
    n = size.bit_length() - 1
    rows = values.size >> n
    src, spare = values.astype(dtype, order="C", copy=False), None
    if rows << 2 * n <= _GEMM_MAX_MNK and dtype.itemsize << 2 * n <= _ONE_PRODUCT_MAX_BYTES:
        return np.matmul(src, _sign_matrix(n, dtype))
    for s in range(0, n, 4):
        k = min(4, n - s)
        h, a, w = _sign_matrix(k, dtype), rows << (n - s - k), 1 << s
        dst = np.empty_like(src) if spare is None else spare
        if s == 0:      # rows of the (a, 2^k) view times H, r rows per item
            r = math.gcd(a, _GEMM_MAX_MNK >> 2 * k)
            np.matmul(src.reshape(a // r, r, 1 << k), h, out=dst.reshape(a // r, r, 1 << k))
        else:           # H times (2^k, c) column blocks of each (2^k, w) slab
            c = min(w, _GEMM_MAX_MNK >> 2 * k)
            np.matmul(h, src.reshape(a, 1 << k, w // c, c).transpose(0, 2, 1, 3),
                      out=dst.reshape(a, 1 << k, w // c, c).transpose(0, 2, 1, 3))
        spare = None if src is values else src
        src = dst
    return src


def wht(f: BooleanFunction) -> FourierSpectrum:
    """Exact integer spectrum: `_hadamard` of the table in float32, cast
    to int32 (module docstring)."""
    coeffs = _hadamard(f.table, np.float32).astype(np.int32)
    coeffs.flags.writeable = False
    return FourierSpectrum(f.n, coeffs)


_CHUNK_ENTRIES = 1 << 16    # coset-table entries per regularity transform


def _coset_tables(reps: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Table indices of every coset of each subspace of a
    `gf2.subspace_batches` batch (reps, bases), shape
    (B, 2^codim, 2^dim): row c is the coset of the c-th smallest
    canonical representative, reps[c], and column h holds reps[c] XOR
    the basis vectors b_i over the set bits i of h."""
    return reps[:, None] ^ _xor_span(bases)[:, None, :]


def _uniform_counts(f: BooleanFunction, reps: np.ndarray, bases: np.ndarray,
                    eps: Fraction) -> np.ndarray:
    """For each basis of a `_coset_tables` batch, the number of its cosets
    on which f restricts eps-uniformly: every nonzero-frequency
    coefficient of the restriction has |f^(a)| <= eps. One transform
    of f's values at the batch's tables."""
    size = 1 << bases.shape[1]
    coeffs = _hadamard(f.table[_coset_tables(reps, bases)], np.float32)
    peak = np.abs(coeffs[..., 1:]).max(axis=-1, initial=0)
    return np.count_nonzero(peak <= min(math.floor(eps * size), size), axis=-1)


def check_regularity_n(n: int) -> None:
    """Refuse n for regularity_decompose before any table is drawn:
    outside BooleanFunction's range, below 1, or over the search cap."""
    _check_dim(n)
    if n < 1:
        raise InvalidInputError(f"regularity search needs n >= 1, got n={n}")
    if n > SUBSPACE_ENUM_MAX_N:
        raise BudgetExceededError(f"n={n} exceeds regularity search cap {SUBSPACE_ENUM_MAX_N}")


def regularity_decompose(f: BooleanFunction, eps, max_codim: int | None = None
                         ) -> tuple[Subspace, Fraction]:
    """Smallest-codimension subspace H such that >= 1-eps of the cosets of
    H carry an eps-uniform restriction of f.

    Exhaustive search in canonical subspace order, codim ascending, one
    transform per chunk of at most _CHUNK_ENTRIES table entries of a
    pivot set's batch; the first basis with at least
    ceil((1 - eps) * 2^codim) uniform cosets wins. It only realizes the
    regularity statement at toy scale (n <= 8). codim = n always works
    (singleton cosets are constant), so the search succeeds whenever
    max_codim = n.
    """
    check_regularity_n(f.n)
    if max_codim is None:
        max_codim = f.n
    if not 0 <= max_codim <= f.n:
        raise InvalidInputError(f"max_codim {max_codim} is outside [0, n={f.n}]")
    eps = Fraction(eps)
    if not 0 <= eps <= 1:
        raise InvalidInputError(f"eps {eps} is outside [0, 1]")
    chunk = _CHUNK_ENTRIES >> f.n     # bases per transform; each table has 2^n entries
    for codim in range(max_codim + 1):
        need = math.ceil((1 - eps) * (1 << codim))
        for reps, batch in subspace_batches(f.n, codim):
            for start in range(0, len(batch), chunk):
                counts = _uniform_counts(f, reps, batch[start:start + chunk], eps)
                hits = np.flatnonzero(counts >= need)
                if hits.size:
                    i = int(hits[0])
                    return (Subspace(f.n, tuple(batch[start + i].tolist())),
                            Fraction(int(counts[i]), 1 << codim))
    raise BudgetExceededError(
        f"no subspace of codimension <= {max_codim} is ({eps})-regular for this function")
