"""(M, Sigma)-freeness machinery: exhaustive pattern search and exact
counting, the randomized k-query tester, minimum repair distance at desk
scale, instance hitting numbers and the generalized von Neumann
inequality check.

Degenerate linear maps count. Freeness quantifies over ALL linear maps,
including non-injective ones and the zero map, so any f with f(0) = 1
already contains the all-ones pattern of every matroid. This surprises
users but is what the definition says.

Linear maps are restricted to the span of the ground vectors: an
assignment gives each vector of the matroid's canonical span basis an
image u_j in {0,1}^n. Ground vectors at the same linear form read f at
the same point, so the product over the ground set is a product over its
distinct forms. Each public entry builds one factor table once,
`_factors`: each form mapped to the AND of the lookups of its ground
vectors (for a pattern, [f = sigma_i], one array per distinct value of
Sigma; von_neumann_gap passes [f_i = 1]). The scan, the elimination, the
descent and the sampler all read that one table: nothing below the
entries sees Sigma, a truth table or a ground vector. Counts
(count_patterns, von_neumann_gap, and the freeness certificate of
find_pattern) sum over all 2^(n*r) assignments by one of two routes.
GF(2) variable elimination reads the factors at linear forms in
u_0..u_{r-1}: a variable in one factor sums to a row total, one in two
factors a, b becomes their XOR-correlation H(Ha * Hb) / 2^n, and one in
three or more is conditioned on, one broadcast axis in front of the
points per conditioned variable. The transforms H are boolfn's Hadamard
kernel. With S_a the largest sum of |a| over a row of points, every
value and partial sum in them is at most 2^n*S_a*S_b, so they run in
float64 when that is below 2^53 (float64 holds every integer up to it)
and in int64 otherwise. The supported scan applies first the factor of
each form that is one basis variable alone (a single bit, which every
graphic matroid has): only the images u_j its lookup allows, its support
S_j, are walked. Before any int64 factor is built, a dry run over the
forms prices the elimination, and the scan is priced at _SCAN_COST *
(factors left + 1) * prod_j |S_j|, the supports counted, not listed.
Each count takes the cheaper route alone, running the steps the dry run
priced, slice widths included; an empty support answers 0 before any
chunk. Counts are int64: n*r past 62 bits is refused up front, and past
41 bits a correlation whose 2^n*S_a*S_b reaches 2^63 is refused when it
is met, both with BudgetExceededError.

Enumeration order contract (governs the witnesses of find_pattern):
assignment index t in [0, 2^(n*r)) gives basis image u_j = bits
[j*n, (j+1)*n) of t. The first violation reported is the one with the
smallest t. The supported scan walks the supported images in mixed
radix with u_0 fastest, which is the order of t with the unsupported
assignments left out, so its first match is the smallest t.
find_pattern always walks the scan's first chunk and stops at a match
in it. Otherwise the priced route decides the rest, the chunk counted
as walked: the rest of the scan, or the descent, u_{r-1} first, each
image fixed to the smallest value whose conditioned count is positive,
so that a witness costs r counts wherever it lies.

One loop, `_match`, reads each factor at its form's point, so f at
L(v_1), ..., L(v_k), for a batch of maps L, given as a (basis, batch)
array of basis images. Once fewer than 1/8 of a batch's maps survive a
factor with two or more still to come, the survivors' columns become a
smaller batch for the same loop, whose answer is written back into the
same bool array, so counts and first matches do not change. The
supported scan, `_scan_chunks`, feeds it the factors left past the
supports and a chunk of supported assignments: the low images
u_0..u_{l-1} whose support sizes multiply to at most _CHUNK form one
constant block, built once, and each chunk pairs it with a slice of S_l
and one image of each higher u_j, the only rows rewritten from chunk to
chunk. A chunk yields its columns, and t is read off a match's column as
sum_j u_j << (j*n). run_tester feeds _match random images of the
presentation basis, the top n bits of raw PCG64 words, and a factor
table keyed by presentation forms. The cycle-count oracle
(brute_force_cycle_count) is the scan on C_k: the zero-sum k-tuples are
the assignments to its span basis, so it walks the (k-1)-tuples of ones
of f. The scan, the tester and the conditioned slices of the elimination
all work in blocks of at most _CHUNK entries (a tester block of at most
8 * _CHUNK images), sized so that a block's few int64 arrays stay in
cache.

min_repair_distance learns violations instead of checking every flip
set. Each instance find_pattern returns, on f or on a flipped candidate,
becomes a pair of bit masks over the flip positions: f ^ S contains it
iff S & care == want. Flip sets of one size form one int64 mask array in
`combinations` order, every learned pair filters it, and only the first
survivor is checked, so the search makes one find_pattern call per
violation learned (the implicit hitting set scheme of Moreno-Centeno and
Karp). REPAIR_CHECK_BUDGET counts flip sets by their position in that
order, whether checked or ruled out.

enumerate_instances builds the all-ones instances of each prefix of the
ground set as blocks of int32 rows, one column per element assigned. A
free element (one that tops no dependency word) extends every row by
every one of f; a forced element keeps the rows where the XOR of its
word's other columns is a one. Elements whose transposition is an
automorphism of M form a class (matroid._interchangeable), and a row is
kept only when its points are sorted within every class: one labeling
per within-class order, one leaf row per instance set on C_k. A free
element followed directly by a forced one is peeked through: the forced
XOR is read on the whole (rows x ones) grid, and only its survivors
become rows. No block holds more than _CHUNK grid entries, both axes
are split to keep it so, and the blocks are walked depth first, so
memory holds one block per level. Each leaf block is sorted within
rows, put in lexical order and cleared of equal neighbours before any
frozenset is built. The node budget counts the all-ones instances of
every prefix, pruned or not, and is priced before the walk: by the
bound from f's number of ones, and where that passes it by exact prefix
counts, a free level being the one before times the ones and a forced
one a count. pattern_hitting_number runs a branch and bound on the
resulting sets, bounded by HITTING_SET_BUDGET nodes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .boolfn import BooleanFunction, _hadamard, wht
from .errors import BudgetExceededError, DimensionMismatchError, InvalidInputError
from .gf2 import GFVector, LinearMap
from .matroid import BinaryMatroid, _forced_by, _interchangeable, _mask_bits

PATTERN_BUDGET_BITS = 30
VON_NEUMANN_BUDGET_BITS = 26
HITTING_INSTANCE_BUDGET = 10 ** 7
HITTING_SET_BUDGET = 10 ** 5
REPAIR_CHECK_BUDGET = 2 * 10 ** 6
TESTER_SAMPLE_BUDGET = 1 << 32    # maps per run_tester call; more are refused before any draw
_CHUNK = 1 << 14       # entries per block: a few such int64 arrays stay in L2 cache


def derive_seed(master: int, *shard: int) -> int:
    """The fixed rule for the CLI's per-trial, per-bucket and regularity
    seeds: feed (master, *shard) into a SeedSequence, take one 64-bit word."""
    ss = np.random.SeedSequence([master & (2 ** 64 - 1)] + [s & (2 ** 64 - 1) for s in shard])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PatternSpec:
    """The forbidden value string Sigma for a k-element matroid."""

    sigma: tuple[int, ...]

    def __post_init__(self):
        if not self.sigma or any(b not in (0, 1) for b in self.sigma):
            raise InvalidInputError("sigma must be a nonempty 0/1 tuple")

    @classmethod
    def from_string(cls, s: str) -> "PatternSpec":
        if set(s) - {"0", "1"}:
            raise InvalidInputError(f"not a 0/1 string: {s!r}")
        return cls(tuple(int(c) for c in s))

    @classmethod
    def all_ones(cls, k: int) -> "PatternSpec":
        return cls((1,) * k)

    @property
    def k(self) -> int:
        return len(self.sigma)

    @property
    def ones_count(self) -> int:
        return sum(self.sigma)

    @property
    def zeros_count(self) -> int:
        return self.k - self.ones_count

    def is_all_ones(self) -> bool:
        return self.ones_count == self.k

    def __str__(self):
        return "".join(str(b) for b in self.sigma)


@dataclass(frozen=True)
class PatternInstance:
    """A witness: images of the span basis plus the evaluated points."""

    map: LinearMap
    points: tuple[GFVector, ...]


@dataclass(frozen=True)
class CountReport:
    """Exact violation counts for (f, M, Sigma).

    span_count counts assignments to the canonical span basis (the
    enumeration-order contract above); every such assignment extends to
    exactly 2^(n*(m-r)) full linear maps {0,1}^m -> {0,1}^n, where m is
    the matroid's presentation dimension, giving full_map_count.
    """

    n: int
    rank: int
    ambient_dim: int
    span_count: int

    @property
    def span_total(self) -> int:
        return 1 << (self.n * self.rank)

    @property
    def full_map_count(self) -> int:
        return self.span_count << (self.n * (self.ambient_dim - self.rank))

    @property
    def full_map_total(self) -> int:
        return 1 << (self.n * self.ambient_dim)

    @property
    def density(self) -> Fraction:
        return Fraction(self.span_count, self.span_total)


def check_pattern_args(n: int, m: BinaryMatroid, sigma: PatternSpec,
                       budget_bits: int) -> None:
    """Refuse (f, M, Sigma) on {0,1}^n for find_pattern and count_patterns
    under budget_bits from the arguments alone, so a caller can check
    before it builds f or anything else."""
    if budget_bits < 0:
        raise InvalidInputError(f"budget must be nonnegative, got {budget_bits}")
    if sigma.k != m.k:
        raise DimensionMismatchError(
            f"sigma length {sigma.k} does not match matroid size {m.k}")
    if n * m.rank > budget_bits:
        raise BudgetExceededError(
            f"n*rank = {n * m.rank} exceeds exhaustive budget {budget_bits}")
    if n * m.rank > 62:     # a count of up to 2^(n*rank) could leave int64
        raise BudgetExceededError(
            f"n*rank = {n * m.rank}: an exact count past 62 bits could leave int64")


def _lookups(table: np.ndarray, sigma: Sequence[int]) -> list[np.ndarray]:
    """[table == sigma[i]] per ground vector, built once per distinct
    value."""
    built = {s: table == s for s in set(sigma)}
    return [built[s] for s in sigma]


def _factors(lookups: Sequence[np.ndarray], coords: Sequence[int]) -> dict:
    """The factor table: each form coords[i], a mask over basis vectors,
    mapped to the AND of lookups[i] over the ground vectors at it, in
    order of first occurrence."""
    factors: dict = {}
    for lookup, form in zip(lookups, coords):
        old = factors.get(form)
        factors[form] = lookup if old is None else old & lookup
    return factors


def _match(factors: dict, cols: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The evaluation kernel: for a batch of linear maps, which ones send
    every form of the factor table to a point where its lookup is true.

    cols is an int64 array of shape (basis, batch), cols[j] the images of
    basis vector j across the batch. scratch is an int64 buffer of the
    batch's length; it holds the points of each form that combines two or
    more basis columns, and point 0, which form 0 reads under every map.
    Stops early once no map in the batch can match.

    Once fewer than 1/8 of the maps survive a factor and two or more
    factors are still to come, this kernel runs again on the survivors'
    columns and writes its answer back; the returned array is the same.
    """
    items = list(factors.items())
    match = None
    for i, (form, lookup) in enumerate(items):
        pts = None
        for j in _mask_bits(form):
            pts = cols[j] if pts is None else np.bitwise_xor(pts, cols[j], scratch)
        if pts is None:
            scratch.fill(0)
            pts = scratch
        good = lookup.take(pts)
        if match is None:
            match = good
        else:
            match &= good
        if len(items) - i < 3:
            if not match.any():
                break
        elif np.count_nonzero(match) * 8 < len(match):
            alive = np.flatnonzero(match)
            match[alive] = _match(dict(items[i + 1:]), cols.take(alive, axis=1),
                                  scratch[:len(alive)])
            break
    return match


def _scan_chunks(factors: dict, n: int, r: int):
    """Yield (cols, match) over the supported assignments, in index order.

    factors is the factor table over {0,1}^n. Only images u_j that the
    factor of the form u_j allows are walked, in mixed radix with u_0
    fastest, so the walk is in the order of t. A chunk's cols is an int64
    (r, width) array (one row of zeros at rank 0), cols[j] the images of
    u_j; match marks the columns at which the other factors, form 0
    included, hold (all of them when there are none), so t = sum_j
    cols[j] << (j*n). The low images whose product of support sizes fits
    one _CHUNK form a block built once. Each chunk pairs it with an even
    slice of the next support and one image of every higher u_j, and
    only those rows are rewritten, in one reused (r, chunk) buffer with
    one XOR scratch buffer. An empty support yields no chunk.
    """
    # rank 0 walks its one assignment as a single image 0 that no form reads
    supports = [np.arange(1 << n, dtype=np.int64) if a is None else a.nonzero()[0]
                for a in (factors.get(1 << j) for j in range(r))] or [np.zeros(1, dtype=np.int64)]
    rest = {form: a for form, a in factors.items() if form & (form - 1) or not form}
    sizes = [len(s) for s in supports]
    if 0 in sizes:
        return
    low, width = 0, 1    # u_0..u_{low-1} form the constant block
    while low < len(sizes) - 1 and width * sizes[low] <= _CHUNK:
        width *= sizes[low]
        low += 1
    head = supports[low]    # cut into even slices of at most _CHUNK // width images
    per = -(-sizes[low] // -(-sizes[low] // (_CHUNK // width)))
    cols = np.empty((len(sizes), per * width), dtype=np.int64)
    stride = 1
    for j in range(low):
        cols[j].reshape(-1, sizes[j], stride)[...] = supports[j][:, None]
        stride *= sizes[j]
    scratch = np.empty(per * width, dtype=np.int64)
    for high in range(math.prod(sizes[low + 1:])):
        index = high
        for j in range(low + 1, len(sizes)):    # u_{low+1} fastest
            index, digit = divmod(index, sizes[j])
            cols[j].fill(supports[j][digit])
        for lo in range(0, sizes[low], per):
            part = head[lo:lo + per]
            size = len(part) * width
            cols[low, :size].reshape(-1, width)[...] = part[:, None]
            chunk = cols[:, :size]
            yield chunk, (_match(rest, chunk, scratch[:size]) if rest
                          else np.ones(size, dtype=bool))


# Variable elimination. The count is
#     sum over u_0..u_{r-1} in {0,1}^n of prod_c g_c(sum_{j in c} u_j)
# over the forms c of the factor table, g_c their lookups.
# A variable that drops out of every form without being summed out
# contributes 2^n.

_STEP_COST = 1 << 12     # fixed price of one elimination step, in element operations
_SCAN_COST = 3           # per supported assignment per factor read: ~1-2 ns against 0.5-0.8 ns per op
_INT64_LIMIT = 1 << 63
_FLOAT64_EXACT = 1 << np.finfo(np.float64).nmant + 1    # float64 holds every integer below it


def _plan(forms: Sequence[int], n: int, keep: int = 0) -> tuple[list[tuple[int, int]], int]:
    """A dry run over the factor forms alone: the steps, in order, and
    their price in element operations. A step is (j, width): variable
    u_j is summed out when width is 0, else conditioned on in slices of
    `width` points. Variables in the mask `keep` are never summed out.
    Choices are greedy: the variable in the fewest factors is
    eliminated; when every variable sits in three or more, the one in
    the most is conditioned."""
    size = 1 << n
    forms = {c for c in forms if c}
    steps = []
    cost = _STEP_COST    # setting the factors up
    batch, runs = 1, 1   # rows per slice, slices the remaining steps run on
    while True:
        occ = Counter(j for c in forms for j in range(c.bit_length())
                      if (c & ~keep) >> j & 1)
        if not occ:
            break
        j = min(occ, key=lambda v: (occ[v], v))
        width = 0
        if occ[j] > 2:
            j = max(occ, key=lambda v: (occ[v], -v))
            width = min(size, max(1, _CHUNK // (batch * size)))
            runs *= -(-size // width)
            batch *= width
            forms = {c & ~(1 << j) for c in forms} - {0}
            cost += runs * (_STEP_COST + batch * size * len(forms))
        else:
            mine = [c for c in forms if c >> j & 1]
            forms.difference_update(mine)
            if len(mine) == 2:
                forms.add(mine[0] ^ mine[1])
                # three transforms, priced as n radix-2 levels each, the product, shift and sums
                cost += runs * batch * size * (12 * n + 6)
            cost += runs * (_STEP_COST + batch * size)
        steps.append((j, width))
    return steps, cost


def _put(factors: dict, form: int, values: np.ndarray) -> None:
    """Add a factor; one on a form already present merges pointwise,
    broadcasting over the conditioned axes. Form 0 holds the scalar of
    each conditioned point, the last axis of extent 1: a factor read at
    the zero form contributes its value at point 0."""
    if not form:
        values = values[..., :1]
    old = factors.get(form)
    factors[form] = values if old is None else old * values


def _replay(factors: dict, steps: Sequence[tuple[int, int]], n: int) -> np.ndarray:
    """Run _plan's `steps` on the factors, which map a form to an int64
    array of shape (..., 2^n): one leading axis per conditioned variable,
    of extent 1 where the factor does not read it, and the points last.
    What is left reads at most one variable u_j: returns the total over
    the conditioned axes for every value of u_j (shape (2^n,)), or of
    shape (1,) when no factor is left on u_j. A correlation runs in
    float64 or int64 by its bound 2^n*S_a*S_b (module docstring); raises
    BudgetExceededError when that bound could leave int64. Only the
    correlation is guarded: the sum-outs, the merges and the guard's own
    sums run in unchecked int64, which holds every total of 0/1 lookups,
    at most 2^(n*r) <= 2^62 (check_pattern_args); signed or larger
    factors need a guard of their own first."""
    for pos, (j, width) in enumerate(steps):
        if width:     # u_j fixed to every point, `width` points per slice
            points = np.arange(1 << n, dtype=np.int64)
            return sum(_replay(_fix(factors, j, points[lo:lo + width], n), steps[pos + 1:], n)
                       for lo in range(0, len(points), width))
        mine = [c for c in factors if c >> j & 1]
        a = factors.pop(mine[0])
        if len(mine) == 1:
            _put(factors, 0, a.sum(axis=-1, keepdims=True))
            continue
        b = factors.pop(mine[1])
        sa, sb = (int(np.abs(x).sum(axis=-1).max()) for x in (a, b))
        bound = sa * sb << n
        if bound >= _INT64_LIMIT:
            raise BudgetExceededError(
                f"eliminating u_{j}: its XOR-correlation 2^{n} * {sa} * {sb} "
                "could leave int64")
        dtype = np.float64 if bound < _FLOAT64_EXACT else np.int64
        corr = _hadamard(_hadamard(a, dtype) * _hadamard(b, dtype), dtype)
        _put(factors, mine[0] ^ mine[1], corr.astype(np.int64, copy=False) >> n)
    # _plan conditions only variables that sit in three or more factors, so
    # every conditioned axis survives, at full extent, into this product.
    rest = factors.pop(0)
    for a in factors.values():    # the one form left, on the kept variable
        rest = rest * a
    return rest.reshape(-1, rest.shape[-1]).sum(axis=0)


def _int64(factors: dict) -> dict:
    """The factor table as int64 arrays over the 2^n points, for _replay:
    form 0 is always present, its value at point 0."""
    out = {0: np.ones(1, dtype=np.int64)}
    for form, lookup in factors.items():
        _put(out, form, lookup.astype(np.int64))
    return out


def _priced(factors: dict, n: int, r: int, keep: int = 0,
            walked: int = 0) -> Optional[list[tuple[int, int]]]:
    """The route of an exact call: _plan's steps when they are priced
    below the scan, else None for the scan. The scan is priced at
    _SCAN_COST per supported assignment per factor it still reads, plus
    one for the walk, over the supported assignments past the first
    `walked`; the support sizes are counted, not listed. Callers have
    refused n*r past 62 bits (check_pattern_args)."""
    unary = [factors.get(1 << j) for j in range(r)]
    supported = math.prod(1 << n if a is None else int(np.count_nonzero(a)) for a in unary)
    read = len(factors) - sum(a is not None for a in unary)
    scan = _SCAN_COST * (read + 1) * (supported - walked)
    if scan <= _STEP_COST:    # no plan costs less
        return None
    steps, cost = _plan(factors, n, keep)
    return steps if cost < scan else None


def _count(factors: dict, n: int, r: int) -> int:
    """Exact number of span-basis assignments at which every factor
    holds, by the route _priced chooses."""
    steps = _priced(factors, n, r)
    if steps is None:
        return sum(int(np.count_nonzero(match)) for _, match in _scan_chunks(factors, n, r))
    total = _replay(_int64(factors), steps, n)
    return int(total[0]) << (n * (r - len(steps)))


def _fix(factors: dict, j: int, values: np.ndarray, n: int) -> dict:
    """The factors with variable u_j set to each entry of the int64 array
    `values`, on one new axis in front of the points: a factor that reads
    u_j is shifted by each value, extent len(values), and any other
    gains the axis at extent 1."""
    shift = np.arange(1 << n, dtype=np.int64) ^ values[:, None]
    out: dict = {}
    for form, a in factors.items():
        _put(out, form & ~(1 << j), a[..., shift] if form >> j & 1 else a[..., None, :])
    return out


def _descend(factors: dict, n: int, r: int) -> Optional[int]:
    """The smallest assignment index at which every factor holds, by
    elimination (r >= 1): from u_{r-1} down to u_0, count the completions
    for every value of u_j with the higher images fixed, and fix u_j to
    the first value that has one. None when no assignment qualifies (the
    first round is the count). The cost is r counts, wherever the
    witness lies."""
    factors = _int64(factors)
    t = 0
    for j in reversed(range(r)):
        steps, _ = _plan(factors, n, 1 << j)
        hits = np.flatnonzero(_replay(dict(factors), steps, n))
        if not hits.size:
            return None
        value = int(hits[0])
        t |= value << (j * n)
        factors = _fix(factors, j, np.array([value]), n)
    return t


def _instance(t: int, n: int, r: int, coords: Sequence[int]) -> PatternInstance:
    """The witness of assignment index t."""
    images = tuple(GFVector(n, (t >> (j * n)) & ((1 << n) - 1)) for j in range(r))
    points = []
    for cmask in coords:
        bits = 0
        for j in _mask_bits(cmask):
            bits ^= images[j].bits
        points.append(GFVector(n, bits))
    return PatternInstance(LinearMap(r, images), tuple(points))


def _first(factors: dict, n: int, r: int) -> Optional[int]:
    """The smallest assignment index at which every factor holds, or
    None. The first chunk of the supported scan is always walked; when it
    holds no match, _priced, with u_{r-1} kept and that chunk counted as
    walked, chooses between the descent and the rest of the scan."""
    for i, (cols, match) in enumerate(_scan_chunks(factors, n, r)):
        if match.any():
            return sum(u << (j * n) for j, u in enumerate(cols[:, match.argmax()].tolist()))
        if not i and _priced(factors, n, r, 1 << r >> 1, cols.shape[1]) is not None:
            return _descend(factors, n, r)
    return None


def find_pattern(f: BooleanFunction, m: BinaryMatroid, sigma: PatternSpec,
                 budget_bits: int = PATTERN_BUDGET_BITS) -> Optional[PatternInstance]:
    """First violating instance in enumeration order, or None when f is
    (M, Sigma)-free (exhaustive certificate). One chunk of the supported
    scan runs first; a witness in it ends the call. Otherwise the priced
    route finishes: the descent through the basis images, at the price
    of r counts wherever the witness lies, or the rest of the scan."""
    check_pattern_args(f.n, m, sigma, budget_bits)
    coords = m.span_coords
    t = _first(_factors(_lookups(f.table, sigma.sigma), coords), f.n, m.rank)
    return None if t is None else _instance(t, f.n, m.rank, coords)


def count_patterns(f: BooleanFunction, m: BinaryMatroid, sigma: PatternSpec,
                   budget_bits: int = PATTERN_BUDGET_BITS) -> CountReport:
    """Exact number of span-basis assignments realizing Sigma."""
    check_pattern_args(f.n, m, sigma, budget_bits)
    count = _count(_factors(_lookups(f.table, sigma.sigma), m.span_coords), f.n, m.rank)
    return CountReport(n=f.n, rank=m.rank, ambient_dim=m.m, span_count=count)


def cycle_count_fourier(f: BooleanFunction, k: int) -> int:
    """Number of k-tuples (x_1..x_k) with sum 0 and all f(x_i) = 1,
    computed exactly as (1/2^n) * sum_a coeffs[a]^k."""
    if k < 3:
        raise InvalidInputError(f"cycle length k={k} must be at least 3")
    total = wht(f).power_sum(k)
    size = 1 << f.n
    assert total % size == 0
    return total // size


def brute_force_cycle_count(f: BooleanFunction, k: int) -> int:
    """Independent oracle on the physical side: the scan over all zero-sum
    k-tuples, as assignments to C_k's span basis (x_1..x_{k-1} free, x_k
    their sum)."""
    if k < 3:
        raise InvalidInputError(f"cycle length k={k} must be at least 3")
    if f.n * (k - 1) > PATTERN_BUDGET_BITS:
        raise BudgetExceededError("tuple enumeration too large")
    coords = [1 << j for j in range(k - 1)] + [(1 << (k - 1)) - 1]
    return sum(int(np.count_nonzero(match)) for _, match in
               _scan_chunks(_factors(_lookups(f.table, (1,) * k), coords), f.n, k - 1))


def check_tester_args(samples: int, seed: int = 0) -> None:
    """Refuse run_tester's samples and seed from the numbers alone, so a
    caller can check before it builds f or anything else: samples below
    1 or a negative seed, and more than TESTER_SAMPLE_BUDGET samples."""
    if samples < 1:
        raise InvalidInputError("samples must be positive")
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    if samples > TESTER_SAMPLE_BUDGET:
        raise BudgetExceededError(
            f"{samples} samples exceed the tester budget of {TESTER_SAMPLE_BUDGET}")


def run_tester(f: BooleanFunction, m: BinaryMatroid, sigma: PatternSpec,
               samples: int, seed: int) -> tuple[int, Fraction]:
    """The k-query tester: draw uniformly random linear maps (independent
    uniform images of the m presentation-basis vectors) and reject a draw
    iff the evaluated tuple equals Sigma.

    RNG: numpy PCG64 seeded with `seed` (a nonnegative int); identical
    seeds reproduce the rejection sequence bit for bit, whatever the block
    size. Draw d takes the images of basis vectors 0..m-1 from the next m
    values of integers(0, 2^n) on np.random.Generator(PCG64(seed)), in
    order.

    Samples run in blocks of _CHUNK maps, fewer when m > 8 so that a
    block holds at most 8 * _CHUNK images. A bounded draw from [0, 2^n)
    is the top n bits of one 32-bit word (Lemire's method never rejects
    for a power-of-two bound; n = 0 draws nothing), and integers' 32-bit
    words are the raw 64-bit PCG64 outputs read as little-endian pairs,
    low half first. So each block reads raw words through a '<u8' to
    '<u4' view (free on a little-endian host, correct on any), shifts
    them in place and copies them, transposed, into one reused int64
    column buffer, one contiguous row per basis vector. A block holds an
    even number of maps, at least 2, so every block but the last reads
    whole raw words: no half-word carries into the next block, and the
    stream above is unchanged. check_tester_args refuses the samples and
    the seed before any draw. Within a block, _match runs again on the
    surviving maps' columns once fewer than 1/8 remain.
    """
    if sigma.k != m.k:
        raise DimensionMismatchError(
            f"sigma length {sigma.k} does not match matroid size {m.k}")
    check_tester_args(samples, seed)
    bitgen = np.random.PCG64(seed)
    factors = _factors(_lookups(f.table, sigma.sigma), m.ints)
    block = min(samples, max(2, min(_CHUNK, 8 * _CHUNK // m.m) & ~1))
    columns = np.zeros((m.m, block), dtype=np.int64)
    scratch = np.empty(block, dtype=np.int64)
    rejections = 0
    remaining = samples
    while remaining:
        batch = min(remaining, block)
        cols = columns[:, :batch]
        if f.n:
            need = batch * m.m
            words = bitgen.random_raw(-(-need // 2)).astype("<u8", copy=False).view("<u4")[:need]
            words >>= 32 - f.n
            cols[...] = words.reshape(batch, m.m).T
        match = _match(factors, cols, scratch[:batch])
        rejections += int(np.count_nonzero(match))
        remaining -= batch
    return rejections, Fraction(rejections, samples)


@dataclass(frozen=True)
class RepairReport:
    flips: int
    delta: Fraction
    witness: BooleanFunction


def _next_level(level: np.ndarray, width: int, size: int, limit: int) -> np.ndarray:
    """The first `limit` size-subsets of range(width) as int64 bit masks,
    in `combinations` order, from `level`, all (size-1)-subsets in that
    order. The (size-1)-subsets above i are the last C(width-1-i, size-1)
    of `level`; each takes i as its least element."""
    parts, got = [level[:0]], 0
    for i in range(width - size + 1):
        if got >= limit:
            break
        tail = level[len(level) - math.comb(width - 1 - i, size - 1):]
        parts.append(tail | (1 << i))
        got += len(tail)
    return np.concatenate(parts)[:limit]


def _learned(inst: PatternInstance, lookups: Sequence[np.ndarray],
             bit: dict[int, int]) -> tuple[int, int]:
    """The (care, want) masks of a violating instance: f ^ S contains it
    iff S & care == want, where want marks its points p_i at which f's
    lookups[i] is false."""
    care = want = 0
    for p, lookup in zip(inst.points, lookups):
        care |= bit[p.bits]
        if not lookup[p.bits]:
            want |= bit[p.bits]
    return care, want


def min_repair_distance(f: BooleanFunction, m: BinaryMatroid, sigma: PatternSpec
                        ) -> RepairReport:
    """Exact minimum number of table flips to reach (M, Sigma)-freeness.

    For the monotone pattern Sigma = 1^k only ones need clearing (raising
    a 0 to 1 never removes an all-ones instance), so the search runs over
    subsets of ones(f), capped at 24 ones. Other patterns search all flip
    sets over domains of at most 16 points.

    Flip sets are tried by size, in `combinations` order, and the first
    free one is the witness. Each instance find_pattern returns is
    learned as a (care, want) pair, and every later flip set S with
    S & care == want is dropped unchecked, since f ^ S still contains
    that instance. So only the first survivor of each filter costs a
    find_pattern call. REPAIR_CHECK_BUDGET bounds the 1-based position of
    a flip set in the global order, checked or dropped alike: the search
    refuses when no set up to that position is free, and builds no level
    past it.
    """
    inst = find_pattern(f, m, sigma)
    if inst is None:
        return RepairReport(0, Fraction(0), f)
    if sigma.is_all_ones():
        points = f.ones()
        if len(points) > 24:
            raise BudgetExceededError(f"{len(points)} ones exceed the repair cap of 24")
    else:
        points = range(1 << f.n)
        if len(points) > 16:
            raise BudgetExceededError(
                f"2^n = {len(points)} exceeds the general repair cap of 16")
    width = len(points)
    bit = {p: 1 << i for i, p in enumerate(points)}
    lookups = _lookups(f.table, sigma.sigma)
    rules = [_learned(inst, lookups, bit)]
    level = np.zeros(1, dtype=np.int64)
    tried = 0
    for size in range(1, width + 1):
        total = math.comb(width, size)
        level = _next_level(level, width, size, min(total, REPAIR_CHECK_BUDGET - tried))
        keep = np.ones(len(level), dtype=bool)
        for care, want in rules:
            keep &= (level & care) != want
        alive = np.flatnonzero(keep)
        while len(alive):
            flips = int(level[alive[0]])
            table = f.table.copy()
            table[[p for p, b in bit.items() if flips & b]] ^= 1
            candidate = BooleanFunction(f.n, table)
            inst = find_pattern(candidate, m, sigma)
            if inst is None:
                return RepairReport(size, Fraction(size, 1 << f.n), candidate)
            care, want = _learned(inst, lookups, bit)
            rules.append((care, want))
            alive = alive[1:][(level[alive[1:]] & care) != want]
        if len(level) < total:
            raise BudgetExceededError(
                f"repair search budget of {REPAIR_CHECK_BUDGET} flip sets exceeded at flip-set "
                f"size {size}: {len(level)} of the {total} sets of that size ruled out")
        tried += total
    raise AssertionError("unreachable: clearing every 1 always yields a free function")


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """A block of instances sorted within each row, then put in lexical
    order with equal neighbours dropped, so that no frozenset is built
    for a repeat within the block."""
    rows = np.sort(rows, axis=1)
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new]


def check_instance_walk(m: BinaryMatroid, ones: int, budget: int = HITTING_INSTANCE_BUDGET,
                        forced_count=None) -> None:
    """Refuse enumerate_instances of M in a function with `ones` ones:
    raise its BudgetExceededError at the first prefix v_0..v_{d-1} at
    which N_1 + ... + N_d passes budget, N_d being the prefix's number of
    all-ones instances; the message names element d, counted from 1, out
    of k. A free element is independent of the ones before it, so it
    multiplies N by `ones`; a forced one's N_d is forced_count(d). Without
    forced_count the levels stop at M's first forced element, so M and
    `ones` alone refuse exactly the walks whose leading free levels pass
    budget. Once some N_d is 0, every later one is."""
    level, total = 1, 0
    for d, rest in enumerate(_forced_by(m), 1):
        if rest is None:
            level *= ones
        elif forced_count is None:
            return
        else:
            level = forced_count(d)
        total += level
        if total > budget:
            raise BudgetExceededError(f"instance enumeration exceeded {budget} nodes; "
                                      f"deepest element {d} of {m.k}")
        if not level:
            return


def _prefix_count(f: BooleanFunction, m: BinaryMatroid, d: int) -> int:
    """The number of all-ones instances of M's first d elements in f,
    counted by _count on the prefix's own span coords. Like every count,
    it refuses a prefix whose n*rank passes 62 bits."""
    prefix = BinaryMatroid(m.vectors[:d])
    if f.n * prefix.rank > 62:
        raise BudgetExceededError(
            f"pricing the instance enumeration: the first {d} elements have n*rank = "
            f"{f.n * prefix.rank}, and an exact count past 62 bits could leave int64")
    return _count(_factors(_lookups(f.table, (1,) * d), prefix.span_coords), f.n, prefix.rank)


def enumerate_instances(f: BooleanFunction, m: BinaryMatroid,
                        budget: int = HITTING_INSTANCE_BUDGET) -> list[frozenset[int]]:
    """All distinct point sets of all-ones instances of M in f, found by
    assigning ones of f to ground elements in order. An element that
    tops a dependency word takes the one point the word forces, if that
    point is a one.

    Only one labeling per within-class order is walked: where
    _interchangeable(M) gives j a previous element i of its class, a
    labeling is kept only when p_j >= p_i. Those transpositions generate
    a product of symmetric groups inside Aut(M), which maps labelings to
    labelings and keeps their point sets, and each orbit holds exactly
    one labeling sorted within every class, so the sets are those of the
    full walk. The instances of each prefix of the ground set are built a
    block of int32 rows at a time, and the blocks are walked depth first.

    The call raises BudgetExceededError iff N_1 + ... + N_k exceeds
    `budget`, where N_d counts the all-ones instances of the prefix
    v_0..v_{d-1}, pruned or not: the nodes of the point-at-a-time DFS.
    The total is priced before the walk, f's ones counted but not
    listed. When the cheap bound, sum_d ones^(free elements among the
    first d), is within budget, nothing is refused; otherwise each prefix
    is counted exactly, a free level as ones * N_{d-1} and a forced one by
    _prefix_count, and the first level whose running total passes budget
    is named (counted from 1, out of k). Like count_patterns, that count
    refuses a prefix whose n*rank passes 62 bits, whatever its total; no
    CLI command reaches one. f's 0/1 table is read in place."""
    forced_by = _forced_by(m)
    k = m.k
    ones_count = int(np.count_nonzero(f.table))
    if sum(ones_count ** d for d in itertools.accumulate(r is None for r in forced_by)) > budget:
        check_instance_walk(m, ones_count, budget, lambda d: _prefix_count(f, m, d))
    prev = _interchangeable(m)
    is_one = f.table.view(bool)
    ones = np.flatnonzero(is_one).astype(np.int32)
    found: set[frozenset[int]] = set()

    def walk(rows: np.ndarray) -> None:
        d = rows.shape[1]
        if d == k:
            found.update(map(frozenset, _distinct_rows(rows).tolist()))
            return
        rest = forced_by[d]
        if rest is not None:
            point = np.bitwise_xor.reduce(rows[:, list(rest)], axis=1)
            keep = is_one[point]
            if prev[d] is not None:
                keep &= point >= rows[:, prev[d]]
            keep = np.flatnonzero(keep)
            if len(keep):
                walk(np.column_stack((rows[keep], point[keep])))
            return
        peek = forced_by[d + 1] if d + 1 < k else None
        for lo in range(0, len(ones), _CHUNK):
            part = ones[lo:lo + _CHUNK]
            step = _CHUNK // len(part)
            for r in range(0, len(rows), step):
                block = rows[r:r + step]
                # keep[i, c]: row i extended by part[c], and by the forced
                # element after d when it is peeked through, is walked
                keep = np.ones((len(block), len(part)), dtype=bool)
                if prev[d] is not None:
                    keep &= part[None, :] >= block[:, prev[d], None]
                if peek is not None:
                    base = np.bitwise_xor.reduce(block[:, [j for j in peek if j != d]], axis=1)
                    grid = base[:, None] ^ (part if d in peek else np.zeros_like(part))[None, :]
                    keep &= is_one[grid]
                    low = prev[d + 1]
                    if low is not None:
                        keep &= grid >= (part[None, :] if low == d else block[:, low, None])
                hit = np.flatnonzero(keep)
                if len(hit):
                    row, col = np.divmod(hit, len(part))
                    cols = [block[row], part[col]]
                    if peek is not None:
                        cols.append(grid.ravel()[hit])
                    walk(np.column_stack(cols))

    walk(np.zeros((1, 0), dtype=np.int32))
    return sorted(found, key=sorted)


def _min_hitting_set(edges: list[frozenset[int]]) -> int:
    """Exact minimum hitting set size by branch and bound. A node is a
    call of the search; past HITTING_SET_BUDGET of them it raises
    BudgetExceededError with the best size found so far and the root's
    lower bound."""
    edges = sorted(set(edges), key=len)
    best = len({x for e in edges for x in e})
    nodes = 0

    def lower_bound(active: list[frozenset[int]]) -> int:
        used: set[int] = set()
        lb = 0
        for e in active:
            if not (e & used):
                lb += 1
                used |= e
        return lb

    def rec(active: list[frozenset[int]], chosen: int):
        nonlocal best, nodes
        nodes += 1
        if nodes > HITTING_SET_BUDGET:
            raise BudgetExceededError(
                f"hitting-set search exceeded {HITTING_SET_BUDGET} nodes; best hitting set "
                f"so far {best} points, root lower bound {lower_bound(edges)}")
        if not active:
            best = min(best, chosen)
            return
        if chosen + lower_bound(active) >= best:
            return
        edge = min(active, key=len)
        for x in sorted(edge):
            rest = [e for e in active if x not in e]
            rec(rest, chosen + 1)

    rec(edges, 0)
    return best


def pattern_hitting_number(f: BooleanFunction, m: BinaryMatroid) -> int:
    """Minimum number of ones whose removal destroys every all-ones
    instance; equals min_repair_distance for Sigma = 1^k."""
    return _min_hitting_set(enumerate_instances(f, m))


@dataclass(frozen=True)
class VonNeumannReport:
    lhs: Fraction
    rhs_fourth_power: Fraction
    holds: bool


def check_von_neumann_args(m: BinaryMatroid, n: int) -> None:
    """Refuse (M, n) for von_neumann_gap from M and n alone, so a caller
    can check before it draws any function."""
    if not m.has_complexity_one:
        raise InvalidInputError("von Neumann check requires a complexity-1 matroid")
    if n * m.rank > VON_NEUMANN_BUDGET_BITS:
        raise BudgetExceededError(
            f"n*rank = {n * m.rank} exceeds budget {VON_NEUMANN_BUDGET_BITS}")


def von_neumann_gap(fs: Sequence[BooleanFunction], m: BinaryMatroid) -> VonNeumannReport:
    """Check E_L[prod f_i(L(v_i))] <= min_i (sum_a f_i^(a)^4)^(1/4) on a
    complexity-1 matroid. The verdict compares exact fourth powers."""
    if len(fs) != m.k:
        raise InvalidInputError(f"need {m.k} functions, got {len(fs)}")
    n = fs[0].n
    for g in fs:
        if g.n != n:
            raise DimensionMismatchError("all functions must share one domain")
    check_von_neumann_args(m, n)
    count = _count(_factors([g.table == 1 for g in fs], m.span_coords), n, m.rank)
    lhs = Fraction(count, 1 << (n * m.rank))
    rhs4 = min(Fraction(wht(g).power_sum(4), 1 << (4 * n)) for g in fs)
    return VonNeumannReport(lhs=lhs, rhs_fourth_power=rhs4, holds=lhs ** 4 <= rhs4)
