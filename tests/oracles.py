"""Test oracles and fixtures: constructors and reference operations that
the tests need and no command does, written as plain functions over the
package's types."""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

from matroidlab.boolfn import BooleanFunction
from matroidlab.errors import BudgetExceededError, DimensionMismatchError, InvalidInputError
from matroidlab.families import FamilyId, _family_tables, _free_by_weight
from matroidlab.gf2 import GFVector, LinearMap, Subspace, rank_and_basis
from matroidlab.matroid import BinaryMatroid, Graph, _circuit_words, _complexity_at, _forced_by
from matroidlab.tester import PatternSpec, _factors, _lookups, _scan_chunks


def from_ones(n: int, ones) -> BooleanFunction:
    """The function on {0,1}^n that is 1 exactly at the point indices `ones`."""
    table = np.zeros(1 << n, dtype=np.uint8)
    for x in ones:
        if not 0 <= x < (1 << n):
            raise InvalidInputError(f"point {x} outside {{0,1}}^{n}")
        table[x] = 1
    return BooleanFunction(n, table)


def walsh_direct(f: BooleanFunction) -> np.ndarray:
    """coeffs[a] = sum_x f(x) (-1)^{popcount(a & x)} straight from the
    definition, as int64, through the full 2^n x 2^n sign matrix (n <= 10)."""
    if f.n > 10:
        raise InvalidInputError(f"direct Walsh transform is for n <= 10, got n={f.n}")
    points = np.arange(1 << f.n)
    parity = np.bitwise_count(points[:, None] & points[None, :]) & 1
    return (1 - 2 * parity.astype(np.int64)) @ f.table.astype(np.int64)


def butterfly(values: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform of a 2^n array, or
    of each row of a C-contiguous (batch, 2^n) array."""
    size = values.shape[-1]
    h = 1
    while h < size:
        blocks = values.reshape(-1, 2 * h)
        lo = blocks[:, :h].copy()
        hi = blocks[:, h:].copy()
        blocks[:, :h] = lo + hi
        blocks[:, h:] = lo - hi
        h *= 2
    return values


def matmul_items(patch) -> list:
    """Spy on np.matmul through the MonkeyPatch `patch`: every call
    appends (dtype, m * n * k of one stacked item) to the returned list.
    Both operands share the dtype."""
    matmul, calls = np.matmul, []

    def spy(a, b, **kwargs):
        assert a.dtype == b.dtype, (a.dtype, b.dtype)
        m = a.shape[-2] if a.ndim > 1 else 1
        cols = b.shape[-1] if b.ndim > 1 else 1
        calls.append((a.dtype, m * a.shape[-1] * cols))
        return matmul(a, b, **kwargs)

    patch.setattr(np, "matmul", spy)
    return calls


def constant(n: int, value: int) -> BooleanFunction:
    return BooleanFunction(n, np.full(1 << n, 1 if value else 0, dtype=np.uint8))


def from_table_int(n: int, key: int) -> BooleanFunction:
    """The function whose value at point x is bit x of key."""
    return BooleanFunction(n, [(key >> x) & 1 for x in range(1 << n)])


def table_int(f: BooleanFunction) -> int:
    """The table packed into one int: bit ix(x) = f(x)."""
    return sum(1 << int(x) for x in np.flatnonzero(f.table))


def complement(f: BooleanFunction) -> BooleanFunction:
    return BooleanFunction(f.n, 1 - f.table)


def pattern_complement(sigma: PatternSpec) -> PatternSpec:
    return PatternSpec(tuple(1 - b for b in sigma.sigma))


def index_int(sigma: PatternSpec) -> int:
    """sigma packed little-endian: bit i = sigma[i]."""
    return sum(b << i for i, b in enumerate(sigma.sigma))


def reduce(sub: Subspace, v: GFVector) -> GFVector:
    """Canonical coset representative of v (all pivot bits of sub cleared)."""
    if v.dim != sub.ambient_dim:
        raise DimensionMismatchError(f"dim {v.dim} vs ambient {sub.ambient_dim}")
    w = v.bits
    for b in sub.basis:
        if w >> (b.bit_length() - 1) & 1:
            w ^= b
    return GFVector(sub.ambient_dim, w)


def contains(sub: Subspace, v: GFVector) -> bool:
    return reduce(sub, v).bits == 0


def in_span(v: GFVector, vectors) -> bool:
    return contains(rank_and_basis(vectors, v.dim)[1], v)


def complexity_at(m: BinaryMatroid, i: int, cap: int) -> Optional[int]:
    """The partition complexity at element i: the minimum c <= cap such
    that the other elements split into c+1 classes none of whose spans
    contains v_i, or None past cap."""
    if not 0 <= i < m.k:
        raise InvalidInputError(f"element index {i} out of range")
    return _complexity_at(_circuit_words(m), i, cap)


def _edge_split_exists(g: Graph, e: tuple[int, int], min_side: int, side_ok) -> bool:
    """True iff E \\ {e} splits into A, B of at least min_side edges each
    with side_ok(A) and side_ok(B). Exhaustive over the splits, with the
    first remaining edge pinned to A (splits are unordered)."""
    if not g.is_connected():
        raise InvalidInputError("criterion defined for connected graphs")
    e = tuple(sorted(e))
    if e not in g.edges:
        raise InvalidInputError(f"edge {e} not in graph")
    rest = [x for x in g.edges if x != e]
    if len(rest) < 2 * min_side:
        return False
    free = rest[1:]
    for a in range(1 << len(free)):
        side_a = [rest[0]]
        side_b = []
        for idx, x in enumerate(free):
            (side_a if a >> idx & 1 else side_b).append(x)
        if len(side_a) < min_side or len(side_b) < min_side:
            continue
        if side_ok(side_a) and side_ok(side_b):
            return True
    return False


def cog_partition_criterion(g: Graph, e: tuple[int, int]) -> bool:
    """True iff the edges other than e split into two parts that each
    span a connected subgraph on all of V(G).

    Holding at every edge is sufficient but not necessary for complexity
    1 of M*(G): K_4 and K_3,3 fail it at every edge yet have complexity
    1. The exact per-edge condition is `cog_endpoint_partition_criterion`."""
    return _edge_split_exists(g, e, g.V - 1, lambda side: Graph(g.V, tuple(side)).is_connected())


def cog_endpoint_partition_criterion(g: Graph, e: tuple[int, int]) -> bool:
    """True iff E \\ {e} splits into A, B that EACH connect the endpoints
    of e, i.e. whose graphic vectors each span e_u + e_v. This, not the
    global-connectivity criterion above, is exactly complexity 1 of
    M*(G) at e: v_e lies in span(A) iff e bridges B + e, i.e. iff B
    fails to join e's endpoints."""
    def joins(side):
        target, *vectors = (GFVector(g.V, (1 << u) | (1 << v)) for u, v in [e, *side])
        return in_span(target, vectors)

    return _edge_split_exists(g, e, 1, joins)


def apply(lmap: LinearMap, x: GFVector) -> GFVector:
    """L(x): the XOR of the images of the basis vectors set in x."""
    if x.dim != lmap.domain_dim:
        raise DimensionMismatchError(f"dim {x.dim} vs domain {lmap.domain_dim}")
    bits = 0
    for j, image in enumerate(lmap.images):
        if x.bits >> j & 1:
            bits ^= image.bits
    return GFVector(lmap.images[0].dim, bits)


def random_nonsingular_map(n: int, rng) -> LinearMap:
    """A uniformly random invertible map on {0,1}^n (rejection sampling)."""
    while True:
        images = tuple(GFVector(n, int(rng.integers(0, 1 << n))) for _ in range(n))
        if rank_and_basis(images, dim=n)[0] == n:
            return LinearMap(n, images)


def subspaces_by_bit_loop(n: int, codim: int) -> list[tuple[int, ...]]:
    """The RREF bases of every subspace of {0,1}^n of the given
    codimension, each row built bit by bit from one free-entry counter:
    pivot sets in descending lexicographic order, row 0's free entries
    in the counter's lowest bits."""
    out = []
    for pivots in combinations(range(n - 1, -1, -1), n - codim):
        free_slots = [[b for b in range(p) if b not in pivots] for p in pivots]
        for c in range(1 << sum(len(s) for s in free_slots)):
            rows = []
            for p, slots in zip(pivots, free_slots):
                bits = 1 << p
                for idx, b in enumerate(slots):
                    if c >> idx & 1:
                        bits |= 1 << b
                rows.append(bits)
                c >>= len(slots)
            out.append(tuple(rows))
    return out


def gaussian_binomial(n: int, d: int) -> int:
    """Number of d-dimensional subspaces of {0,1}^n (product formula)."""
    if not 0 <= d <= n:
        return 0
    num = den = 1
    for i in range(d):
        num *= (1 << n) - (1 << i)
        den *= (1 << d) - (1 << i)
    return num // den


def family_members(n: int, fam: FamilyId) -> frozenset[BooleanFunction]:
    """The members of one family on {0,1}^n, for n <= 4."""
    return frozenset(from_table_int(n, t) for t in _family_tables(n)[fam])


def enumerate_free_functions(n: int, k: int, sigma: PatternSpec) -> frozenset[BooleanFunction]:
    """All (C_k, Sigma)-free functions on {0,1}^n, read off the table
    that `characterize` reads."""
    if sigma.k != k:
        raise InvalidInputError(f"sigma length {sigma.k} does not match k={k}")
    free = _free_by_weight(n, k)[sigma.ones_count]
    return frozenset(from_table_int(n, t) for t in np.flatnonzero(free).tolist())


def instances_by_dfs(f: BooleanFunction, m: BinaryMatroid,
                     budget: int) -> tuple[list[frozenset[int]], int, int]:
    """All distinct point sets of all-ones instances of M in f, the
    number of nodes it took and the number of leaves, by a
    point-at-a-time DFS: ones of f are assigned to ground elements in
    order, and an element that tops a dependency word takes the one
    point the word forces, if that point is a one. A node is a point
    assigned; past `budget` nodes it raises BudgetExceededError. A leaf
    is an all-ones labeling, i.e. a linear map on M's span that sends
    every ground vector to a one."""
    ones = f.ones()
    one_set = set(ones)
    forced_by = _forced_by(m)
    points = [0] * m.k
    found: set[frozenset[int]] = set()
    nodes = leaves = 0

    def rec(depth: int):
        nonlocal nodes, leaves
        if depth == m.k:
            found.add(frozenset(points))
            leaves += 1
            return
        rest = forced_by[depth]
        if rest is None:
            choices = ones
        else:
            acc = 0
            for j in rest:
                acc ^= points[j]
            choices = (acc,) if acc in one_set else ()
        for p in choices:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"instance DFS exceeded {budget} nodes")
            points[depth] = p
            rec(depth + 1)

    rec(0)
    return sorted(found, key=sorted), nodes, leaves


def plain_scan(tables, n: int, coords, sigma, r: int) -> tuple[int, Optional[int]]:
    """(count, first) over every assignment index t in [0, 2^(n*r)) in
    index order: basis image u_j is bits [j*n, (j+1)*n) of t, ground
    vector i reads tables[i] at the XOR of the images its basis mask
    coords[i] selects, and t matches when every read equals sigma[i].
    first is the smallest matching t, or None. Blocks of 2^16 indices."""
    total, count, first = 1 << (n * r), 0, None
    for start in range(0, total, 1 << 16):
        t = np.arange(start, min(total, start + (1 << 16)), dtype=np.int64)
        images = [(t >> (j * n)) & ((1 << n) - 1) for j in range(r)]
        match = np.ones(len(t), dtype=bool)
        for table, cmask, s in zip(tables, coords, sigma):
            pts = np.zeros_like(t)
            for j in range(r):
                if cmask >> j & 1:
                    pts ^= images[j]
            match &= table[pts] == s
        count += int(np.count_nonzero(match))
        if first is None and match.any():
            first = start + int(np.argmax(match))
    return count, first


def hitting_number_by_milp(edges) -> int:
    """Minimum hitting set size of a hypergraph as a 0/1 integer program
    (scipy's HiGHS): minimize the points chosen, subject to every edge
    holding one of them."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    if not edges:
        return 0
    points = sorted(set().union(*edges))
    column = {p: i for i, p in enumerate(points)}
    rows = np.zeros((len(edges), len(points)))
    for i, e in enumerate(edges):
        rows[i, [column[p] for p in e]] = 1
    res = milp(np.ones(len(points)), constraints=LinearConstraint(rows, lb=1),
               integrality=np.ones(len(points)), bounds=Bounds(0, 1))
    assert res.success, res.message
    return round(res.fun)



def ground_basis_coords(vectors) -> tuple[list[int], int]:
    """Each int vector as a mask over a greedy basis of the vectors
    themselves, each taken the first time it is outside the span of the
    ones before it, and the number r of basis vectors."""
    span, coords, r = {0: 0}, [], 0
    for v in vectors:
        if v not in span:
            span.update({x ^ v: c | 1 << r for x, c in list(span.items())})
            r += 1
        coords.append(span[v])
    return coords, r


def instances_by_scan(f: BooleanFunction, m: BinaryMatroid) -> list[frozenset[int]]:
    """All distinct point sets of all-ones instances of M in f, read off
    the matches of the supported scan over a basis of M's own ground
    vectors, each taken the first time it is independent of the ones
    before it: that element reads its basis image alone, so only the ones
    of f are walked there. Ground vector i sits at the XOR of the basis
    images its coords select."""
    coords, r = ground_basis_coords(m.ints)
    found: set[frozenset[int]] = set()
    for cols, match in _scan_chunks(_factors(_lookups(f.table, (1,) * m.k), coords), f.n, r):
        images = cols[:, match]
        points = np.zeros((m.k, images.shape[1]), dtype=np.int64)
        for i, c in enumerate(coords):
            for j in range(r):
                if c >> j & 1:
                    points[i] ^= images[j]
        found.update(map(frozenset, points.T.tolist()))
    return sorted(found, key=sorted)
