"""Binary matroids and their constructions: graphic and cographic
matroids, circuits and cycle space, partition complexity, odd girth,
matroid homomorphisms, and canonical indicator functions.

A binary matroid here is a finite multiset of GF(2) vectors; a subset of
ground elements is dependent exactly when some nonempty sub-subset XORs
to zero. Its dependency code, `kernel_words`, comes from gf2's one
echelon insertion. The cycle space of a graph is the dependency code of
its graphic matroid, so the cographic matroid reads its rows from there.
Connectivity is the graphic rank too: a graph on V vertices with c
components has a graphic matroid of rank V - c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .boolfn import WHT_MAX_N, BooleanFunction
from .errors import BudgetExceededError, DimensionMismatchError, InvalidInputError
from .gf2 import GFVector, Subspace, _ref_insert, _xor_span, rank_and_basis

CIRCUIT_MAX_K = 20
GENERAL_COMPLEXITY_MAX_K = 12
HOM_NODE_BUDGET = 10 ** 8
# graph names and graph files build at most this many vertices: every
# consumer fits (complexity needs at most 20 edges, von Neumann V - 1 <= 26)
GRAPH_NAME_MAX_V = 32


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..V-1."""

    V: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.V < 1:
            raise InvalidInputError("graph needs at least one vertex")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise InvalidInputError(f"self-loop at vertex {u}")
            if not (0 <= u < self.V and 0 <= v < self.V):
                raise InvalidInputError(f"edge ({u},{v}) out of range")
            if u > v:
                raise InvalidInputError(f"edge ({u},{v}) not normalized u<v")
            if (u, v) in seen:
                raise InvalidInputError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        if tuple(sorted(self.edges)) != self.edges:
            raise InvalidInputError("edge list must be sorted")

    @classmethod
    def from_edges(cls, V: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(V, tuple(sorted(tuple(sorted(e)) for e in edges)))

    def is_connected(self) -> bool:
        """The graphic matroid of G has rank V - c(G), so G is connected
        exactly when its edge vectors e_u + e_v span rank V - 1."""
        vectors = [GFVector(self.V, (1 << u) | (1 << v)) for u, v in self.edges]
        return rank_and_basis(vectors, self.V)[0] == self.V - 1

    def without_edge(self, e: tuple[int, int]) -> "Graph":
        e = tuple(sorted(e))
        if e not in self.edges:
            raise InvalidInputError(f"edge {e} not in graph")
        return Graph(self.V, tuple(x for x in self.edges if x != e))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise InvalidInputError("a cycle needs at least 3 vertices")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(vertices: int) -> Graph:
    return Graph.from_edges(vertices, [(i, i + 1) for i in range(vertices - 1)])


def complete_graph(a: int) -> Graph:
    return Graph.from_edges(a, [(i, j) for i in range(a) for j in range(i + 1, a)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def named_graph(name: str) -> Graph:
    """Corpus lookup: c<k>, k<a>, k<a>,<b> (bipartite), k5e, petersen,
    path<v>. Sizes past GRAPH_NAME_MAX_V vertices are refused before any
    graph is built."""
    name = name.strip().lower()
    if name == "petersen":
        return petersen_graph()
    if name == "k5e":
        return complete_graph(5).without_edge((3, 4))
    if name.startswith("path"):
        texts, build = [name[4:]], path_graph
    elif name.startswith("c"):
        texts, build = [name[1:]], cycle_graph
    elif name.startswith("k") and "," in name:
        texts, build = name[1:].split(","), complete_bipartite_graph
        if len(texts) != 2:
            raise InvalidInputError(f"bipartite graph name {name!r} needs two sizes")
    elif name.startswith("k"):
        texts, build = [name[1:]], complete_graph
    else:
        raise InvalidInputError(f"unknown graph name {name!r}")
    sizes = []
    for text in texts:
        try:
            sizes.append(int(text))
        except ValueError:
            raise InvalidInputError(f"bad size {text!r} in graph name {name!r}") from None
    if sum(sizes) > GRAPH_NAME_MAX_V:
        raise InvalidInputError(f"graph name {name!r} has {sum(sizes)} vertices, "
                                f"over the cap of {GRAPH_NAME_MAX_V}")
    return build(*sizes)


class BinaryMatroid:
    """k labeled GF(2) vectors in ambient dimension m (a multiset)."""

    def __init__(self, vectors: Sequence[GFVector]):
        vectors = tuple(vectors)
        if not vectors:
            raise InvalidInputError("a matroid needs at least one element")
        m = vectors[0].dim
        for v in vectors:
            if v.dim != m:
                raise DimensionMismatchError(f"mixed dimensions {m} and {v.dim}")
        self.vectors = vectors
        self.k = len(vectors)
        self.m = m

    @cached_property
    def ints(self) -> tuple[int, ...]:
        return tuple(v.bits for v in self.vectors)

    @cached_property
    def span_basis(self) -> Subspace:
        return rank_and_basis(self.vectors)[1]

    @property
    def rank(self) -> int:
        return self.span_basis.dim

    @cached_property
    def span_coords(self) -> tuple[int, ...]:
        """Each ground vector, expressed over span_basis.basis as a mask
        (bit j set = basis[j] participates)."""
        rows = {b.bit_length() - 1: (b, 1 << j) for j, b in enumerate(self.span_basis.basis)}
        return tuple(_ref_insert(rows, v)[1] for v in self.ints)

    @cached_property
    def kernel_words(self) -> tuple[int, ...]:
        """Canonical basis of the dependency code {T : XOR_{i in T} v_i = 0},
        each word a bitmask over ground elements; one word per dependent
        insertion, so words are ordered by their top element."""
        rows: dict[int, tuple[int, int]] = {}
        words = []
        for j, v in enumerate(self.ints):
            w, combo = _ref_insert(rows, v, 1 << j)
            if w == 0:
                words.append(combo)
        return tuple(words)

    @cached_property
    def has_complexity_one(self) -> bool:
        """Complexity <= 1, decided once per matroid: every element admits a
        2-partition of the rest with neither span containing it."""
        return complexity(self, cap=1) is not None

    def __eq__(self, other):
        return isinstance(other, BinaryMatroid) and self.vectors == other.vectors

    def __hash__(self):
        return hash(self.vectors)

    def __repr__(self):
        return f"BinaryMatroid(k={self.k},m={self.m})"


def graphic_from_graph(g: Graph) -> BinaryMatroid:
    """One element per edge; the vector of edge (u,v) is e_u + e_v, so
    dependent edge sets are exactly those containing a cycle."""
    if not g.edges:
        raise InvalidInputError("graphic matroid needs at least one edge")
    vectors = [GFVector(g.V, (1 << u) | (1 << v)) for u, v in g.edges]
    return BinaryMatroid(vectors)


def cographic_from_graph(g: Graph) -> BinaryMatroid:
    """Column matroid of a cycle-space basis matrix of G: dependent edge
    sets are exactly those containing a bond. Rank is E - V + 1.

    The cycle space of G is the dependency code of its graphic matroid,
    so the rows are that matroid's kernel_words: the echelon insertion
    keeps the greedy spanning forest in edge order, and each chord's
    word is the chord plus its tree path, one row per chord in
    ascending order."""
    if not g.is_connected():
        raise InvalidInputError("cographic construction requires a connected graph")
    if not g.edges:
        raise InvalidInputError("cographic matroid needs at least one edge")
    rows = graphic_from_graph(g).kernel_words
    m = max(len(rows), 1)
    vectors = []
    for j in range(len(g.edges)):
        bits = 0
        for i, row in enumerate(rows):
            if row >> j & 1:
                bits |= 1 << i
        vectors.append(GFVector(m, bits))
    return BinaryMatroid(vectors)


def _circuit_words(m: BinaryMatroid) -> list[int]:
    """The circuits as masks over ground elements: the minimal nonzero
    words of the dependency code, by size and then value."""
    if m.k > CIRCUIT_MAX_K:
        raise BudgetExceededError(f"k={m.k} exceeds circuit enumeration cap {CIRCUIT_MAX_K}")
    code = [w for w in _xor_span(m.kernel_words).tolist() if w]
    code.sort(key=lambda w: (w.bit_count(), w))
    minimal: list[int] = []
    for w in code:
        if not any(c & w == c for c in minimal):
            minimal.append(w)
    return minimal


def circuits(m: BinaryMatroid) -> list[tuple[int, ...]]:
    """All minimal dependent subsets, as sorted index tuples in
    lexicographic order."""
    return sorted(tuple(_mask_bits(w)) for w in _circuit_words(m))


def cycle_space_basis(m: BinaryMatroid) -> list[tuple[int, ...]]:
    """k - rank subsets forming a basis of the dependency code."""
    return [tuple(_mask_bits(w)) for w in m.kernel_words]


def odd_girth(m: BinaryMatroid) -> Optional[int]:
    """Size of the smallest odd circuit, or None when there is none.

    This is the smallest odd-weight word of the dependency code: such a
    word is a disjoint union of circuits, one of them odd. It is not the
    smallest odd-cardinality dependent set: a C_4 plus a coloop has an
    odd dependent set of size 5, yet no odd circuit."""
    if m.k > CIRCUIT_MAX_K:
        raise BudgetExceededError(f"k={m.k} exceeds enumeration cap {CIRCUIT_MAX_K}")
    sizes = np.bitwise_count(_xor_span(m.kernel_words))
    odd = sizes[sizes & 1 == 1]
    return int(odd.min()) if odd.size else None


def _complexity_at(circuit_words: list[int], i: int, cap: int) -> Optional[int]:
    """Minimum c <= cap such that the elements other than i split into
    c+1 classes none of whose spans contains v_i; None when cap is
    exceeded (or no finite c exists, e.g. v_i = 0 or v_i has a parallel
    copy). The hyperedges are the supports C \\ {i} of the circuits C
    through i among `circuit_words`: v_i lies in span(S) exactly
    when some hyperedge is a subset of S, so a class avoids v_i in its
    span iff it contains no hyperedge. A hyperedge of at most one element
    (v_i = 0, or a parallel copy) defeats every c; without one, c+1 = the
    number of covered elements always works, so the loop below ends
    there whatever the cap."""
    bit = 1 << i
    edges = [c ^ bit for c in circuit_words if c & bit]
    if not edges:
        return 0
    if any(e & (e - 1) == 0 for e in edges):
        return None
    for c in range(1, cap + 1):
        if _coloring_exists(edges, c + 1):
            return c
    return None


def _coloring_exists(edges: list[int], colors: int) -> bool:
    """Proper hypergraph coloring (no monochromatic hyperedge) by DFS in
    restricted-growth order over the elements the edges cover. An edge is
    tested once, when its highest element is colored, and only against
    the class that element joined: the other classes did not change."""
    elems = sorted({j for e in edges for j in _mask_bits(e)})
    by_top: dict[int, list[int]] = {j: [] for j in elems}
    for e in edges:
        by_top[e.bit_length() - 1].append(e)
    classes = [0] * colors

    def rec(depth: int, used: int) -> bool:
        if depth == len(elems):
            return True
        j = elems[depth]
        completed = by_top[j]
        for color in range(min(colors, used + 1)):
            cls = classes[color] | 1 << j
            if any(e & cls == e for e in completed):
                continue
            classes[color] = cls
            if rec(depth + 1, max(used, color + 1)):
                return True
            classes[color] ^= 1 << j
        return False

    return rec(0, 0)


def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _forced_by(m: BinaryMatroid) -> tuple[Optional[tuple[int, ...]], ...]:
    """Per ground element j, the other elements of the dependency-code
    basis word whose top element is j, as an index tuple, or None when
    no word ends at j. kernel_words has at most one word per top, so a
    search that assigns elements in order finds the image of j forced
    to the XOR of the images of these lower elements."""
    forced: list[Optional[tuple[int, ...]]] = [None] * m.k
    for w in m.kernel_words:
        top = w.bit_length() - 1
        forced[top] = tuple(_mask_bits(w ^ 1 << top))
    return tuple(forced)


def _interchangeable(m: BinaryMatroid) -> tuple[Optional[int], ...]:
    """Per ground element j, the previous element of j's class, or None
    when j is the first. Elements i and j share a class when their
    transposition is an automorphism of M, i.e. maps the dependency code
    onto itself: each kernel word with its bits i and j swapped reduces
    to 0 against kernel_words, one word per top element. Conjugating
    (i j) by (j l) gives (i l), so the relation is transitive and the
    classes are its equivalence classes: C_k is one class, a series or
    parallel class or a set of loops is one, and K_4, K_5 and the
    Petersen graph are singletons."""
    words = m.kernel_words
    by_top = {w.bit_length() - 1: w for w in words}

    def in_code(w: int) -> bool:
        while w:
            row = by_top.get(w.bit_length() - 1)
            if row is None:
                return False
            w ^= row
        return True

    def swaps(i: int, j: int) -> bool:
        pair = 1 << i | 1 << j
        return all(in_code(w ^ pair) for w in words if (w >> i ^ w >> j) & 1)

    return tuple(next((i for i in reversed(range(j)) if swaps(i, j)), None)
                 for j in range(m.k))


def complexity(m: BinaryMatroid, cap: int = 1) -> Optional[int]:
    """The matroid's partition complexity: max over elements of the
    per-element minimum; None when any element exceeds cap."""
    if cap < 0:
        raise InvalidInputError(f"cap must be nonnegative, got {cap}")
    if cap >= 2 and m.k > GENERAL_COMPLEXITY_MAX_K:
        raise BudgetExceededError(
            f"k={m.k} exceeds general complexity cap {GENERAL_COMPLEXITY_MAX_K}")
    circuit_words = _circuit_words(m)
    worst = 0
    for i in range(m.k):
        ci = _complexity_at(circuit_words, i, cap)
        if ci is None:
            return None
        worst = max(worst, ci)
    return worst


@dataclass(frozen=True)
class Homomorphism:
    """A ground-set map (element index of the source -> element index of
    the target) carrying every dependency to a dependency."""

    assignment: tuple[int, ...]


def verify_homomorphism(phi: Homomorphism, source: BinaryMatroid,
                        target: BinaryMatroid) -> bool:
    if len(phi.assignment) != source.k:
        return False
    tgt = target.ints
    for word in source.kernel_words:
        acc = 0
        for j in _mask_bits(word):
            acc ^= tgt[phi.assignment[j]]
        if acc:
            return False
    return True


def find_homomorphism(source: BinaryMatroid, target: BinaryMatroid,
                      node_budget: int = HOM_NODE_BUDGET) -> Optional[Homomorphism]:
    """Exhaustive DFS over ground-set maps from source to target, in
    element order, trying target elements in index order. Returns a
    verified witness or None.

    Forced images: a dependency-code basis word whose top element is at
    depth d makes the image of element d the XOR of the images of the
    word's other elements, so that depth tries only the target elements
    carrying that vector; other depths try every target element.

    A node is a target element passed over at some depth, tried or not,
    so the node count, the witness and the budget at which the search
    raises are those of trying every target element at every depth.
    BudgetExceededError names the deepest element assigned (counted from
    1, so 0 when none was), out of k."""
    if node_budget < 0:
        raise InvalidInputError(f"node budget must be nonnegative, got {node_budget}")
    forced_by = _forced_by(source)
    tgt = target.ints
    width = target.k
    carriers: dict[int, list[int]] = {}
    for idx, v in enumerate(tgt):
        carriers.setdefault(v, []).append(idx)
    every = range(width)
    k = source.k
    assignment = [0] * k
    images = [0] * k
    nodes = deepest = 0

    def over_budget():
        return BudgetExceededError(f"homomorphism search exceeded {node_budget} nodes; "
                                   f"deepest element {deepest} of {k}")

    def rec(depth: int) -> bool:
        nonlocal nodes, deepest
        if depth == k:
            return True
        if depth > deepest:
            deepest = depth
        rest = forced_by[depth]
        if rest is None:
            choices = every
        else:
            acc = 0
            for j in rest:
                acc ^= images[j]
            choices = carriers.get(acc, ())
        last = -1
        for choice in choices:
            nodes += choice - last
            if nodes > node_budget:
                raise over_budget()
            last = choice
            assignment[depth] = choice
            images[depth] = tgt[choice]
            if rec(depth + 1):
                return True
        nodes += width - 1 - last
        if nodes > node_budget:
            raise over_budget()
        return False

    if rec(0):
        phi = Homomorphism(tuple(assignment))
        assert verify_homomorphism(phi, source, target)
        return phi
    return None


def check_canonical_args(m: BinaryMatroid, n: int) -> None:
    """Refuse (M, n) for canonical_function before its 2^n table is built."""
    if n < m.m:
        raise InvalidInputError(f"n={n} must be at least ambient dimension {m.m}")
    if n > WHT_MAX_N:
        raise InvalidInputError(f"n={n} exceeds the truth-table cap {WHT_MAX_N}")
    if any(v == 0 for v in m.ints):
        raise InvalidInputError("canonical function requires nonzero ground vectors")


def canonical_ones(m: BinaryMatroid, n: int) -> int:
    """The number of ones of canonical_function(m, n), from M alone: its
    distinct ground vectors times 2^(n-m)."""
    check_canonical_args(m, n)
    return len(set(m.ints)) << (n - m.m)


def canonical_function(m: BinaryMatroid, n: int) -> BooleanFunction:
    """The indicator of {v_1,...,v_k} x {0,1}^(n-m): 1 at (x,y) iff the
    low-m part x is a ground vector."""
    check_canonical_args(m, n)
    ground = np.zeros(1 << m.m, dtype=np.uint8)
    ground[list(m.ints)] = 1
    return BooleanFunction(n, np.tile(ground, 1 << (n - m.m)))
