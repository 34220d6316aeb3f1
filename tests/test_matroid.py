import random
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import matroidlab.matroid as matroid
from matroidlab.errors import BudgetExceededError, InvalidInputError
from matroidlab.gf2 import GFVector
from matroidlab.matroid import (BinaryMatroid, Graph, Homomorphism, canonical_function,
                                canonical_ones, circuits, cographic_from_graph,
                                complete_bipartite_graph, complete_graph, complexity,
                                cycle_graph, cycle_space_basis, find_homomorphism,
                                graphic_from_graph, named_graph, odd_girth, path_graph,
                                petersen_graph, verify_homomorphism)
from oracles import (apply, cog_endpoint_partition_criterion, cog_partition_criterion,
                     complexity_at, from_ones, in_span, random_nonsingular_map)


def brute_circuits(m: BinaryMatroid):
    """Independent oracle: scan all subsets for minimal zero-XOR sets."""
    zero_sum = []
    for size in range(1, m.k + 1):
        for subset in combinations(range(m.k), size):
            acc = 0
            for j in subset:
                acc ^= m.ints[j]
            if acc == 0:
                zero_sum.append(set(subset))
    return sorted(tuple(sorted(s)) for s in zero_sum
                  if not any(o < s for o in zero_sum))


def brute_complexity_at(m: BinaryMatroid, i: int, cap: int):
    """Definitional oracle: try every partition into c+1 classes."""
    rest = [j for j in range(m.k) if j != i]
    target = m.vectors[i]
    for c in range(cap + 1):
        for assignment in _assignments(len(rest), c + 1):
            classes = [[] for _ in range(c + 1)]
            for pos, cls in enumerate(assignment):
                classes[cls].append(m.vectors[rest[pos]])
            if all(not in_span(target, cls) for cls in classes):
                return c
    return None


def _assignments(n, classes):
    if n == 0:
        yield ()
        return
    for rest in _assignments(n - 1, classes):
        for c in range(classes):
            yield rest + (c,)


def test_graph_validation():
    with pytest.raises(InvalidInputError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(InvalidInputError):
        Graph(3, ((0, 1), (0, 1)))
    with pytest.raises(InvalidInputError):
        Graph.from_edges(2, [(0, 5)])


def test_is_connected_matches_networkx():
    """Every atlas graph on 1..6 vertices, disconnected ones and isolated
    vertices included, and one or two vertices with no edges."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    verdicts = set()
    for ag in graph_atlas_g():
        if 1 <= ag.number_of_nodes() <= 6:
            ag = nx.convert_node_labels_to_integers(ag, ordering="sorted")
            g = Graph.from_edges(ag.number_of_nodes(), ag.edges())
            assert g.is_connected() == nx.is_connected(ag), g
            verdicts.add((g.is_connected(), min(d for _, d in ag.degree()) == 0))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
    assert Graph(1, ()).is_connected()
    assert not Graph(2, ()).is_connected()


def test_graphic_examples():
    t = graphic_from_graph(cycle_graph(3))
    assert [v.to_bits() for v in t.vectors] == ["110", "101", "011"]
    assert circuits(t) == [(0, 1, 2)]

    p = graphic_from_graph(path_graph(3))
    assert p.rank == 2 and circuits(p) == []

    c5 = graphic_from_graph(cycle_graph(5))
    assert c5.rank == 4
    assert circuits(c5) == [(0, 1, 2, 3, 4)]
    assert circuits(c5) == brute_circuits(c5)


def test_cographic_examples():
    m = cographic_from_graph(complete_graph(5))
    assert m.k == 10 and m.rank == 10 - 5 + 1

    assert cographic_from_graph(cycle_graph(3)).rank == 1

    tree = cographic_from_graph(path_graph(4))
    assert tree.rank == 0
    assert all(v.bits == 0 for v in tree.vectors)

    with pytest.raises(InvalidInputError):
        cographic_from_graph(Graph.from_edges(3, [(0, 1)]))


def test_cographic_circuits_are_bonds():
    # bonds of C_4 are the pairs of opposite-or-adjacent edges: every
    # 2-subset of a cycle's edges is a minimal cut
    m = cographic_from_graph(cycle_graph(4))
    assert circuits(m) == [tuple(sorted(p)) for p in combinations(range(4), 2)]


def fundamental_cycles(g: Graph) -> list[int]:
    """Independent oracle for the cographic rows: the greedy spanning
    forest in edge order by component labels, then one edge-set mask per
    chord, ascending: the chord plus its tree path, found by DFS."""
    label = list(range(g.V))
    tree, chords = [], []
    for idx, (u, v) in enumerate(g.edges):
        if label[u] == label[v]:
            chords.append(idx)
        else:
            old = label[v]
            label = [label[u] if x == old else x for x in label]
            tree.append(idx)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.V)}
    for idx in tree:
        u, v = g.edges[idx]
        adj[u].append((v, idx))
        adj[v].append((u, idx))

    def tree_path(src: int, dst: int) -> int:
        prev: dict[int, tuple[int, int]] = {src: (-1, -1)}
        stack = [src]
        while stack:
            x = stack.pop()
            if x == dst:
                break
            for y, idx in adj[x]:
                if y not in prev:
                    prev[y] = (x, idx)
                    stack.append(y)
        mask, x = 0, dst
        while x != src:
            x, idx = prev[x]
            mask |= 1 << idx
        return mask

    return [tree_path(*g.edges[idx]) | 1 << idx for idx in chords]


def random_connected_graph(rng: random.Random, V: int) -> Graph:
    """A random spanning tree on shuffled vertices plus each other pair
    with a random probability."""
    order = list(range(V))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, V)}
    p = rng.random()
    edges |= {(u, v) for u in range(V) for v in range(u + 1, V) if rng.random() < p}
    return Graph.from_edges(V, edges)


def test_cographic_rows_are_the_fundamental_cycles():
    """cographic_from_graph is the transpose of the fundamental-cycle
    matrix: every connected graph on up to 6 vertices, and seeded random
    connected graphs on up to 9."""
    from test_acceptance import atlas_graphs

    rng = random.Random(61)
    graphs = atlas_graphs(6) + [random_connected_graph(rng, V)
                                for V in range(2, 10) for _ in range(40)]
    for g in graphs:
        rows = fundamental_cycles(g)
        assert len(rows) == len(g.edges) - g.V + 1
        m = cographic_from_graph(g)
        assert m.m == max(len(rows), 1)
        assert m.ints == tuple(sum(1 << i for i, row in enumerate(rows) if row >> j & 1)
                               for j in range(len(g.edges)))


def test_k4_circuits():
    k4 = graphic_from_graph(complete_graph(4))
    circs = circuits(k4)
    assert len(circs) == 7
    assert sorted(len(c) for c in circs) == [3, 3, 3, 3, 4, 4, 4]
    assert circs == brute_circuits(k4)


def test_cycle_space_basis():
    c5 = graphic_from_graph(cycle_graph(5))
    assert cycle_space_basis(c5) == [(0, 1, 2, 3, 4)]

    k4 = graphic_from_graph(complete_graph(4))
    basis = cycle_space_basis(k4)
    assert len(basis) == k4.k - k4.rank == 3
    for word in basis:
        acc = 0
        for j in word:
            acc ^= k4.ints[j]
        assert acc == 0

    indep = graphic_from_graph(path_graph(4))
    assert cycle_space_basis(indep) == []


def test_complexity_cycles_and_cliques():
    for k in range(3, 9):
        assert complexity(graphic_from_graph(cycle_graph(k))) == 1
    assert complexity(graphic_from_graph(complete_graph(4))) == 1
    assert complexity(graphic_from_graph(complete_graph(5))) == 1
    assert complexity(graphic_from_graph(petersen_graph())) == 1


def test_complexity_forest_is_zero():
    assert complexity(graphic_from_graph(path_graph(4))) == 0


def test_complexity_duplicates_and_zero():
    dup = BinaryMatroid([GFVector(2, 1), GFVector(2, 1), GFVector(2, 2)])
    assert complexity(dup, cap=3) is None
    assert complexity(dup, cap=10 ** 9) is None     # no search per cap value
    with_zero = BinaryMatroid([GFVector(2, 0), GFVector(2, 1), GFVector(2, 2)])
    assert complexity_at(with_zero, 0, cap=3) is None


def test_complexity_cographic():
    assert complexity(cographic_from_graph(complete_graph(5))) == 1
    # K_3,3 is 3-edge-connected, so by Menger each edge's endpoints are
    # joined by two edge-disjoint paths in G - e; one path and the rest of
    # the edges form a 2-partition leaving v_e outside both spans (v_e lies
    # in span(A) iff the other class fails to join e's endpoints)
    assert complexity(cographic_from_graph(complete_bipartite_graph(3, 3))) == 1
    assert cographic_from_graph(cycle_graph(3)).has_complexity_one is False


def test_complexity_matches_definitional_oracle():
    rng = random.Random(41)
    for _ in range(25):
        k = rng.randint(1, 5)
        m_dim = rng.randint(1, 4)
        vecs = [GFVector(m_dim, rng.randrange(1 << m_dim)) for _ in range(k)]
        m = BinaryMatroid(vecs)
        for i in range(k):
            assert complexity_at(m, i, 3) == brute_complexity_at(m, i, 3)
    # larger k at caps 1 and 2: distinct nonzero vectors reach complexity 2,
    # free draws reach the None of zero vectors and parallel copies
    seen = set()
    for _ in range(40):
        m_dim = rng.randint(3, 4)
        k = rng.randint(6, min(8, (1 << m_dim) - 1))
        if rng.random() < 0.5:
            bits = rng.sample(range(1, 1 << m_dim), k)
        else:
            bits = [rng.randrange(1 << m_dim) for _ in range(k)]
        m = BinaryMatroid([GFVector(m_dim, b) for b in bits])
        for i in range(k):
            for cap in (1, 2):
                c = complexity_at(m, i, cap)
                assert c == brute_complexity_at(m, i, cap)
                seen.add(c)
    assert {0, 1, 2, None} <= seen


def test_span_coords_rebuild_every_ground_vector():
    """Each ground vector is the XOR of the span-basis rows its
    span_coords mask selects."""
    from test_acceptance import atlas_graphs
    from test_tester import RANK0, ZERO_PARALLEL

    parallel = BinaryMatroid([GFVector.from_bits(r) for r in ("01", "01", "10", "11", "10", "01")])
    presentations = [graphic_from_graph(g) for g in atlas_graphs(5)]
    presentations += [RANK0, ZERO_PARALLEL, parallel,
                      cographic_from_graph(complete_bipartite_graph(3, 3))]
    for m in presentations:
        rows = list(m.span_basis.basis)
        for v, mask in zip(m.ints, m.span_coords):
            assert mask >> len(rows) == 0
            acc = 0
            for j, row in enumerate(rows):
                if mask >> j & 1:
                    acc ^= row
            assert acc == v


def test_complexity_enumerates_the_code_once(monkeypatch):
    calls = []
    enumerate_code = matroid._xor_span

    def spy(words):
        calls.append(len(words))
        return enumerate_code(words)

    monkeypatch.setattr(matroid, "_xor_span", spy)
    assert complexity(graphic_from_graph(petersen_graph())) == 1
    assert calls == [6]


def test_cog_partition_criterion_examples():
    k5 = complete_graph(5)
    assert all(cog_partition_criterion(k5, e) for e in k5.edges)
    k33 = complete_bipartite_graph(3, 3)
    assert all(not cog_partition_criterion(k33, e) for e in k33.edges)
    c3 = cycle_graph(3)
    assert all(not cog_partition_criterion(c3, e) for e in c3.edges)


def test_endpoint_criterion_edge_refused():
    with pytest.raises(InvalidInputError, match=re.escape("edge (0, 4) not in graph")):
        cog_endpoint_partition_criterion(complete_graph(4), (0, 4))


def test_criterion_implies_complexity_one():
    # the sound direction of the appendix claim, on small graphs
    for graph in (complete_graph(4), complete_graph(5), cycle_graph(4),
                  complete_bipartite_graph(2, 3), petersen_graph()):
        if all(cog_partition_criterion(graph, e) for e in graph.edges):
            assert cographic_from_graph(graph).has_complexity_one


def test_endpoint_criterion_is_complexity_one():
    # exact equivalence, per-edge, on assorted graphs
    for graph in (cycle_graph(3), cycle_graph(5), complete_graph(4),
                  complete_graph(5), complete_bipartite_graph(3, 3),
                  path_graph(4), complete_bipartite_graph(2, 3)):
        m = cographic_from_graph(graph)
        for idx, e in enumerate(graph.edges):
            expected = complexity_at(m, idx, 1) is not None
            assert cog_endpoint_partition_criterion(graph, e) == expected


def test_odd_girth_examples():
    assert odd_girth(graphic_from_graph(cycle_graph(5))) == 5
    assert odd_girth(graphic_from_graph(cycle_graph(4))) is None
    assert odd_girth(graphic_from_graph(complete_graph(4))) == 3


def test_homomorphism_examples():
    c3 = graphic_from_graph(cycle_graph(3))
    c5 = graphic_from_graph(cycle_graph(5))
    k3 = graphic_from_graph(complete_graph(3))
    k5 = graphic_from_graph(complete_graph(5))

    assert find_homomorphism(c5, c5) is not None

    phi = find_homomorphism(c5, c3)
    assert phi is not None and verify_homomorphism(phi, c5, c3)
    # the classic witness: three elements to one edge, the rest a triangle
    assert verify_homomorphism(Homomorphism((0, 0, 0, 1, 2)), c5, c3)

    assert find_homomorphism(c3, c5) is None
    assert find_homomorphism(k5, k3) is None


def test_verify_homomorphism_says_no():
    c3 = graphic_from_graph(cycle_graph(3))
    c5 = graphic_from_graph(cycle_graph(5))
    assert verify_homomorphism(Homomorphism((0, 0, 0, 1, 2)), c5, c3)
    assert not verify_homomorphism(Homomorphism((0, 0, 0, 1)), c5, c3)
    assert not verify_homomorphism(Homomorphism((0, 0, 0, 1, 2, 0)), c5, c3)
    # the fifth element reassigned: the images of C_5's one circuit XOR
    # to 110, not 0
    assert not verify_homomorphism(Homomorphism((0, 0, 0, 1, 1)), c5, c3)


def test_homomorphism_budget():
    c5 = graphic_from_graph(cycle_graph(5))
    with pytest.raises(BudgetExceededError):
        find_homomorphism(c5, c5, node_budget=2)
    with pytest.raises(InvalidInputError):
        find_homomorphism(c5, c5, node_budget=-1)


def reference_homomorphism(source, target, node_budget):
    """The try-every-target DFS that find_homomorphism replaced: every
    target element is a node at every depth, and each dependency word is
    checked bit by bit once its top element is assigned. It also tracks
    the deepest element assigned, for the budget message."""
    words_by_top = {}
    for w in source.kernel_words:
        words_by_top.setdefault(w.bit_length() - 1, []).append(w)
    tgt = target.ints
    k = source.k
    assignment = [0] * k
    nodes = deepest = 0

    def rec(depth):
        nonlocal nodes, deepest
        if depth == k:
            return True
        deepest = max(deepest, depth)
        for choice in range(target.k):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"homomorphism search exceeded {node_budget} nodes; "
                    f"deepest element {deepest} of {k}")
            assignment[depth] = choice
            ok = True
            for w in words_by_top.get(depth, ()):
                acc = 0
                for j in range(depth + 1):
                    if w >> j & 1:
                        acc ^= tgt[assignment[j]]
                if acc:
                    ok = False
                    break
            if ok and rec(depth + 1):
                return True
        return False

    return tuple(assignment) if rec(0) else None


def _hom_outcome(search, source, target, budget):
    try:
        found = search(source, target, budget)
    except BudgetExceededError as exc:
        return "raises", str(exc)
    if isinstance(found, Homomorphism):
        found = found.assignment
    return "returns", found


def test_forced_images_match_the_reference_search():
    rng = random.Random(53)
    outcomes = set()
    for _ in range(300):
        m_dim = rng.randint(1, 4)
        src = BinaryMatroid([GFVector(m_dim, rng.randrange(1 << m_dim))
                             for _ in range(rng.randint(1, 7))])
        bits = [rng.randrange(1 << m_dim) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:      # a zero vector and a parallel copy
            bits += [0, rng.choice(bits)]
            rng.shuffle(bits)
        tgt = BinaryMatroid([GFVector(m_dim, b) for b in bits])
        budgets = list(range(61)) + [rng.randint(61, 20000) for _ in range(3)]
        for budget in budgets + [matroid.HOM_NODE_BUDGET]:
            expected = _hom_outcome(reference_homomorphism, src, tgt, budget)
            assert _hom_outcome(find_homomorphism, src, tgt, budget) == expected
            outcomes.add((expected[0], expected[1] is None))
    assert outcomes == {("raises", False), ("returns", True), ("returns", False)}


def test_homomorphism_budget_message_names_the_depth():
    petersen = graphic_from_graph(petersen_graph())
    c7 = graphic_from_graph(cycle_graph(7))
    with pytest.raises(BudgetExceededError) as exc:
        find_homomorphism(petersen, c7, node_budget=150000)
    assert str(exc.value) == _hom_outcome(reference_homomorphism, petersen, c7, 150000)[1]
    assert str(exc.value).endswith(" of 15")



def interchangeable_classes(m: BinaryMatroid) -> list[list[int]]:
    """The classes _interchangeable links, each in ground order."""
    head = list(range(m.k))
    for j, i in enumerate(matroid._interchangeable(m)):
        if i is not None:
            assert i < j
            head[j] = head[i]
    classes: dict[int, list[int]] = {}
    for j, h in enumerate(head):
        classes.setdefault(h, []).append(j)
    return sorted(classes.values())


def test_interchangeable_classes_of_named_matroids():
    for k in range(3, 8):
        assert matroid._interchangeable(graphic_from_graph(cycle_graph(k))) == (
            None, *range(k - 1))
    for g in (complete_graph(4), complete_graph(5), petersen_graph()):
        assert matroid._interchangeable(graphic_from_graph(g)) == (None,) * len(g.edges)
    # loops 1 and 5, the parallel pair 2 and 3, and 0 and 4, which sit
    # together in the two triangles {0, 2, 4} and {0, 3, 4}
    m = BinaryMatroid([GFVector(2, v) for v in (1, 0, 2, 2, 3, 0)])
    assert matroid._interchangeable(m) == (None, None, None, 2, 0, 1)
    # a theta graph: paths of 1, 2 and 3 edges between vertices 0 and 1;
    # the edges of each longer path are in series
    theta = Graph.from_edges(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    assert theta.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4))
    assert interchangeable_classes(graphic_from_graph(theta)) == [[0], [1, 3], [2, 4, 5]]


def test_interchangeable_pairs_are_the_circuit_preserving_transpositions():
    """Two elements share a class exactly when swapping them maps the
    circuits, scanned from every subset, onto themselves: random binary
    matroids with loops and repeated vectors."""
    rng = random.Random(89)
    grouped = 0
    for _ in range(150):
        m_dim = rng.randint(1, 4)
        bits = [rng.randrange(1 << m_dim) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            bits += [0, rng.choice(bits)]
            rng.shuffle(bits)
        m = BinaryMatroid([GFVector(m_dim, b) for b in bits])
        circs = {frozenset(c) for c in brute_circuits(m)}
        same = {j: c for c in interchangeable_classes(m) for j in c}
        for i, j in combinations(range(m.k), 2):
            swap = {i: j, j: i}
            kept = {frozenset(swap.get(x, x) for x in c) for c in circs} == circs
            assert kept == (i in same[j]), (bits, i, j)
            grouped += kept
    assert grouped > 100


def test_odd_girth_necessity():
    rng = random.Random(43)
    tried = 0
    while tried < 60:
        k1, k2 = rng.randint(2, 4), rng.randint(2, 4)
        m_dim = rng.randint(1, 3)
        m1 = BinaryMatroid([GFVector(m_dim, rng.randrange(1 << m_dim)) for _ in range(k1)])
        m2 = BinaryMatroid([GFVector(m_dim, rng.randrange(1 << m_dim)) for _ in range(k2)])
        phi = find_homomorphism(m2, m1)
        tried += 1
        if phi is None:
            continue
        og1, og2 = odd_girth(m1), odd_girth(m2)
        if og2 is not None:
            assert og1 is not None and og2 >= og1


def test_canonical_function_examples():
    c3 = graphic_from_graph(cycle_graph(3))
    f = canonical_function(c3, 3)
    assert sorted(GFVector(3, x).to_bits() for x in f.ones()) == ["011", "101", "110"]
    assert canonical_function(c3, 4).ones_count() == 6

    with pytest.raises(InvalidInputError):
        canonical_function(c3, 2)
    zero_elem = BinaryMatroid([GFVector(2, 0), GFVector(2, 1)])
    with pytest.raises(InvalidInputError):
        canonical_function(zero_elem, 3)


def test_canonical_function_size_cap_before_allocation():
    c3 = graphic_from_graph(cycle_graph(3))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError):
            canonical_function(c3, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_canonical_function_contains_matroid_at_embedding():
    c3 = graphic_from_graph(cycle_graph(3))
    f = canonical_function(c3, 5)
    assert all(int(f.table[v]) == 1 for v in c3.ints)


def test_homomorphism_extraction_from_instances():
    # an instance of M2 inside canonical(M1) projects, on the low m
    # coordinates, to a ground-set map that is a homomorphism M2 -> M1
    from matroidlab.tester import PatternSpec, find_pattern

    cases = [(cycle_graph(3), cycle_graph(3), 5),
             (cycle_graph(5), cycle_graph(3), 6),
             (complete_graph(4), complete_graph(4), 6)]
    for src_graph, tgt_graph, n in cases:
        m2 = graphic_from_graph(src_graph)
        m1 = graphic_from_graph(tgt_graph)
        f = canonical_function(m1, n)
        inst = find_pattern(f, m2, PatternSpec.all_ones(m2.k))
        assert inst is not None  # a homomorphism exists, so instances do
        low_mask = (1 << m1.m) - 1
        vec_to_index = {v: j for j, v in enumerate(m1.ints)}
        assignment = tuple(vec_to_index[p.bits & low_mask] for p in inst.points)
        assert verify_homomorphism(Homomorphism(assignment), m2, m1)


def test_canonical_function_matches_list_definition():
    twice = BinaryMatroid([GFVector(2, 1), GFVector(2, 1), GFVector(2, 3)])
    for m in [graphic_from_graph(named_graph(g)) for g in ("c3", "c5", "k4", "petersen")] + [twice]:
        for n in (m.m, m.m + 1, m.m + 4):
            ones = [v | (y << m.m) for y in range(1 << (n - m.m)) for v in sorted(set(m.ints))]
            assert canonical_function(m, n) == from_ones(n, ones)


def test_canonical_ones_counts_the_table():
    """canonical_ones prices the table from M alone: every connected
    graph on up to 5 vertices at n = m..m+2, and a matroid with a
    repeated ground vector."""
    from test_acceptance import atlas_graphs

    ms = [graphic_from_graph(g) for g in atlas_graphs(5)]
    ms.append(BinaryMatroid([GFVector(3, v) for v in (1, 2, 1, 3, 2)]))
    for m in ms:
        for n in range(m.m, m.m + 3):
            assert canonical_ones(m, n) == np.count_nonzero(canonical_function(m, n).table)


def test_canonical_function_duplicates_collapse():
    twice = BinaryMatroid([GFVector(2, 1), GFVector(2, 1), GFVector(2, 3)])
    f = canonical_function(twice, 3)
    assert f.ones_count() == 2 * 2  # 2 distinct vectors, lifted over 2 y-values


def test_representation_invariance():
    rng = np.random.Generator(np.random.PCG64(47))
    base_c5 = graphic_from_graph(cycle_graph(5))
    base_k4 = graphic_from_graph(complete_graph(4))
    c3 = graphic_from_graph(cycle_graph(3))
    for _ in range(50):
        for base in (base_c5, base_k4):
            t = random_nonsingular_map(base.m, rng)
            moved = BinaryMatroid([apply(t, v) for v in base.vectors])
            assert circuits(moved) == circuits(base)
            assert odd_girth(moved) == odd_girth(base)
            assert complexity(moved) == complexity(base)
            assert (find_homomorphism(c3, moved) is None) == \
                (find_homomorphism(c3, base) is None)


def test_named_graph():
    assert named_graph("c5").edges == cycle_graph(5).edges
    assert named_graph("k4").edges == complete_graph(4).edges
    assert named_graph("k3,3").edges == complete_bipartite_graph(3, 3).edges
    assert len(named_graph("k5e").edges) == 9
    assert named_graph("petersen").V == 10
    with pytest.raises(InvalidInputError):
        named_graph("torus")
