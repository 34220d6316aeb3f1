"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time.

Criterion 2 is split into three assertions about cographic matroids
under the partition-complexity definition. The per-element complexity
and the two graph criteria are test oracles (`oracles.complexity_at`,
`oracles.cog_partition_criterion`, `oracles.cog_endpoint_partition_criterion`):
no command runs them, so they live with the tests.
In M*(G), v_e lies in span(A) exactly when e is a bridge of the graph on
E \\ A, i.e. when the other class B fails to join e's endpoints; so
complexity 1 at e means E \\ {e} splits into two classes that each join
the endpoints of e, which by Menger holds at every edge of a 3-edge-
connected graph. 2a pins complexity(M*(K_5)) = 1. 2b shows that
M*(K_3,3) has complexity 1 although the "both halves connected and
spanning" criterion fails at every edge. 2c checks the endpoint
criterion against `complexity_at` edge by edge on every connected graph
with at most 6 vertices, and that the "both halves connected" criterion
is sound but strictly stronger.
"""

import time

import numpy as np

from matroidlab.boolfn import BooleanFunction, random_function, wht
from matroidlab.families import verify_characterization
from matroidlab.matroid import (Graph, canonical_function, cographic_from_graph,
                                complexity, find_homomorphism, graphic_from_graph,
                                named_graph)
from matroidlab.tester import (PatternSpec, brute_force_cycle_count, count_patterns,
                               cycle_count_fourier, derive_seed, find_pattern,
                               min_repair_distance, pattern_hitting_number,
                               run_tester, von_neumann_gap)
from oracles import (butterfly, cog_endpoint_partition_criterion, cog_partition_criterion,
                     complement, complexity_at, enumerate_free_functions, in_span,
                     pattern_complement)


def atlas_graphs(max_vertices):
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for ag in graph_atlas_g():
        if not 1 <= ag.number_of_nodes() <= max_vertices:
            continue
        if ag.number_of_edges() == 0 or not nx.is_connected(ag):
            continue
        nodes = sorted(ag.nodes())
        relabel = {v: i for i, v in enumerate(nodes)}
        out.append(Graph.from_edges(
            len(nodes), [(relabel[u], relabel[v]) for u, v in ag.edges()]))
    return out


class Check:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.start = time.monotonic()

    def finish(self, ok, detail=""):
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok and elapsed < self.budget_s else "FAIL"
        line = f"[criterion {self.number}] {self.label}: {status} ({elapsed:.1f}s)"
        if detail:
            line += f" -- {detail}"
        print(line)
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget_s, \
            f"criterion {self.number} exceeded its {self.budget_s}s budget ({elapsed:.1f}s)"


def test_criterion_1_graphic_complexity():
    chk = Check(1, "graphic matroids have complexity 1", 60)
    named = ["c3", "c4", "c5", "c6", "c7", "c8", "k4", "k5", "k5e", "petersen"]
    bad = [name for name in named
           if complexity(graphic_from_graph(named_graph(name))) != 1]
    # sweep: every connected simple graph on <= 5 vertices passes the
    # complexity-1 partition property; the exact minimum is 1 whenever
    # the graph has a cycle (forests sit below, at 0)
    for g in atlas_graphs(5):
        c = complexity(graphic_from_graph(g))
        has_cycle = len(g.edges) >= g.V
        if c is None or (has_cycle and c != 1) or (not has_cycle and c != 0):
            bad.append(f"V={g.V} edges={g.edges} complexity={c}")
    chk.finish(not bad, f"failures: {bad}" if bad else "corpus of 10 named + 38 swept graphs")


def test_criterion_2a_cographic_k5():
    chk = Check("2a", "cographic K_5 has complexity 1", 300)
    c = complexity(cographic_from_graph(named_graph("k5")))
    chk.finish(c == 1, f"complexity(M*(K_5)) = {c}")


def _bfs_path(edges, u, v):
    """Edges of a shortest u-v path using only `edges`, or None."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    prev = {u: None}
    queue = [u]
    for x in queue:
        for y in adj.get(x, ()):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    if v not in prev:
        return None
    path = []
    while prev[v] is not None:
        path.append(tuple(sorted((prev[v], v))))
        v = prev[v]
    return path


def test_criterion_2b_cographic_k33():
    chk = Check("2b", "cographic K_3,3 has complexity 1, yet fails the "
                      "connected-halves criterion", 300)
    g = named_graph("k3,3")
    m = cographic_from_graph(g)
    result = m.has_complexity_one
    # at each edge e = uv, split the other edges into A = one u-v path and
    # B = the rest, which holds a second, edge-disjoint u-v path; then
    # neither span(A) nor span(B) may contain v_e
    vec = dict(zip(g.edges, m.vectors))
    bad_edges = []
    for e in g.edges:
        rest = [x for x in g.edges if x != e]
        side_a = _bfs_path(rest, *e) or []
        side_b = [x for x in rest if x not in side_a]
        joined = bool(side_a) and _bfs_path(side_b, *e) is not None
        if not joined or any(in_span(vec[e], [vec[x] for x in side])
                             for side in (side_a, side_b)):
            bad_edges.append(e)
    criterion_edges = [e for e in g.edges if cog_partition_criterion(g, e)]
    ok = result is True and not bad_edges and not criterion_edges
    chk.finish(ok, f"M*(K_3,3).has_complexity_one = {result}; "
                   f"two-path partitions failing the span check at {bad_edges}; "
                   f"connected-halves criterion holding at {criterion_edges} "
                   "(K_3,3 is 3-edge-connected, so by Menger every edge's "
                   "endpoints are joined by two edge-disjoint paths in G - e)")


def test_criterion_2c_partition_criterion_equivalence():
    chk = Check("2c", "endpoint criterion <=> complexity-1 per edge; connected-halves "
                      "criterion sound but strictly stronger, all graphs <= 6 vertices",
                300)
    import networkx as nx

    edge_mismatches = []
    mismatch_graphs = []
    unsound = []
    graphs = atlas_graphs(6)
    for g in graphs:
        m = cographic_from_graph(g)
        for idx, e in enumerate(g.edges):
            if cog_endpoint_partition_criterion(g, e) != (complexity_at(m, idx, 1) is not None):
                edge_mismatches.append(f"V={g.V} edges={g.edges} at {e}")
        crit = all(cog_partition_criterion(g, e) for e in g.edges)
        c1 = m.has_complexity_one
        if crit and not c1:
            unsound.append(f"V={g.V} edges={g.edges}")
        elif c1 and not crit:
            mismatch_graphs.append(g)

    def among_mismatches(h):
        hx = nx.Graph(h.edges)
        return any(nx.is_isomorphic(nx.Graph(g.edges), hx) for g in mismatch_graphs)

    witnesses = {"K_4": among_mismatches(named_graph("k4")),
                 "K_3,3": among_mismatches(named_graph("k3,3"))}
    ok = not edge_mismatches and not unsound and all(witnesses.values())
    chk.finish(ok, f"{len(graphs)} graphs: {len(edge_mismatches)} per-edge endpoint "
                   f"mismatches {edge_mismatches}; criterion without complexity-1: "
                   f"{unsound}; complexity-1 without criterion: {len(mismatch_graphs)} "
                   f"graphs, witnesses {witnesses}")


def test_criterion_3_cycle_hierarchy():
    chk = Check(3, "canonical C_5 function separates C_5 from C_3", 60)
    c5 = graphic_from_graph(named_graph("c5"))
    c3 = graphic_from_graph(named_graph("c3"))
    f = canonical_function(c5, 7)
    contains = find_pattern(f, c5, PatternSpec.all_ones(5)) is not None
    c3_free = find_pattern(f, c3, PatternSpec.all_ones(3)) is None
    hit = pattern_hitting_number(f, c5)
    ok = contains and c3_free and hit >= 4
    chk.finish(ok, f"contains_c5={contains} c3_free={c3_free} "
                   f"hitting_number={hit} (bound 2^(7-5)=4)")


def test_criterion_4_clique_hierarchy():
    chk = Check(4, "K_5 -> K_3 has no homomorphism; canonical K_3 is K_5-free", 300)
    k3 = graphic_from_graph(named_graph("k3"))
    k5 = graphic_from_graph(named_graph("k5"))
    hom = find_homomorphism(k5, k3)
    f = canonical_function(k3, 5)
    free = find_pattern(f, k5, PatternSpec.all_ones(10)) is None
    chk.finish(hom is None and free,
               f"hom={'none' if hom is None else hom} k5_free={free} "
               "(rank-4 search over 2^20 assignments)")


def test_criterion_5_fourier_counting():
    chk = Check(5, "spectral cycle counts equal brute-force tuple counts", 60)
    rng = np.random.Generator(np.random.PCG64(505))
    failures = 0
    for i in range(100):
        n = 4 if i % 2 == 0 else 5
        f = random_function(n, rng)
        for k in (3, 4, 5):
            if cycle_count_fourier(f, k) != brute_force_cycle_count(f, k):
                failures += 1
    chk.finish(failures == 0, f"100 functions x k in {{3,4,5}}, {failures} mismatches")


def test_criterion_6_von_neumann():
    chk = Check(6, "generalized von Neumann inequality holds", 300)
    rng = np.random.Generator(np.random.PCG64(606))
    violations = 0
    for name in ("c3", "c4", "k4"):
        m = graphic_from_graph(named_graph(name))
        for _ in range(100):
            fs = [random_function(6, rng) for _ in range(m.k)]
            if not von_neumann_gap(fs, m).holds:
                violations += 1
    chk.finish(violations == 0,
               f"3 matroids x 100 trials at n=6, exact fourth-power "
               f"comparisons, {violations} violations")


def test_criterion_7_tester_calibration():
    chk = Check(7, "tester: completeness on free functions, rate matches density", 120)
    c3 = graphic_from_graph(named_graph("c3"))
    sigma = PatternSpec.all_ones(3)
    total_rejections = 0
    for a in range(1, 21):
        f = BooleanFunction(6, (np.bitwise_count(np.arange(64, dtype=np.int64) & a)
                                & 1).astype(np.uint8))
        assert find_pattern(f, c3, sigma) is None, "corpus function not certified free"
        rej, _ = run_tester(f, c3, sigma, 100000, derive_seed(707, a))
        total_rejections += rej
    f10 = canonical_function(c3, 10)
    p = count_patterns(f10, c3, sigma).density
    samples = 100000
    _, rate = run_tester(f10, c3, sigma, samples, 707)
    sd = (float(p) * (1 - float(p)) / samples) ** 0.5
    deviation = abs(float(rate) - float(p))
    ok = total_rejections == 0 and deviation <= 5 * sd
    chk.finish(ok, f"20 free functions x 1e5 samples: {total_rejections} rejections; "
                   f"canonical(C_3,10): |{float(rate):.5f} - {float(p):.5f}| "
                   f"= {deviation:.5f} <= 5sd = {5 * sd:.5f}")


def test_criterion_8_characterization():
    chk = Check(8, "nine-family characterization, exhaustively", 600)
    mismatches = 0
    for n in (2, 3):
        for k in (3, 4, 5, 6):
            mismatches += verify_characterization(n, k).mismatches
    duality_ok = True
    permutation_ok = True
    for n in (2, 3):
        for k in (3, 4, 5, 6):
            for bits in range(1, (1 << k) - 1):
                s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
                free = enumerate_free_functions(n, k, s)
                comp = enumerate_free_functions(n, k, pattern_complement(s))
                if comp != frozenset(complement(f) for f in free):
                    duality_ok = False
                rotated = PatternSpec(s.sigma[1:] + s.sigma[:1])
                swapped = PatternSpec((s.sigma[1], s.sigma[0]) + s.sigma[2:])
                if (enumerate_free_functions(n, k, rotated) != free
                        or enumerate_free_functions(n, k, swapped) != free):
                    permutation_ok = False
    ok = mismatches == 0 and duality_ok and permutation_ok
    chk.finish(ok, f"n in {{2,3}}, k in {{3..6}}, all sigma: {mismatches} mismatches; "
                   f"duality={duality_ok} permutation-invariance={permutation_ok}")


def test_criterion_9_spectral_exactness():
    chk = Check(9, "Parseval and WHT involution, exactly", 30)
    rng = np.random.Generator(np.random.PCG64(909))
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        f = random_function(n, rng)
        s = wht(f)
        if s.power_sum(2) != (1 << n) * f.ones_count():
            bad += 1
        twice = butterfly(butterfly(f.table.astype(np.int64)))
        if not np.array_equal(twice, f.table.astype(np.int64) << n):
            bad += 1
    chk.finish(bad == 0, f"1000 random functions, n <= 10, {bad} failures")


def test_criterion_10_farness_at_desk_scale():
    chk = Check(10, "canonical C_3 function is 2 flips from triangle-free", 60)
    c3 = graphic_from_graph(named_graph("c3"))
    f = canonical_function(c3, 4)
    rep = min_repair_distance(f, c3, PatternSpec.all_ones(3))
    hit = pattern_hitting_number(f, c3)
    bound = 1 << (4 - 3)
    ok = rep.flips >= bound and rep.flips == hit
    chk.finish(ok, f"exact min repair = {rep.flips} flips (delta {rep.delta}), "
                   f"bound {bound}, hitting number {hit}")
