import itertools
import math
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidlab import boolfn, tester
from matroidlab.boolfn import WHT_MAX_N, BooleanFunction, random_function
from matroidlab.errors import BudgetExceededError, DimensionMismatchError, InvalidInputError
from matroidlab.gf2 import GFVector
from matroidlab.matroid import (BinaryMatroid, _interchangeable, canonical_function,
                                cographic_from_graph, complete_bipartite_graph,
                                complete_graph, cycle_graph, graphic_from_graph, named_graph)
from matroidlab.tester import (PatternSpec, brute_force_cycle_count, count_patterns,
                               cycle_count_fourier, enumerate_instances, find_pattern,
                               min_repair_distance, pattern_hitting_number, run_tester,
                               von_neumann_gap)
from oracles import (apply, complement, constant, from_ones, from_table_int,
                     ground_basis_coords, hitting_number_by_milp, index_int, instances_by_dfs,
                     instances_by_scan, matmul_items, pattern_complement, plain_scan,
                     random_nonsingular_map, table_int)

C3 = graphic_from_graph(cycle_graph(3))
S111 = PatternSpec.all_ones(3)


def brute_triangle_count(f, sigma):
    """Independent oracle: scan all (x, y) pairs directly."""
    count = 0
    for x in range(1 << f.n):
        for y in range(1 << f.n):
            vals = (int(f.table[x]), int(f.table[y]), int(f.table[x ^ y]))
            if vals == sigma.sigma:
                count += 1
    return count


def test_pattern_spec():
    s = PatternSpec.from_string("0110")
    assert s.k == 4 and s.ones_count == 2 and s.zeros_count == 2
    assert index_int(s) == 0b0110
    assert str(pattern_complement(s)) == "1001"
    with pytest.raises(InvalidInputError):
        PatternSpec.from_string("012")


def test_find_pattern_zero_map():
    f = from_ones(2, [0])
    inst = find_pattern(f, C3, S111)
    assert inst is not None
    assert all(p.bits == 0 for p in inst.points)


def test_find_pattern_at_n0():
    # {0,1}^0 is one point, so f = 1 contains every all-ones pattern
    f = from_table_int(0, 1)
    c4 = graphic_from_graph(cycle_graph(4))
    inst = find_pattern(f, c4, PatternSpec.all_ones(4))
    assert inst.points == (GFVector(0, 0),) * 4
    assert count_patterns(f, c4, PatternSpec.all_ones(4)).span_count == 1
    assert min_repair_distance(f, c4, PatternSpec.all_ones(4)).flips \
        == pattern_hitting_number(f, c4) == 1


def test_find_pattern_halfspace_free():
    # indicator of <a, x> = 1: two ones force their XOR to value 0
    f = from_ones(3, [x for x in range(8) if x & 1])
    assert find_pattern(f, C3, S111) is None


def test_find_pattern_canonical_separation():
    c5 = graphic_from_graph(cycle_graph(5))
    f = canonical_function(c5, 7)
    assert find_pattern(f, C3, S111) is None
    inst = find_pattern(f, c5, PatternSpec.all_ones(5))
    assert inst is not None
    assert all(int(f.table[p.bits]) == 1 for p in inst.points)


def test_find_pattern_first_in_order():
    f = constant(2, 1)
    inst = find_pattern(f, C3, S111)
    assert all(u.bits == 0 for u in inst.map.images)  # t = 0 matches first


def test_find_pattern_mismatched_sigma():
    with pytest.raises(DimensionMismatchError):
        find_pattern(constant(2, 1), C3, PatternSpec.all_ones(4))


def test_find_pattern_budget():
    k5 = graphic_from_graph(complete_graph(5))
    with pytest.raises(BudgetExceededError):
        find_pattern(constant(8, 1), k5, PatternSpec.all_ones(10))
    for search in (find_pattern, count_patterns):
        with pytest.raises(InvalidInputError):
            search(constant(2, 1), C3, S111, budget_bits=-1)


def test_count_patterns_examples():
    assert count_patterns(constant(2, 1), C3, S111).span_count == 16
    assert count_patterns(constant(2, 0), C3, S111).span_count == 0
    f = from_ones(2, [1, 2])
    assert count_patterns(f, C3, S111).span_count == 0


def test_count_patterns_matches_pair_oracle():
    rng = np.random.Generator(np.random.PCG64(53))
    for _ in range(30):
        n = int(rng.integers(1, 4))
        f = random_function(n, rng)
        sigma = PatternSpec(tuple(int(b) for b in rng.integers(0, 2, 3)))
        assert count_patterns(f, C3, sigma).span_count == brute_triangle_count(f, sigma)


def test_count_report_full_map_convention():
    rep = count_patterns(constant(2, 1), C3, S111)
    assert rep.rank == 2 and rep.ambient_dim == 3
    assert rep.span_total == 2 ** 4
    assert rep.full_map_count == rep.span_count * 2 ** (2 * (3 - 2))
    assert rep.density == 1


def test_cycle_count_fourier_examples():
    f = constant(2, 1)
    assert cycle_count_fourier(f, 3) == 2 ** (2 * 2)
    assert cycle_count_fourier(constant(2, 0), 3) == 0
    assert cycle_count_fourier(from_ones(2, [1, 2]), 3) == 0
    with pytest.raises(InvalidInputError):
        cycle_count_fourier(f, 2)


def test_cycle_count_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(59))
    for _ in range(40):
        n = int(rng.integers(1, 6))
        f = random_function(n, rng)
        for k in (3, 4, 5):
            assert cycle_count_fourier(f, k) == brute_force_cycle_count(f, k)


def test_run_tester_completeness():
    f = from_ones(3, [x for x in range(8) if x & 1])
    assert find_pattern(f, C3, S111) is None
    for seed in (0, 1, 2, 99):
        rejections, rate = run_tester(f, C3, S111, 2000, seed)
        assert rejections == 0 and rate == 0


def test_run_tester_constant_one():
    rejections, rate = run_tester(constant(2, 1), C3, S111, 500, 7)
    assert rejections == 500 and rate == 1


def test_run_tester_deterministic():
    f = canonical_function(C3, 6)
    a = run_tester(f, C3, S111, 5000, seed=123)
    b = run_tester(f, C3, S111, 5000, seed=123)
    c = run_tester(f, C3, S111, 5000, seed=124)
    assert a == b
    assert a != c  # overwhelmingly likely: different seed, different draws


EVEN3 = from_ones(3, [0, 3, 5, 6])
ODD3 = complement(EVEN3)
RANK0 = BinaryMatroid([GFVector(2, 0), GFVector(2, 0)])
ZERO_PARALLEL = BinaryMatroid([GFVector(2, 0), GFVector(2, 1), GFVector(2, 1)])
# a triangle presented in dimension 4096: one random map draws 4096 images
WIDE = BinaryMatroid([GFVector(4096, 1), GFVector(4096, 1 << 4095),
                      GFVector(4096, 1 | 1 << 4095)])


@pytest.mark.parametrize("m, f, sigma, images, points, count, rejections", [
    (RANK0, EVEN3, "11", [], ["000", "000"], 1, 1000),
    (RANK0, EVEN3, "10", None, None, 0, 0),
    (RANK0, ODD3, "00", [], ["000", "000"], 1, 1000),
    (ZERO_PARALLEL, EVEN3, "111", ["000"], ["000", "000", "000"], 4, 496),
    (ZERO_PARALLEL, EVEN3, "100", ["100"], ["000", "100", "100"], 4, 504),
    (ZERO_PARALLEL, ODD3, "011", ["100"], ["000", "100", "100"], 4, 504),
    (ZERO_PARALLEL, ODD3, "111", None, None, 0, 0),
])
def test_zero_ground_vector(m, f, sigma, images, points, count, rejections):
    """A zero ground vector is evaluated at point 0 under every map, in
    the exhaustive scan and in the sampled tester alike."""
    sigma = PatternSpec.from_string(sigma)
    inst = find_pattern(f, m, sigma)
    if images is None:
        assert inst is None
    else:
        assert [u.to_bits() for u in inst.map.images] == images
        assert [p.to_bits() for p in inst.points] == points
    assert count_patterns(f, m, sigma).span_count == count
    assert run_tester(f, m, sigma, 1000, seed=5)[0] == rejections


def test_run_tester_rate_tracks_density():
    f = canonical_function(C3, 6)
    p = count_patterns(f, C3, S111).density
    samples = 200000
    _, rate = run_tester(f, C3, S111, samples, seed=11)
    sigma = (float(p) * (1 - float(p)) / samples) ** 0.5
    assert abs(float(rate) - float(p)) <= 5 * sigma


def test_bounded_draw_is_top_bits_of_a_32_bit_word():
    """run_tester's bounded draws are the top n bits of 32-bit words: the
    same values, and the same stream across consecutive calls. It reads
    those words as raw PCG64 words viewed as little-endian 32-bit pairs,
    the stream of consecutive integers(0, 2^32, uint32) calls, whose odd
    lengths leave a high half-word for the next call (5 + 7 words are 6
    raw words)."""
    for seed in (0, 7, 2 ** 40 + 3):
        for n in range(1, WHT_MAX_N + 1):
            bounded = np.random.Generator(np.random.PCG64(seed))
            raw = np.random.Generator(np.random.PCG64(seed))
            for shape in ((1, 1), (7, 3), (5, 1), (3, 10), (1, 5)):
                want = bounded.integers(0, 1 << n, size=shape, dtype=np.int64)
                got = raw.integers(0, 2 ** 32, size=shape, dtype=np.uint32) >> (32 - n)
                assert np.array_equal(got, want)
        rng = np.random.Generator(np.random.PCG64(seed))
        want = np.concatenate([rng.integers(0, 2 ** 32, size=size, dtype=np.uint32)
                               for size in (5, 7, 1, 3, 4)])
        raw = np.random.PCG64(seed).random_raw(10).astype("<u8", copy=False).view("<u4")
        assert np.array_equal(raw, want)


def reference_rejections(f, m, sigma, samples, seed):
    """The tester drawn the old way: one (samples, m) int64 array of
    bounded draws, each ground vector evaluated by a fancy index."""
    rng = np.random.Generator(np.random.PCG64(seed))
    images = rng.integers(0, 1 << f.n, size=(samples, m.m), dtype=np.int64)
    match = np.ones(samples, dtype=bool)
    for cmask, s in zip(m.ints, sigma.sigma):
        pts = np.zeros(samples, dtype=np.int64)
        for j in range(m.m):
            if cmask >> j & 1:
                pts ^= images[:, j]
        match &= f.table[pts] == s
    return int(match.sum())


@pytest.mark.parametrize("chunk", [1 << 5, 1 << 14, 1 << 20])
def test_run_tester_matches_one_array_reference(monkeypatch, chunk):
    """Rejection counts do not depend on the block size: atlas graphic
    matroids, the zero-vector and parallel presentations, several sigma."""
    from test_acceptance import atlas_graphs

    monkeypatch.setattr(tester, "_CHUNK", chunk)
    rng = np.random.Generator(np.random.PCG64(151))
    matroids = [graphic_from_graph(g) for g in atlas_graphs(5)] + [RANK0, ZERO_PARALLEL, WIDE]
    for i, m in enumerate(matroids):
        n = 1 + i % 6
        f = random_function(n, rng, 0.7)
        for _ in range(3):
            sigma = PatternSpec(tuple(int(b) for b in rng.integers(0, 2, m.k)))
            samples = int(rng.integers(1, 300))
            want = reference_rejections(f, m, sigma, samples, i)
            assert run_tester(f, m, sigma, samples, seed=i) == (want, Fraction(want, samples))
    f = random_function(16, rng)
    assert run_tester(f, C3, S111, 100003, seed=3)[0] == reference_rejections(
        f, C3, S111, 100003, 3)
    # m = 11: 8 * _CHUNK // 11 maps rounded down to even per block, so at
    # the two smaller chunks several blocks read whole raw words and only
    # the last, of an odd number of maps, reads an odd number of 32-bit words
    c11 = graphic_from_graph(cycle_graph(11))
    f = random_function(5, rng, 0.8)
    for sigma in (PatternSpec.all_ones(11), PatternSpec.from_string("11011111101")):
        want = reference_rejections(f, c11, sigma, 24001, 9)
        assert want > 50
        assert run_tester(f, c11, sigma, 24001, seed=9)[0] == want


def test_run_tester_refuses_samples_past_its_budget(monkeypatch):
    monkeypatch.setattr(tester, "TESTER_SAMPLE_BUDGET", 100)
    assert run_tester(constant(2, 1), C3, S111, 100, seed=1) == (100, 1)
    with pytest.raises(BudgetExceededError, match="101 samples exceed the tester budget of 100"):
        run_tester(constant(2, 1), C3, S111, 101, seed=1)


def test_run_tester_on_a_zero_dimensional_function():
    """n = 0: every map sends every ground vector to the one point."""
    one, zero = BooleanFunction(0, [1]), BooleanFunction(0, [0])
    assert run_tester(one, C3, S111, 1000, seed=1) == (1000, 1)
    assert run_tester(zero, C3, S111, 1000, seed=1) == (0, 0)
    assert run_tester(zero, C3, PatternSpec.from_string("000"), 5, seed=2) == (5, 1)
    assert run_tester(one, C3, PatternSpec.from_string("110"), 1000, seed=1) == (0, 0)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("graph, n, run, limit", [
    ("c3", 16, "test", 2 << 20),
    ("k4", 8, "count", 3 << 19),
    ("k5", 7, "count", 4 << 20),
    ("wide", 16, "test", 3 << 20),
])
def test_working_memory_is_cache_sized(graph, n, run, limit):
    """The tester and the elimination work in blocks of _CHUNK entries,
    and a tester block holds at most 8 * _CHUNK images, so their peak
    heap does not grow with the samples, with 2^(n*r) or with the
    presentation dimension."""
    if graph == "wide":
        m, samples = WIDE, 1 << 12
    else:
        m, samples = graphic_from_graph(named_graph(graph)), 10 ** 6
    f = random_function(n, np.random.Generator(np.random.PCG64(1)))
    sigma = PatternSpec.all_ones(m.k)
    if run == "test":
        peak = traced_peak(lambda: run_tester(f, m, sigma, samples, seed=1))
    else:
        peak = traced_peak(lambda: count_patterns(f, m, sigma))
    assert peak < limit


def test_min_repair_already_free():
    f = constant(2, 0)
    rep = min_repair_distance(f, C3, S111)
    assert rep.flips == 0 and rep.delta == 0 and rep.witness == f


def test_min_repair_constant_one_all16_oracle():
    # exhaustive oracle over all 16 functions on {0,1}^2
    f = constant(2, 1)
    free_tables = [t for t in range(16)
                   if find_pattern(from_table_int(2, t), C3, S111) is None]
    best = min(bin(0b1111 ^ t).count("1") for t in free_tables)
    rep = min_repair_distance(f, C3, S111)
    assert rep.flips == best == 2
    assert find_pattern(rep.witness, C3, S111) is None


def test_min_repair_canonical_farness():
    f = canonical_function(C3, 4)
    rep = min_repair_distance(f, C3, S111)
    assert rep.flips == 2  # 2^(n-m) lower bound met exactly
    assert rep.delta == Fraction(2, 16)
    assert pattern_hitting_number(f, C3) == rep.flips


def test_min_repair_nonmonotone_sigma():
    # forbidding (1,1,0): any one with f(0)=0 violates via the degenerate
    # (x,x,0) tuple, so f=ones{01,10} needs two flips (to a subgroup
    # indicator), verified against the exhaustive all-16-functions oracle
    sigma = PatternSpec.from_string("110")
    f = from_ones(2, [1, 2])
    best = min(
        bin(table_int(f) ^ t).count("1")
        for t in range(16)
        if find_pattern(from_table_int(2, t), C3, sigma) is None)
    rep = min_repair_distance(f, C3, sigma)
    assert rep.flips == best == 2
    assert find_pattern(rep.witness, C3, sigma) is None


def test_hitting_number_examples():
    free = from_ones(3, [x for x in range(8) if x & 1])
    assert pattern_hitting_number(free, C3) == 0
    single = from_ones(2, [1, 2, 3])
    assert pattern_hitting_number(single, C3) == 1


def test_hitting_equals_repair_on_random_instances():
    rng = np.random.Generator(np.random.PCG64(61))
    for _ in range(25):
        f = random_function(3, rng, density=0.4)
        rep = min_repair_distance(f, C3, S111)
        assert pattern_hitting_number(f, C3) == rep.flips


@pytest.mark.parametrize("k, n", [(3, 5), (3, 6), (3, 7), (3, 8), (5, 7), (5, 8)])
def test_canonical_cycle_hitting_number_against_milp(k, n):
    """The cycle hierarchy's finishing cells: the branch and bound agrees
    with an integer program on the same instance sets, and meets the
    paper's farness bound 2^(n-k-2)."""
    big = graphic_from_graph(cycle_graph(k + 2))
    f = canonical_function(big, n)
    hit = pattern_hitting_number(f, big)
    assert hit == hitting_number_by_milp(enumerate_instances(f, big))
    assert hit >= 1 << (n - k - 2)


def test_min_hitting_set_against_milp_on_random_hypergraphs():
    rng = np.random.Generator(np.random.PCG64(67))
    for _ in range(40):
        points = int(rng.integers(1, 13))
        edges = [frozenset(rng.choice(points, size=int(rng.integers(1, min(points, 5) + 1)),
                                      replace=False).tolist())
                 for _ in range(int(rng.integers(1, 16)))]
        assert tester._min_hitting_set(edges) == hitting_number_by_milp(edges)


def test_hitting_number_against_milp_on_random_functions():
    rng = np.random.Generator(np.random.PCG64(71))
    for m in (C3, graphic_from_graph(cycle_graph(5)), graphic_from_graph(complete_graph(4))):
        for _ in range(5):
            f = random_function(4, rng, density=0.3)
            assert pattern_hitting_number(f, m) == hitting_number_by_milp(
                enumerate_instances(f, m))


def repair_by_subsets(f, m, sigma, budget):
    """Reference for min_repair_distance: one find_pattern per flip set,
    in `combinations` order over the same points. Returns (flips, witness,
    position), position being the 1-based place of the witness's flip set
    in that order (0 when f is already free). Refuses past `budget` sets."""
    if find_pattern(f, m, sigma) is None:
        return 0, f, 0
    points = f.ones() if sigma.is_all_ones() else range(1 << f.n)
    position = 0
    for s in range(1, len(points) + 1):
        for subset in combinations(points, s):
            position += 1
            if position > budget:
                raise BudgetExceededError("repair search budget exceeded")
            table = f.table.copy()
            table[list(subset)] ^= 1
            candidate = BooleanFunction(f.n, table)
            if find_pattern(candidate, m, sigma) is None:
                return s, candidate, position
    raise AssertionError("no free flip set")


def assert_repair_matches_oracle(f, m, sigma):
    flips, witness, _ = repair_by_subsets(f, m, sigma, tester.REPAIR_CHECK_BUDGET)
    rep = min_repair_distance(f, m, sigma)
    assert rep.flips == flips
    assert rep.delta == Fraction(flips, 1 << f.n)
    assert np.array_equal(rep.witness.table, witness.table)


C5 = graphic_from_graph(cycle_graph(5))
K4 = graphic_from_graph(complete_graph(4))
# distance 5 from (C_3, 110)-freeness
R110 = from_ones(4, [1, 3, 4, 5, 7, 8, 14])


@pytest.mark.parametrize("m", [C3, C5, K4], ids=["C3", "C5", "K4"])
def test_min_repair_matches_the_subset_oracle(m):
    """Seeded random functions at n <= 4, with Sigma = 1^k and a random
    non-monochromatic Sigma. C_5 with a general Sigma at n = 4 is left
    out: the oracle alone takes seconds there."""
    rng = np.random.Generator(np.random.PCG64(83))
    for n in (2, 3, 3, 3, 3, 4):
        f = random_function(n, rng)
        assert_repair_matches_oracle(f, m, PatternSpec.all_ones(m.k))
        if n == 4 and m is C5:
            continue
        sigma = (1,) * m.k
        while len(set(sigma)) == 1:
            sigma = tuple(int(b) for b in rng.integers(0, 2, m.k))
        assert_repair_matches_oracle(f, m, PatternSpec(sigma))


@pytest.mark.parametrize("m", [C3, C5], ids=["C3", "C5"])
@pytest.mark.parametrize("extra", [1, 2])
def test_min_repair_matches_the_oracle_at_the_ones_cap(m, extra):
    """24 ones: points of the half-space x_0 = 1, which holds no odd
    cycle, plus `extra` points off it."""
    rng = np.random.Generator(np.random.PCG64(89 + extra))
    odd = rng.choice(np.arange(1, 64, 2), 24 - extra, replace=False)
    even = rng.choice(np.arange(0, 64, 2), extra, replace=False)
    f = from_ones(6, [int(x) for x in np.concatenate([odd, even])])
    assert f.ones_count() == 24
    assert_repair_matches_oracle(f, m, PatternSpec.all_ones(m.k))
    table = f.table.copy()
    table[int(rng.choice(np.flatnonzero(table == 0)))] = 1
    with pytest.raises(BudgetExceededError, match="25 ones exceed the repair cap of 24"):
        min_repair_distance(BooleanFunction(6, table), m, PatternSpec.all_ones(m.k))


@pytest.mark.parametrize("f, sigma", [(R110, PatternSpec.from_string("110")),
                                      (canonical_function(C3, 5), S111)],
                         ids=["r110", "canonical"])
def test_min_repair_refuses_where_the_oracle_does(monkeypatch, f, sigma):
    flips, witness, position = repair_by_subsets(f, C3, sigma, tester.REPAIR_CHECK_BUDGET)
    for budget in (1, 16, 17, 136, position - 1, position):
        monkeypatch.setattr(tester, "REPAIR_CHECK_BUDGET", budget)
        if budget < position:
            with pytest.raises(BudgetExceededError):
                repair_by_subsets(f, C3, sigma, budget)
            with pytest.raises(BudgetExceededError, match="repair search budget"):
                min_repair_distance(f, C3, sigma)
        else:
            rep = min_repair_distance(f, C3, sigma)
            assert rep.flips == flips
            assert np.array_equal(rep.witness.table, witness.table)


def test_min_repair_refusal_says_how_far_it_got(monkeypatch):
    # R110 has 16 one-point and 120 two-point flip sets, none free
    monkeypatch.setattr(tester, "REPAIR_CHECK_BUDGET", 20)
    with pytest.raises(BudgetExceededError) as err:
        min_repair_distance(R110, C3, PatternSpec.from_string("110"))
    assert str(err.value) == ("repair search budget of 20 flip sets exceeded at flip-set "
                              "size 2: 4 of the 120 sets of that size ruled out")
    monkeypatch.setattr(tester, "REPAIR_CHECK_BUDGET", 16)
    with pytest.raises(BudgetExceededError, match="size 2: 0 of the 120 sets"):
        min_repair_distance(R110, C3, PatternSpec.from_string("110"))


def test_min_repair_runs_without_the_hitting_route(monkeypatch):
    """hitting_matches_repair compares two independent computations only
    if the repair search reads nothing of the instance-hypergraph route."""
    monkeypatch.setattr(tester, "enumerate_instances", None)
    monkeypatch.setattr(tester, "_min_hitting_set", None)
    assert min_repair_distance(canonical_function(C3, 4), C3, S111).flips == 2
    assert min_repair_distance(R110, C3, PatternSpec.from_string("110")).flips == 5


def test_enumerate_instances_structure():
    f = canonical_function(C3, 4)
    edges = enumerate_instances(f, C3)
    ones = set(f.ones())
    for e in edges:
        assert e <= ones


def scan_all_ones_matches(f, vectors):
    """Independent oracle: every linear map on the span of `vectors`,
    scanned through the images of a greedy basis; returns the point
    tuples of the maps that send every vector to a one of f."""
    coords, r = ground_basis_coords(vectors)
    low = (1 << f.n) - 1
    matches = []
    for t in range(1 << (f.n * r)):
        points = []
        for c in coords:
            p = 0
            for j in range(r):
                if c >> j & 1:
                    p ^= t >> (j * f.n) & low
            points.append(p)
        if all(int(f.table[p]) for p in points):
            matches.append(points)
    return matches


def test_enumerate_instances_matches_the_scan():
    # a node of the enumeration is an all-ones instance of a prefix of
    # the ground set, so it raises exactly when those outnumber the budget
    rng = np.random.Generator(np.random.PCG64(67))
    outcomes = set()
    for _ in range(200):
        n = int(rng.integers(2, 5))
        m_dim = int(rng.integers(1, 4))
        vectors = [int(v) for v in rng.integers(0, 1 << m_dim, int(rng.integers(1, 6)))]
        m = BinaryMatroid([GFVector(m_dim, v) for v in vectors])
        f = random_function(n, rng, density=0.6)
        prefixes = [scan_all_ones_matches(f, vectors[:d]) for d in range(1, len(vectors) + 1)]
        nodes = sum(map(len, prefixes))
        expected = sorted({frozenset(p) for p in prefixes[-1]}, key=sorted)
        for budget in (5, 50, 500, tester.HITTING_INSTANCE_BUDGET):
            if nodes > budget:
                with pytest.raises(BudgetExceededError,
                                   match=rf"exceeded {budget} nodes; "
                                         rf"deepest element \d+ of {m.k}$"):
                    enumerate_instances(f, m, budget)
            else:
                assert enumerate_instances(f, m, budget) == expected
            outcomes.add((nodes > budget, bool(expected)))
    assert {(True, True), (False, True), (False, False)} <= outcomes


def assert_instances_match_the_dfs(f, m, budget=20_000):
    """enumerate_instances returns the point-at-a-time DFS's sets at a
    budget of exactly the DFS's node count and refuses one node fewer;
    where the DFS runs past `budget`, it refuses that budget too. True
    when the sets were compared."""
    try:
        expected, nodes, _ = instances_by_dfs(f, m, budget)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError, match=rf"exceeded {budget} nodes; "):
            enumerate_instances(f, m, budget)
        return False
    assert enumerate_instances(f, m, nodes) == expected
    if nodes:
        with pytest.raises(BudgetExceededError,
                           match=rf"exceeded {nodes - 1} nodes; deepest element \d+ of {m.k}$"):
            enumerate_instances(f, m, nodes - 1)
    return True


def test_enumerate_instances_matches_the_dfs_on_atlas_graphs():
    # every connected graph on at most 5 vertices, graphic and cographic
    # (trees give loops), at n = 2..5 and densities 0.1..0.9; cases past
    # 5,000 DFS nodes are compared by their refusal
    from test_acceptance import atlas_graphs

    rng = np.random.Generator(np.random.PCG64(71))
    compared = refused = 0
    for g in atlas_graphs(5):
        for m in (graphic_from_graph(g), cographic_from_graph(g)):
            for n in range(2, 6):
                for density in np.arange(1, 10) / 10:
                    f = random_function(n, rng, density=density)
                    if assert_instances_match_the_dfs(f, m, budget=5_000):
                        compared += 1
                    else:
                        refused += 1
    assert compared > 1500 and refused > 100


def test_all_ones_labelings_are_the_span_count():
    """For Sigma = 1^k the DFS's leaves are the linear maps on M's span
    that send every ground vector to a one, so their number is the span
    count: every atlas graph's M and M* on at most 5 vertices, at the
    largest n <= 4 with n*rank <= 20."""
    from test_acceptance import atlas_graphs

    rng = np.random.Generator(np.random.PCG64(211))
    for g in atlas_graphs(5):
        for m in (graphic_from_graph(g), cographic_from_graph(g)):
            f = random_function(min(4, 20 // max(m.rank, 1)), rng, density=0.5)
            _, _, leaves = instances_by_dfs(f, m, 10 ** 6)
            assert leaves == count_patterns(f, m, PatternSpec.all_ones(m.k)).span_count


@pytest.mark.parametrize("m", [graphic_from_graph(complete_graph(4)),
                               graphic_from_graph(complete_graph(5)),
                               cographic_from_graph(complete_graph(4)),
                               cographic_from_graph(complete_graph(5))],
                         ids=["k4", "k5", "k4co", "k5co"])
def test_enumerate_instances_with_forced_elements_between_free_ones(m):
    # in the cographic presentations forced elements sit between free ones,
    # so a free level is peeked through at some depths and not at others
    rng = np.random.Generator(np.random.PCG64(73))
    for n, density in ((3, 0.3), (3, 0.6), (3, 0.9), (4, 0.3)):
        assert assert_instances_match_the_dfs(random_function(n, rng, density=density), m,
                                              budget=300_000)


def test_enumerate_instances_with_a_loop_and_a_parallel_pair():
    # a loop takes the point 0, and a parallel pair one point twice
    m = BinaryMatroid([GFVector(2, v) for v in (1, 0, 2, 2, 3)])
    rng = np.random.Generator(np.random.PCG64(79))
    for n in (2, 3, 4):
        for _ in range(10):
            f = random_function(n, rng, density=0.6)
            assert assert_instances_match_the_dfs(f, m)
            if f.table[0]:
                assert all(0 in e and len(e) <= 4 for e in enumerate_instances(f, m))
            else:
                assert enumerate_instances(f, m) == []


def test_enumerate_instances_on_a_function_with_no_ones():
    for m in (C3, C5, K4, ZERO_PARALLEL):
        assert enumerate_instances(constant(4, 0), m, 0) == []
        assert instances_by_dfs(constant(4, 0), m, 0) == ([], 0, 0)


def test_enumerate_instances_splits_rows_and_ones(monkeypatch):
    # with 2^5 grid entries per block, 40-odd ones split the ones axis
    # and every level past the first splits the rows
    monkeypatch.setattr(tester, "_CHUNK", 1 << 5)
    rng = np.random.Generator(np.random.PCG64(83))
    for m in (C3, K4, cographic_from_graph(complete_graph(4)),
              BinaryMatroid([GFVector(2, v) for v in (1, 0, 2, 2, 3)])):
        f = random_function(6, rng, density=0.6)
        assert f.ones_count() > 1 << 5
        assert assert_instances_match_the_dfs(f, m, budget=300_000)


def test_enumerate_instances_working_memory():
    """Memory holds one block per level, so on canonical C_5 at n=8
    (4,096 sets from 491,520 labelings) the peak is that of the result
    sets, as it was for the point-at-a-time DFS (3.47 MiB traced)."""
    f = canonical_function(C5, 8)
    assert traced_peak(lambda: enumerate_instances(f, C5)) < 3.75 * (1 << 20)


def test_enumerate_instances_prices_its_leading_free_levels_first():
    """Canonical C_5 at n=24 has 2.6 million ones, and its first two free
    levels alone pass the node budget: the walk refuses before it lists
    them or builds a block."""
    f = canonical_function(C5, 24)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match="exceeded 10000000 nodes; deepest element 2 of 5$"):
            enumerate_instances(f, C5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_in_class_swaps_keep_the_all_ones_labelings():
    """Every transposition within a class of _interchangeable maps the
    scan's all-ones labelings onto themselves: random binary matroids
    with loops and repeated vectors, in random functions."""
    rng = np.random.Generator(np.random.PCG64(97))
    swaps = 0
    for _ in range(60):
        m_dim = int(rng.integers(1, 4))
        vectors = [int(v) for v in rng.integers(0, 1 << m_dim, int(rng.integers(1, 5)))]
        vectors += [0, vectors[0]]
        rng.shuffle(vectors)
        m = BinaryMatroid([GFVector(m_dim, v) for v in vectors])
        f = random_function(int(rng.integers(1, 4)), rng, density=0.6)
        labelings = set(map(tuple, scan_all_ones_matches(f, vectors)))
        for j, i in enumerate(_interchangeable(m)):
            if i is not None:
                swapped = {p[:i] + (p[j],) + p[i + 1:j] + (p[i],) + p[j + 1:] for p in labelings}
                assert swapped == labelings, (vectors, i, j)
                swaps += 1
    assert swaps > 60


@st.composite
def instance_cases(draw):
    """(vectors, dim, n, seed, perm): a binary matroid of 1..6 vectors in
    {0,1}^dim, dim <= 3, so loops and repeated vectors are common, a
    function dimension n <= 4, a seed for f and the map A, and a
    permutation of the ground set."""
    dim, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    vectors = draw(st.lists(st.integers(0, (1 << dim) - 1), min_size=k, max_size=k))
    return (vectors, dim, draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.permutations(range(k))))


def test_enumerate_instances_is_equivariant():
    """Permuting M's ground set leaves the instance sets unchanged, so
    classes that are not runs of the ground order are pruned soundly;
    and the sets of f∘A, A an invertible map of {0,1}^n, are those of f
    moved by A^-1."""
    seen = set()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(case=instance_cases())
    def check(case):
        vectors, dim, n, seed, perm = case
        rng = np.random.default_rng(seed)
        f = random_function(n, rng, density=float(rng.choice([0.3, 0.6, 0.9])))
        m = BinaryMatroid([GFVector(dim, v) for v in vectors])
        sets = enumerate_instances(f, m)
        permuted = BinaryMatroid([m.vectors[i] for i in perm])
        assert enumerate_instances(f, permuted) == sets
        prev = _interchangeable(permuted)
        if any(i is not None and i != j - 1 for j, i in enumerate(prev)):
            seen.add("class not a run")
        a = random_nonsingular_map(n, rng)
        image = np.array([apply(a, GFVector(n, x)).bits for x in range(1 << n)])
        inverse = np.argsort(image)     # inverse[A x] = x
        moved = sorted({frozenset(int(inverse[p]) for p in e) for e in sets}, key=sorted)
        assert enumerate_instances(BooleanFunction(n, f.table[image]), m) == moved
        seen.add(bool(sets))

    check()
    assert seen == {"class not a run", True, False}


def leaf_rows(monkeypatch):
    """Spy on _distinct_rows: the returned list gets the length of every
    leaf block the walk builds."""
    real, sizes = tester._distinct_rows, []

    def spy(rows):
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(tester, "_distinct_rows", spy)
    return sizes


@pytest.mark.parametrize("k, n, rows", [(5, 7, 256), (7, 8, 64)])
def test_enumerate_instances_walks_one_labeling_per_set(monkeypatch, k, n, rows):
    """C_k is one class, so only labelings sorted in ground order are
    walked: one leaf row per instance set, where every labeling of each
    set (30,720 and 322,560 rows) was built before."""
    m = graphic_from_graph(cycle_graph(k))
    f = canonical_function(m, n)
    sizes = leaf_rows(monkeypatch)
    sets = enumerate_instances(f, m)
    assert sum(sizes) == len(sets) == rows
    assert sets == instances_by_scan(f, m)


def test_enumerate_instances_prices_exact_prefix_counts_before_the_walk(monkeypatch):
    """Canonical C_5 at n=7: its cheap bound, 328,420 nodes, passes a
    budget of the exact total 199,140, so the prefixes are counted; one
    node fewer is refused at the forced fifth element before any block
    is built, and the exact total itself returns the scan's sets."""
    f = canonical_function(C5, 7)
    expected, nodes, _ = instances_by_dfs(f, C5, 10 ** 6)
    assert nodes == 199_140 and expected == instances_by_scan(f, C5)
    counted, built = [], leaf_rows(monkeypatch)    # leaf blocks and column_stack calls
    real_count, real_stack = tester._prefix_count, np.column_stack
    monkeypatch.setattr(tester, "_prefix_count", lambda *a: counted.append(a[2]) or real_count(*a))
    monkeypatch.setattr(np, "column_stack", lambda *a: built.append(a) or real_stack(*a))
    with pytest.raises(BudgetExceededError) as err:
        enumerate_instances(f, C5, nodes - 1)
    assert str(err.value) == "instance enumeration exceeded 199139 nodes; deepest element 5 of 5"
    assert counted == [5] and built == []
    assert enumerate_instances(f, C5, nodes) == expected
    assert counted == [5, 5] and built


def test_enumerate_instances_refuses_a_prefix_count_past_62_bits():
    """The prefix counts are _count's, so a forced prefix whose n*rank
    passes 62 bits is refused as count_patterns refuses it, and only
    when the cheap bound sends the pricing there. C_5 on unit vectors in
    a function with one point x != 0 has N_d = 1, 1, 1, 1, 0: within a
    budget of 5 the cheap bound (5) answers, and at 4 the fifth prefix,
    of rank 4 at n = 16, is refused."""
    m = BinaryMatroid([GFVector(4, v) for v in (1, 2, 4, 8, 15)])
    f = from_ones(16, [5])
    assert enumerate_instances(f, m, 5) == []
    with pytest.raises(BudgetExceededError, match=r"the first 5 elements have n\*rank = 64"):
        enumerate_instances(f, m, 4)


def test_min_hitting_set_refusal_says_how_far_it_got(monkeypatch):
    # canonical C_3 at n=5: 16 triangles over 12 points, hitting number 4,
    # proved at the 25th node of the branch and bound
    edges = enumerate_instances(canonical_function(C3, 5), C3)
    assert len(edges) == 16
    monkeypatch.setattr(tester, "HITTING_SET_BUDGET", 25)
    assert tester._min_hitting_set(edges) == 4
    for budget, best in ((13, 6), (24, 4)):
        monkeypatch.setattr(tester, "HITTING_SET_BUDGET", budget)
        with pytest.raises(BudgetExceededError) as err:
            tester._min_hitting_set(edges)
        assert str(err.value) == (f"hitting-set search exceeded {budget} nodes; best hitting "
                                  f"set so far {best} points, root lower bound 4")
    with pytest.raises(BudgetExceededError, match="hitting-set search exceeded 24 nodes"):
        pattern_hitting_number(canonical_function(C3, 5), C3)


def test_von_neumann_trivial():
    ones = [constant(2, 1)] * 3
    rep = von_neumann_gap(ones, C3)
    assert rep.lhs == 1 and rep.rhs_fourth_power == 1 and rep.holds
    zeros = [constant(2, 0)] * 3
    rep = von_neumann_gap(zeros, C3)
    assert rep.lhs == 0 and rep.holds


def test_von_neumann_random():
    rng = np.random.Generator(np.random.PCG64(67))
    for _ in range(20):
        fs = [random_function(4, rng) for _ in range(3)]
        assert von_neumann_gap(fs, C3).holds


def full_map_mean(fs, m, n):
    """E_L prod_i f_i(L v_i) over every linear map L: {0,1}^m -> {0,1}^n,
    each map read as m basis images and applied to the presentation
    vectors, 2^15 maps at a time."""
    total, count = 1 << (n * m.m), 0
    for start in range(0, total, 1 << 15):
        t = np.arange(start, min(total, start + (1 << 15)), dtype=np.int64)
        match = np.ones(len(t), dtype=bool)
        for g, v in zip(fs, m.ints):
            pts = np.zeros_like(t)
            for j in range(m.m):
                if v >> j & 1:
                    pts ^= (t >> (j * n)) & ((1 << n) - 1)
            match &= g.table[pts] == 1
        count += int(np.count_nonzero(match))
    return Fraction(count, total)


@pytest.mark.parametrize("m, n, eliminated", [
    (C3, 4, (False, False, False)), (C3, 7, (False, True, True)),
    (graphic_from_graph(complete_graph(4)), 4, (False, False, False)),
    (graphic_from_graph(complete_graph(4)), 5, (False, False, True)),
], ids=["c3-scan", "c3-both", "k4-scan", "k4-both"])
def test_von_neumann_lhs_is_the_physical_average(m, n, eliminated):
    """lhs on k distinct tables, one per ground vector, against an
    average taken without the engine: on C_3 over (x, y, x ^ y), on K_4
    over every linear map of its presentation. A factor read at the
    wrong ground vector changes the number. `eliminated` is the route
    at densities 0.3, 0.5 and 0.8: the scan's price follows the
    supports of the factors read at one basis variable."""
    rng = np.random.Generator(np.random.PCG64(179))
    for density, route in zip((0.3, 0.5, 0.8), eliminated):
        fs = [random_function(n, rng, density) for _ in range(m.k)]
        assert len({g.table.tobytes() for g in fs}) == m.k
        factors = tester._factors([g.table == 1 for g in fs], m.span_coords)
        assert (tester._priced(factors, n, m.rank) is not None) == route
        lhs = von_neumann_gap(fs, m).lhs
        if m is C3:
            x = np.arange(1 << n)[:, None]
            y = np.arange(1 << n)[None, :]
            hits = fs[0].table[x] & fs[1].table[y] & fs[2].table[x ^ y]
            assert lhs == Fraction(int(hits.sum()), 1 << (2 * n))
        assert lhs == full_map_mean(fs, m, n)


def test_von_neumann_rejects_bad_matroid():
    parallel = BinaryMatroid([GFVector(2, 1), GFVector(2, 1)])
    fs = [constant(2, 1)] * 2
    with pytest.raises(InvalidInputError):
        von_neumann_gap(fs, parallel)


def test_monotone_closure():
    rng = np.random.Generator(np.random.PCG64(73))
    done = 0
    while done < 500:
        f = random_function(3, rng, density=0.3)
        if find_pattern(f, C3, S111) is not None:
            continue
        mask = rng.integers(0, 2, size=8).astype(np.uint8)
        g = BooleanFunction(3, f.table & mask)
        assert find_pattern(g, C3, S111) is None
        done += 1


def test_complement_symmetry():
    rng = np.random.Generator(np.random.PCG64(79))
    for _ in range(200):
        f = random_function(2, rng)
        sigma = PatternSpec(tuple(int(b) for b in rng.integers(0, 2, 3)))
        lhs = find_pattern(f, C3, sigma) is None
        rhs = find_pattern(complement(f), C3, pattern_complement(sigma)) is None
        assert lhs == rhs


def test_cycle_sigma_permutation_invariance():
    # the k-cycle's lone circuit is symmetric, so only the multiset of
    # sigma matters; exhaustive at n = 2 over rotation and reversal
    for k in (3, 4):
        m = graphic_from_graph(cycle_graph(k))
        for bits in range(1 << k):
            sigma = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
            rotated = PatternSpec(sigma.sigma[1:] + sigma.sigma[:1])
            reversed_ = PatternSpec(sigma.sigma[::-1])
            for t in range(16):
                f = from_table_int(2, t)
                base_free = count_patterns(f, m, sigma).span_count == 0
                assert base_free == (count_patterns(f, m, rotated).span_count == 0)
                assert base_free == (count_patterns(f, m, reversed_).span_count == 0)


def random_matroid(rng, rank0=False):
    """A random binary matroid of 1..7 elements in {0,1}^d, d = 1..4.
    Small d makes loops and parallel elements common; rank0 draws every
    element as a loop."""
    d, k = int(rng.integers(1, 5)), int(rng.integers(1, 8))
    ints = [0] * k if rank0 else rng.integers(0, 1 << d, size=k).tolist()
    return BinaryMatroid([GFVector(d, int(v)) for v in ints])


def invariance_cases(seed, cases=60):
    """Seeded (f, M, Sigma) triples with n*rank up to 14, every tenth of
    rank 0, on both routes of count_patterns."""
    rng = np.random.Generator(np.random.PCG64(seed))
    routes = set()
    for i in range(cases):
        m = random_matroid(rng, rank0=i % 10 == 0)
        n = int(rng.integers(1, 14 // max(m.rank, 1) + 1))
        sigma = PatternSpec(tuple(int(b) for b in rng.integers(0, 2, m.k)))
        f = random_function(n, rng, rng.choice([0.2, 0.5, 0.8]))
        factors = tester._factors(tester._lookups(f.table, sigma.sigma), m.span_coords)
        routes.add(tester._priced(factors, n, m.rank) is None)
        yield f, m, sigma, rng
    assert routes == {True, False}


def span_count(f, m, sigma):
    return count_patterns(f, m, sigma).span_count


@st.composite
def invariance_draws(draw):
    """(f, M, Sigma, rng): a random binary matroid of 1..7 elements in
    {0,1}^d, d <= 4, so parallel elements are common, with up to two
    loops, or of rank 0 (every element a loop) on one draw in five;
    Sigma; f on {0,1}^n with n*rank <= 14, n drawn down from its cap,
    of density 0.2, 0.5 or 0.8; and an rng seeded from the draw for the
    map the test applies."""
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    ints = draw(st.lists(st.integers(1, (1 << d) - 1), min_size=k, max_size=k))
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        ints[i] = 0
    if draw(st.integers(0, 4)) == 4:
        ints = [0] * k
    m = BinaryMatroid([GFVector(d, v) for v in ints])
    cap = 14 // max(m.rank, 1)
    n = cap - draw(st.integers(0, cap - 1))
    sigma = PatternSpec(tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_function(n, rng, draw(st.sampled_from([0.2, 0.5, 0.8]))), m, sigma, rng


def check_invariance(check):
    """Run check(f, m, sigma, rng) on 60 derandomized invariance_draws,
    which must reach both routes of count_patterns."""
    routes = set()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=invariance_draws())
    def run(case):
        f, m, sigma, rng = case
        factors = tester._factors(tester._lookups(f.table, sigma.sigma), m.span_coords)
        routes.add(tester._priced(factors, f.n, m.rank) is None)
        check(f, m, sigma, rng)

    run()
    assert routes == {True, False}


def test_count_is_invariant_under_a_change_of_domain_basis():
    """f -> f o A for a nonsingular A on {0,1}^n."""
    def check(f, m, sigma, rng):
        a = random_nonsingular_map(f.n, rng)
        moved = [apply(a, GFVector(f.n, x)).bits for x in range(1 << f.n)]
        g = BooleanFunction(f.n, f.table[moved])
        assert span_count(g, m, sigma) == span_count(f, m, sigma)

    check_invariance(check)


def test_count_is_invariant_under_a_change_of_presentation():
    """v_i -> B v_i for a nonsingular B on {0,1}^d: the same matroid."""
    def check(f, m, sigma, rng):
        b = random_nonsingular_map(m.m, rng)
        moved = BinaryMatroid([apply(b, v) for v in m.vectors])
        assert span_count(f, moved, sigma) == span_count(f, m, sigma)

    check_invariance(check)


def test_count_is_invariant_under_a_ground_permutation():
    """The ground set and Sigma permuted alike."""
    def check(f, m, sigma, rng):
        perm = rng.permutation(m.k)
        moved = BinaryMatroid([m.vectors[i] for i in perm])
        permuted = PatternSpec(tuple(sigma.sigma[i] for i in perm))
        assert span_count(f, moved, permuted) == span_count(f, m, sigma)

    check_invariance(check)


def test_count_is_invariant_under_complement():
    """f -> 1 - f with Sigma complemented."""
    def check(f, m, sigma, rng):
        assert span_count(complement(f), m, pattern_complement(sigma)) == span_count(f, m, sigma)

    check_invariance(check)


def is_violation(points, f, m, sigma):
    """The point indices read Sigma under f and XOR to zero on every
    word of M's dependency code, so a linear map sends each v_i to
    points[i]."""
    if any(int(f.table[p]) != s for p, s in zip(points, sigma.sigma)):
        return False
    for word in m.kernel_words:
        total = 0
        for i, p in enumerate(points):
            if word >> i & 1:
                total ^= p
        if total:
            return False
    return True


def test_is_violation_says_no():
    """The canonical function of C_3 is 1 where the low three bits are
    011, 101 or 110. A triangle of ones is a witness; points that XOR to
    0 with a zero among them, and ones that do not XOR to 0, are not."""
    f = canonical_function(C3, 4)
    assert is_violation([3, 5, 6], f, C3, S111)
    assert not is_violation([3, 11, 8], f, C3, S111)
    assert not is_violation([3, 5, 13], f, C3, S111)


def carried(f, m, sigma, rng):
    """The four maps that keep (M, Sigma)-freeness, each as
    (name, (f', M', Sigma'), there, back): `there` carries the points of
    an instance of (f, M, Sigma) to one of (f', M', Sigma'), `back` the
    other way."""
    a = random_nonsingular_map(f.n, rng)
    image = np.array([apply(a, GFVector(f.n, x)).bits for x in range(1 << f.n)])
    inverse = np.argsort(image)
    b = random_nonsingular_map(m.m, rng)
    perm = rng.permutation(m.k)
    unmoved = list
    yield ("f o A", (BooleanFunction(f.n, f.table[image]), m, sigma),
           lambda pts: [int(inverse[p]) for p in pts], lambda pts: [int(image[p]) for p in pts])
    yield ("B v_i", (f, BinaryMatroid([apply(b, v) for v in m.vectors]), sigma),
           unmoved, unmoved)
    yield ("ground permutation",
           (f, BinaryMatroid([m.vectors[i] for i in perm]),
            PatternSpec(tuple(sigma.sigma[i] for i in perm))),
           lambda pts: [pts[i] for i in perm], lambda pts: [pts[i] for i in np.argsort(perm)])
    yield "complement", (complement(f), m, pattern_complement(sigma)), unmoved, unmoved


def test_free_verdict_and_witnesses_carry_across_the_invariances(monkeypatch):
    """find_pattern's verdict is the same on both sides of each map, and
    each side's witness, carried across, is a violation on the other
    side. Witnesses come from every route: a match in the first chunk of
    the supported scan ends the call ("probe"); otherwise the call
    descends exactly when _priced, with u_{r-1} kept and that chunk
    walked, picks elimination, and else scans on. Chunks of 2^6 entries
    let the first chunk miss on these small inputs."""
    monkeypatch.setattr(tester, "_CHUNK", 1 << 6)
    descents = []
    descend = tester._descend
    monkeypatch.setattr(tester, "_descend", lambda *args: descents.append(args) or descend(*args))
    seen = set()

    def witness(f, m, sigma):
        descents.clear()
        inst = find_pattern(f, m, sigma)
        n, coords, r = f.n, m.span_coords, m.rank
        factors = tester._factors(tester._lookups(f.table, sigma.sigma), coords)
        route = "scan"
        first = next(tester._scan_chunks(factors, n, r), None)
        if first is not None and first[1].any():
            route = "probe"
        elif first is not None and tester._priced(factors, n, r, 1 << r >> 1,
                                                  first[0].shape[1]) is not None:
            route = "descent"
        assert (route == "descent") == bool(descents)
        seen.add((route, inst is not None))
        return None if inst is None else [p.bits for p in inst.points]

    for f, m, sigma, rng in invariance_cases(199):
        mine = witness(f, m, sigma)
        for name, other, there, back in carried(f, m, sigma, rng):
            theirs = witness(*other)
            assert (mine is None) == (theirs is None), name
            if mine is not None:
                assert is_violation(there(mine), *other), name
                assert is_violation(back(theirs), f, m, sigma), name
    assert seen == {("probe", True), ("scan", True), ("scan", False), ("descent", True),
                    ("descent", False)}


def test_repair_and_hitting_number_are_invariant():
    """min_repair_distance's flips, and the hitting number, under f o A
    and a ground permutation, at n <= 4."""
    checked = 0
    for f, m, sigma, rng in invariance_cases(211):
        if f.n > 4:
            continue
        flips = min_repair_distance(f, m, sigma).flips
        hits = pattern_hitting_number(f, m)
        for name, (g, moved, permuted), _, _ in carried(f, m, sigma, rng):
            if name in ("f o A", "ground permutation"):
                assert min_repair_distance(g, moved, permuted).flips == flips, name
                assert pattern_hitting_number(g, moved) == hits, name
                checked += 1
    assert checked > 40


# ---------------------------------------------------------------------------
# exact counts by variable elimination and by the supported scan, and
# witnesses by the descent and the scan, held against the plain scan of
# tests/oracles.py, which shares no code with the engine


def table_lookups(tables, sigma):
    """The per-element lookups of explicit tables: [tables[i] == sigma[i]]."""
    return [table == s for table, s in zip(tables, sigma)]


def table_factors(tables, coords, sigma):
    """The engine's factor table for explicit tables."""
    return tester._factors(table_lookups(tables, sigma), coords)


def scan_count(tables, n, coords, sigma, r):
    """The plain scan's number of matches."""
    return plain_scan(tables, n, coords, sigma, r)[0]


def scan_first(tables, n, coords, sigma, r):
    """The plain scan's smallest matching index, or None."""
    return plain_scan(tables, n, coords, sigma, r)[1]


def forced(route):
    """A stand-in for _priced that picks `route` whatever the price: the
    scan (None), or _plan's steps, so _count eliminates and _first
    descends after its first chunk. A rank-0 scan is one assignment,
    so no descent follows its first chunk."""
    def priced(factors, n, r, keep=0, walked=0):
        if route == "scan" or (walked and not r):
            return None
        return tester._plan(factors, n, keep)[0]
    return priced


def eliminated(lookups, n, coords, r):
    """The elimination counter on its own, whatever the planner's price:
    _count with the route forced to _plan's steps, on any integer lookups
    at distinct forms (the table ANDs the lookups of a repeated form)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tester, "_priced", forced("elimination"))
        return tester._count(tester._factors(lookups, coords), n, r)


def eliminated_count(tables, n, coords, sigma, r):
    """The elimination's count of the assignments realizing sigma."""
    return eliminated(table_lookups(tables, sigma), n, coords, r)


def descended(tables, n, coords, sigma, r):
    """The witness descent on its own, whatever the planner's price."""
    return tester._descend(table_factors(tables, coords, sigma), n, r)


def vectors(*rows):
    return BinaryMatroid([GFVector.from_bits(r) for r in rows])


def test_elimination_matches_scan_on_atlas_graphs():
    """Every connected graph on at most 5 vertices, every sigma, every n
    with n*rank <= 12."""
    from test_acceptance import atlas_graphs

    rng = np.random.Generator(np.random.PCG64(83))
    checked = 0
    for g in atlas_graphs(5):
        m = graphic_from_graph(g)
        for n in range(1, 12 // m.rank + 1):
            table = random_function(n, rng, density=0.7).table
            tables = [table] * m.k
            for bits in range(1 << m.k):
                sigma = tuple(bits >> i & 1 for i in range(m.k))
                want = scan_count(tables, n, m.span_coords, sigma, m.rank)
                assert eliminated_count(tables, n, m.span_coords, sigma, m.rank) == want
                checked += 1
    assert checked > 9000


@pytest.mark.parametrize("m", [
    cographic_from_graph(complete_bipartite_graph(3, 3)),  # M*(K_3,3)
    RANK0,
    ZERO_PARALLEL,
    vectors("01", "01", "10", "11", "10", "01"),          # parallel elements
    vectors("0011", "0101", "0110"),                      # rank 2 in {0,1}^4
    vectors("00011", "00101", "01001", "01111", "00000", "01100"),
], ids=["cographic-k33", "rank0", "zero-parallel", "parallel", "rank-deficient", "mixed"])
def test_elimination_matches_scan_on_special_presentations(m):
    rng = np.random.Generator(np.random.PCG64(89))
    for n in range(1, 12 // max(m.rank, 1) + 1):
        for _ in range(8):
            table = random_function(n, rng, density=0.6).table
            sigma = tuple(int(b) for b in rng.integers(0, 2, m.k))
            tables = [table] * m.k
            want = scan_count(tables, n, m.span_coords, sigma, m.rank)
            assert eliminated_count(tables, n, m.span_coords, sigma, m.rank) == want


@pytest.mark.parametrize("m", [C3, graphic_from_graph(complete_graph(4)),
                               graphic_from_graph(cycle_graph(5))])
def test_elimination_matches_scan_per_element_tables(m):
    """One table per ground element, as von_neumann_gap counts."""
    rng = np.random.Generator(np.random.PCG64(97))
    ones = (1,) * m.k
    for n in range(1, 12 // m.rank + 1):
        tables = [random_function(n, rng).table for _ in range(m.k)]
        want = scan_count(tables, n, m.span_coords, ones, m.rank)
        assert eliminated_count(tables, n, m.span_coords, ones, m.rank) == want


def test_elimination_slices_agree(monkeypatch):
    """Conditioning in slices of a few rows gives the same counts: at one
    or two conditioned variables, at three on M*(K_5), and at n = 5 with
    every transform on the kernel's factor route, which reads each
    conditioned factor in whatever layout its gather left it."""
    rng = np.random.Generator(np.random.PCG64(107))
    k4, k5 = graphic_from_graph(complete_graph(4)), graphic_from_graph(complete_graph(5))
    cog_k33 = cographic_from_graph(complete_bipartite_graph(3, 3))

    def check(m, n):
        tables = [random_function(n, rng, 0.7).table for _ in range(m.k)]
        sigma = tuple(int(b) for b in rng.integers(0, 2, m.k))
        want = scan_count(tables, n, m.span_coords, sigma, m.rank)
        assert eliminated_count(tables, n, m.span_coords, sigma, m.rank) == want

    monkeypatch.setattr(tester, "_CHUNK", 1 << 5)
    for m in (k4, k5, cog_k33, cographic_from_graph(complete_graph(5))):
        for n in (2, 3):
            check(m, n)
    monkeypatch.setattr(tester, "_CHUNK", 1 << 8)
    monkeypatch.setattr(boolfn, "_ONE_PRODUCT_MAX_BYTES", 0)
    for m in (k4, k5, cog_k33):
        for _ in range(2):
            check(m, 5)


def test_fix_adds_one_broadcast_axis():
    """Each _fix puts one axis in front of the points: a factor that reads
    the fixed variable has it at the slice's width, any other at extent
    1, so no factor is copied for the values of a variable it does not
    read. Forms u_0+u_2, u_1+u_3 and u_0+u_1, with u_0 then u_1 fixed."""
    n = 3
    rng = np.random.Generator(np.random.PCG64(113))
    lookups = [rng.integers(0, 5, 1 << n) for _ in range(3)]
    first, second = np.array([0, 3, 5, 6]), np.array([1, 7])
    factors = tester._fix(tester._int64(tester._factors(lookups, (5, 10, 3))), 0, first, n)
    factors = tester._fix(factors, 1, second, n)
    assert {form: a.shape for form, a in factors.items()} == {
        0: (4, 2, 1), 4: (4, 1, 1 << n), 8: (1, 2, 1 << n)}
    assert factors[4].size == len(first) << n
    x = np.arange(1 << n)
    for i, a in enumerate(first):
        assert np.array_equal(factors[4][i, 0], lookups[0][a ^ x])
        for k, b in enumerate(second):
            assert np.array_equal(factors[8][0, k], lookups[1][b ^ x])
            assert factors[0][i, k, 0] == lookups[2][a ^ b]


def test_elimination_counts_a_variable_in_no_factor():
    # coords over r = 3 variables that never read u_2: it adds a factor 2^n
    rng = np.random.Generator(np.random.PCG64(109))
    for n in (1, 2, 3):
        tables = [random_function(n, rng).table for _ in range(3)]
        for coords in ((1, 2, 3), (3, 3, 1)):
            want = scan_count(tables, n, coords, (1, 0, 1), 3)
            steps, _ = tester._plan(coords, n)
            assert len(steps) < 3
            assert eliminated_count(tables, n, coords, (1, 0, 1), 3) == want


def test_planner_keeps_small_scans():
    """n*rank <= 8 stays on the scan whatever the function: on inputs
    that small even the full scan, every image of every u_j supported,
    costs less than the elimination's setup, so a tiny find_pattern or
    count, such as the check of each candidate repair, pays no setup."""
    from test_acceptance import atlas_graphs

    for m in [graphic_from_graph(g) for g in atlas_graphs(5)] + [RANK0, ZERO_PARALLEL]:
        for n in range(1, 8 // max(m.rank, 1) + 1):
            full = tester._factors([np.ones(1 << n, dtype=bool)] * m.k, m.span_coords)
            assert tester._priced(full, n, m.rank) is None


def test_planner_prices_scan_against_elimination():
    """The scan is priced at _SCAN_COST per supported assignment per
    factor it reads beyond the supports, plus one for the walk."""
    # every image supported, both under their plans: the scan is cheaper
    for m, n in ((C3, 5), (graphic_from_graph(complete_graph(4)), 3)):
        order, cost = tester._plan(m.span_coords, n)
        read = sum(1 for c in m.span_coords if c & (c - 1) or not c)
        assert tester._SCAN_COST * (read + 1) << (n * m.rank) < cost
        full = tester._factors([np.ones(1 << n, dtype=bool)] * m.k, m.span_coords)
        assert tester._priced(full, n, m.rank) is None
    # one step further the elimination is cheaper
    ones = tester._factors([np.ones(1 << 6, dtype=bool)] * 3, C3.span_coords)
    assert tester._priced(ones, 6, 2) is not None
    ones = tester._factors([np.ones(1 << 7, dtype=bool)] * 3, C3.span_coords)
    assert tester._priced(ones, 7, 2) is not None
    assert tester._count(ones, 7, 2) == 1 << 14
    # ... unless the supports are small: 16 images of each u_j keep the scan
    tables = [(np.arange(1 << 7) < 16).astype(np.uint8)] * 3
    sparse = table_factors(tables, C3.span_coords, (1, 1, 1))
    assert tester._priced(sparse, 7, 2) is None
    assert tester._count(sparse, 7, 2) == scan_count(
        tables, 7, C3.span_coords, (1, 1, 1), 2)


@pytest.fixture
def engine_calls(monkeypatch):
    """What the exact engine ran: scans started, chunks they yielded,
    descents, and counts (outermost _replay calls; a conditioned slice
    runs _replay within its count)."""
    calls = Counter()
    scan, descend, replay = tester._scan_chunks, tester._descend, tester._replay
    depth = 0

    def scan_spy(*args):
        calls["scans"] += 1
        for chunk in scan(*args):
            calls["chunks"] += 1
            yield chunk

    def descend_spy(*args):
        calls["descents"] += 1
        return descend(*args)

    def replay_spy(*args):
        nonlocal depth
        calls["counts"] += not depth
        depth += 1
        try:
            return replay(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(tester, "_scan_chunks", scan_spy)
    monkeypatch.setattr(tester, "_descend", descend_spy)
    monkeypatch.setattr(tester, "_replay", replay_spy)
    return calls


def test_free_certificate_costs_a_count(engine_calls):
    """A free function is certified by one count plus at most one chunk
    of the scan: the first chunk, then the descent's first round."""
    f = canonical_function(graphic_from_graph(cycle_graph(5)), 11)
    assert find_pattern(f, C3, S111) is None
    assert engine_calls["chunks"] <= 1
    assert engine_calls["counts"] == 1


def test_planner_eliminates_k4_at_n8():
    k4 = graphic_from_graph(complete_graph(4))
    f = random_function(8, np.random.Generator(np.random.PCG64(101)), density=0.4)
    steps, cost = tester._plan(k4.span_coords, 8)
    assert len(steps) == 3 and cost < k4.k << 24
    factors = table_factors([f.table] * 6, k4.span_coords, (1,) * 6)
    assert tester._priced(factors, 8, 3) == steps
    got = tester._count(factors, 8, 3)
    assert got == scan_count([f.table] * 6, 8, k4.span_coords, (1,) * 6, 3)


def test_int64_bound_is_refused():
    """2^n * S_a * S_b = 2^63 for the constant-1 function at n = 21: the
    correlation is refused, not rerouted to a scan of 2^42 assignments.
    find_pattern answers that input from its first chunk, where the zero
    map is a witness. On C_5 at n = 14 with f = 1 exactly where x_13 = 1
    its first chunk holds no match, and the descent meets the refusal."""
    one = constant(21, 1)
    with pytest.raises(BudgetExceededError, match="eliminating u_0"):
        eliminated_count([one.table] * 3, 21, C3.span_coords, (1, 1, 1), 2)
    with pytest.raises(BudgetExceededError, match="int64"):
        count_patterns(one, C3, S111, budget_bits=42)
    assert witness_index(find_pattern(one, C3, S111, budget_bits=42), 21) == 0
    late = BooleanFunction(14, (np.arange(1 << 14) >> 13).astype(np.uint8))
    with pytest.raises(BudgetExceededError, match="eliminating u_2: .* could leave int64"):
        find_pattern(late, graphic_from_graph(cycle_graph(5)), PatternSpec.all_ones(5),
                     budget_bits=56)


def test_constant_one_counts_exact_below_the_int64_bound():
    """Constant 1 is the worst case for the correlation bound: C_3 counts
    exactly one bit below it (n = 20, 40 bits) and C_5 at n = 11 (44 bits)."""
    c5 = graphic_from_graph(cycle_graph(5))
    for m, n in ((C3, 20), (c5, 11)):
        f = constant(n, 1)
        sigma = PatternSpec.all_ones(m.k)
        assert count_patterns(f, m, sigma, budget_bits=64).span_count == 1 << (n * m.rank)
        assert witness_index(find_pattern(f, m, sigma, budget_bits=64), n) == 0


def weighted_lookups(tables, weights):
    """Signed or large factors: lookup i reads weights[i][tables[i][x]]."""
    return [np.where(table == 1, w[1], w[0]).astype(np.int64) for table, w in zip(tables, weights)]


def inclusion_exclusion(tables, n, coords, weights, r):
    """sum over assignments of prod_i weights[i][tables[i] at form i], as
    sum over Sigma of prod_i weights[i][sigma_i] * count(Sigma), each count
    by the plain scan; weights (-1, 1) give sum (-1)^zeros(Sigma) count(Sigma)."""
    total = 0
    for sigma in itertools.product((0, 1), repeat=len(tables)):
        w = math.prod(weights[i][b] for i, b in enumerate(sigma))
        if w:
            total += w * scan_count(tables, n, coords, sigma, r)
    return total


@pytest.mark.parametrize("m, n", [(C3, 6), (graphic_from_graph(cycle_graph(5)), 3),
                                  (graphic_from_graph(complete_graph(4)), 4)],
                         ids=["C3", "C5", "K4"])
def test_signed_and_large_factors_count_exactly(m, n):
    """The elimination counts signed and large integer factors exactly:
    +-1 lookups give the signed count sum (-1)^zeros(Sigma) count(Sigma),
    and odd magnitudes below 2^b its weighted form, b the largest (at most
    12) that keeps (2^b)^k * 2^(n*r) within 2^62: 12 on C_3, 10 on C_5, 8
    on K_4."""
    rng = np.random.default_rng([m.k, n])
    big = 1 << min(12, (62 - n * m.rank) // m.k)
    for weights in ([(-1, 1)] * m.k, rng.integers(-big, big, size=(m.k, 2)) | 1):
        weights = [tuple(int(v) for v in w) for w in weights]
        for density in (0.2, 0.5, 0.9):
            tables = [(rng.random(1 << n) < density).astype(np.uint8) for _ in range(m.k)]
            want = inclusion_exclusion(tables, n, m.span_coords, weights, m.rank)
            lookups = weighted_lookups(tables, weights)
            assert eliminated(lookups, n, m.span_coords, m.rank) == want


def weighted_scan(lookups, n, coords, r):
    """sum over every assignment of prod_i lookups[i] at form i, in
    Python ints, straight from the definition."""
    t = np.arange(1 << (n * r))
    images = [(t >> (j * n)) & ((1 << n) - 1) for j in range(r)]
    total = np.ones(len(t), dtype=object)
    for lookup, c in zip(lookups, coords):
        points = np.zeros_like(t)
        for j in range(r):
            if c >> j & 1:
                points ^= images[j]
        total = total * lookup.astype(object)[points]
    return int(total.sum())


def test_correlation_guard_reads_absolute_sums():
    """C_3 at n = 8 whose correlated factors are +-1 noise plus spikes +A
    and -A, A = 2^26 + 1: each row sums to about 0, but S = sum |a| ~ 2^27,
    and 2^n * S_a * S_b ~ 2^62 is what bounds the correlation's partial
    sums. The count runs in int64 and is exact on four draws (float64,
    which a guard on sum a would choose, is off by 6 on the first). At
    A = 2^27 that bound passes 2^63 and the count is refused."""
    n, rng = 8, np.random.default_rng(13)
    for spike in [(1 << 26) + 1] * 4 + [1 << 27]:
        lookups = [np.where(rng.random(1 << n) < 0.5, 1, -1) for _ in range(3)]
        for i in (1, 2):
            p, q = rng.choice(1 << n, 2, replace=False)
            lookups[i] = rng.integers(-1, 2, 1 << n)
            lookups[i][p] += spike
            lookups[i][q] -= spike
            assert abs(lookups[i].sum()) < 1 << n
        if spike >> 27:
            with pytest.raises(BudgetExceededError, match="could leave int64"):
                eliminated(lookups, n, C3.span_coords, 2)
        else:
            assert eliminated(lookups, n, C3.span_coords, 2) == weighted_scan(
                lookups, n, C3.span_coords, 2)


@pytest.mark.parametrize("low, route", [((1 << 13) - 1, np.float64), (1 << 13, np.int64)])
def test_correlation_dtype_at_the_float64_bound(monkeypatch, low, route):
    """C_3 at n = 9 with factors 2^13 except `low` at point 0: S_a = S_b =
    2^22 - 1 puts 2^n * S_a * S_b just below 2^53, so the correlation runs
    in float64; at S = 2^22 it is exactly 2^53 and runs in int64. Both
    counts equal the scan's."""
    n = 9
    tables = [(np.arange(1 << n) > 0).astype(np.uint8)] * 3
    weights = [(low, 1 << 13)] * 3
    lookups = weighted_lookups(tables, weights)
    s = int(np.abs(lookups[0]).sum())
    assert (s * s << n < 1 << 53) == (route == np.float64)
    calls = matmul_items(monkeypatch)
    got = eliminated(lookups, n, C3.span_coords, 2)
    assert calls and {dtype for dtype, _ in calls} == {np.dtype(route)}
    assert got == inclusion_exclusion(tables, n, C3.span_coords, weights, 2)


def test_correlation_products_stay_below_the_blas_thread_threshold():
    """On the elimination's cells of the benchmark (C_3 at n = 12, C_5 at
    n = 6, K_4 at n = 8 with its conditioned slices) and on K_4 at n = 6,
    whose slices of 64 rows take the factor route, every product is
    float64, every stacked item at m*n*k <= 2^17, so OpenBLAS runs each on
    the calling thread; the counts equal the scan's."""
    c5, k4 = graphic_from_graph(cycle_graph(5)), graphic_from_graph(complete_graph(4))
    rng = np.random.default_rng(11)
    for m, n, in_benchmark in ((C3, 12, True), (c5, 6, True), (k4, 8, True), (k4, 6, False)):
        table = (rng.random(1 << n) < 0.5).astype(np.uint8)
        lookups = table_lookups([table] * m.k, (1,) * m.k)
        if in_benchmark:    # priced for the elimination there
            factors = tester._factors(lookups, m.span_coords)
            assert tester._priced(factors, n, m.rank) is not None
        steps, _ = tester._plan(m.span_coords, n)
        assert any(width for _, width in steps) == (m is k4)
        with pytest.MonkeyPatch.context() as patch:
            calls = matmul_items(patch)
            got = eliminated(lookups, n, m.span_coords, m.rank)
        assert calls and all(dtype == np.float64 and mnk <= 1 << 17 for dtype, mnk in calls)
        assert got == scan_count([table] * m.k, n, m.span_coords, (1,) * m.k, m.rank)


def test_counts_past_62_bits_are_refused_before_any_table():
    """A count of up to 2^(n*r) leaves int64 past 62 bits, so both public
    entries refuse it from the arguments, whatever the budget, before any
    factor lookup is built."""
    # 62 bits priced without a refusal; the one form u_0 ^ u_1 reads no
    # basis variable alone, so no table is read to price it
    assert tester._priced({3: None}, 31, 2) is not None
    k4 = graphic_from_graph(complete_graph(4))
    f = BooleanFunction(22, np.zeros(1 << 22, dtype=np.uint8))
    for entry in (count_patterns, find_pattern):
        def refused():
            with pytest.raises(BudgetExceededError, match="n\\*rank = 66: an exact count"):
                entry(f, k4, PatternSpec.all_ones(6), budget_bits=70)
        assert traced_peak(refused) < 1 << 20


def scan_witness_index(f, m, sigma):
    """Scan-only reference: the smallest matching assignment index."""
    return scan_first([f.table] * m.k, f.n, m.span_coords, sigma.sigma, m.rank)


def witness_index(inst, n):
    return sum(u.bits << (j * n) for j, u in enumerate(inst.map.images))


def test_find_pattern_witness_matches_scan_order():
    rng = np.random.Generator(np.random.PCG64(103))
    k4 = graphic_from_graph(complete_graph(4))
    c5 = graphic_from_graph(cycle_graph(5))
    cases = [(random_function(10, rng, 0.5), C3, "111"),
             (random_function(10, rng, 0.2), C3, "101"),
             (random_function(5, rng, 0.5), c5, "11010"),
             (random_function(6, rng, 0.5), k4, "111111"),
             (random_function(6, rng, 0.3), k4, "110100"),
             (canonical_function(c5, 7), C3, "111"),
             # ones exactly where x_10 = 1: the first 110 triangle lies past 2^20
             (BooleanFunction(11, np.arange(1 << 11) >> 10), C3, "110")]
    for f, m, sigma in cases:
        sigma = PatternSpec.from_string(sigma)
        inst = find_pattern(f, m, sigma)
        t = scan_witness_index(f, m, sigma)
        if t is None:
            assert inst is None
            continue
        assert witness_index(inst, f.n) == t
        assert [p.bits for p in inst.points] == [
            apply(inst.map, GFVector(m.rank, c)).bits for c in m.span_coords]
        assert all(int(f.table[p.bits]) == s for p, s in zip(inst.points, sigma.sigma))
    assert witness_index(find_pattern(cases[-1][0], C3, PatternSpec.from_string("110")),
                         11) >= 1 << 21


def full_evaluation(lookups, coords, columns):
    """_match without early exit or survivors: the AND over every factor
    of its lookup read at the XOR of its columns."""
    match = np.ones(columns.shape[1], dtype=bool)
    for lookup, cmask in zip(lookups, coords):
        pts = np.zeros(columns.shape[1], dtype=np.int64)
        for j in range(len(columns)):
            if cmask >> j & 1:
                pts ^= columns[j]
        match &= lookup[pts]
    return match


@pytest.fixture
def survivor_runs(monkeypatch):
    """Whether each survivor batch _match ran on left any map matching,
    by depth: runs[1] holds the survivor batches of the batches callers
    passed in, runs[2] the survivor batches of those."""
    runs = defaultdict(list)
    match = tester._match
    depth = 0

    def spy(*args):
        nonlocal depth
        depth += 1
        try:
            got = match(*args)
        finally:
            depth -= 1
        if depth:
            runs[depth].append(bool(got.any()))
        return got

    monkeypatch.setattr(tester, "_match", spy)
    return runs


def test_match_on_survivors_equals_full_evaluation(survivor_runs):
    """Random forms over 4 basis columns, zero and repeated forms among
    them, lookups from sparse to dense, and a lookup that is false
    everywhere, so batches empty before and after the switch to
    survivors, and some survivor batches shrink again."""
    rng = np.random.Generator(np.random.PCG64(167))
    n, r, batch = 8, 4, 4096
    empty = 0
    for trial in range(200):
        k = int(rng.integers(1, 10))
        coords = [int(c) for c in rng.integers(0, 1 << r, k)]
        if trial % 3 == 0:
            coords[-1] = coords[0]
        if trial % 7 == 0:
            coords[k // 2] = 0
        density = (0.03, 0.1, 0.3, 0.6, 0.95)[trial % 5]
        lookups = [rng.random(1 << n) < density for _ in range(k)]
        if trial % 4 == 0:
            lookups[int(rng.integers(0, k))] = np.zeros(1 << n, dtype=bool)
        columns = rng.integers(0, 1 << n, size=(r, batch), dtype=np.int64)
        got = tester._match(tester._factors(lookups, coords), columns,
                            np.empty(batch, dtype=np.int64))
        want = full_evaluation(lookups, coords, columns)
        assert np.array_equal(got, want)
        empty += not want.any()
    # some batches empty on survivors, and some before any switch
    assert True in survivor_runs[1] and False in survivor_runs[1]
    assert empty > survivor_runs[1].count(False)
    # a survivor batch of a survivor batch
    assert survivor_runs[2]


def test_scan_route_witness_is_the_first_plain_match(survivor_runs):
    """On inputs priced at or below _STEP_COST find_pattern scans, and
    with sparse functions its chunks go on at the survivors; the witness
    is the first match of a plain scan."""
    rng = np.random.Generator(np.random.PCG64(173))
    c5, k4 = graphic_from_graph(cycle_graph(5)), graphic_from_graph(complete_graph(4))
    for m, n in ((C3, 5), (c5, 2), (k4, 3)):
        full = tester._factors([np.ones(1 << n, dtype=bool)] * m.k, m.span_coords)
        assert tester._priced(full, n, m.rank, 1 << (m.rank - 1)) is None
        for density in (0.05, 0.1, 0.3, 0.6):
            for _ in range(6):
                f = random_function(n, rng, density)
                sigma = PatternSpec(tuple(int(b) for b in rng.integers(0, 2, m.k)))
                inst = find_pattern(f, m, sigma)
                want = scan_witness_index(f, m, sigma)
                assert (None if inst is None else witness_index(inst, n)) == want
    assert True in survivor_runs[1]


def test_descent_matches_scan_on_atlas_graphs():
    """The witness descent, whatever the planner's price, finds the scan's
    first match on every connected graph with at most 5 vertices."""
    from test_acceptance import atlas_graphs

    rng = np.random.Generator(np.random.PCG64(113))
    checked = 0
    for g in atlas_graphs(5):
        m = graphic_from_graph(g)
        for n in range(1, 12 // m.rank + 1):
            table = random_function(n, rng, density=0.7).table
            tables = [table] * m.k
            for _ in range(8):
                sigma = tuple(int(b) for b in rng.integers(0, 2, m.k))
                want = scan_first(tables, n, m.span_coords, sigma, m.rank)
                assert descended(tables, n, m.span_coords, sigma, m.rank) == want
                checked += 1
    assert checked > 800


@pytest.mark.parametrize("m", [
    cographic_from_graph(complete_bipartite_graph(3, 3)),
    ZERO_PARALLEL,
    vectors("01", "01", "10", "11", "10", "01"),
    vectors("0011", "0101", "0110"),
    vectors("00011", "00101", "01001", "01111", "00000", "01100"),
], ids=["cographic-k33", "zero-parallel", "parallel", "rank-deficient", "mixed"])
def test_descent_matches_scan_on_special_presentations(m):
    rng = np.random.Generator(np.random.PCG64(127))
    for n in range(1, 12 // m.rank + 1):
        for _ in range(8):
            tables = [random_function(n, rng, density=0.6).table for _ in range(m.k)]
            sigma = tuple(int(b) for b in rng.integers(0, 2, m.k))
            want = scan_first(tables, n, m.span_coords, sigma, m.rank)
            assert descended(tables, n, m.span_coords, sigma, m.rank) == want


def test_descent_slices_and_unread_variables(monkeypatch):
    """Conditioning in slices of a few rows, three variables deep on
    M*(K_5), and a basis variable that no ground vector reads, leave the
    descent's witness unchanged."""
    rng = np.random.Generator(np.random.PCG64(131))
    cases = [(graphic_from_graph(complete_graph(4)).span_coords, 3, (2, 3)),
             (graphic_from_graph(complete_graph(5)).span_coords, 4, (2,)),
             ((1, 2, 3), 3, (1, 2, 3)), ((3, 3, 1), 3, (1, 2, 3)), ((2, 4, 6), 3, (1, 2)),
             (cographic_from_graph(complete_graph(5)).span_coords, 6, (2, 3))]
    monkeypatch.setattr(tester, "_CHUNK", 1 << 5)
    for coords, r, ns in cases:
        for n in ns:
            for _ in range(6):
                tables = [random_function(n, rng, 0.7).table for _ in coords]
                sigma = tuple(int(b) for b in rng.integers(0, 2, len(coords)))
                want = scan_first(tables, n, coords, sigma, r)
                assert descended(tables, n, coords, sigma, r) == want


def test_late_witness_costs_no_scan(engine_calls):
    """A witness past 2^21 costs at most the descent plus one chunk of
    the scan, so its price does not depend on where it lies."""
    f = BooleanFunction(11, np.arange(1 << 11) >> 10)
    sigma = PatternSpec.from_string("110")
    want = scan_witness_index(f, C3, sigma)
    assert want >= 1 << 21
    assert witness_index(find_pattern(f, C3, sigma), 11) == want
    assert engine_calls["chunks"] <= 1 and engine_calls["descents"] <= 1


PINNED_GRAPHS = {"C3": cycle_graph(3), "C5": cycle_graph(5), "K4": complete_graph(4),
          "K5": complete_graph(5), "Petersen": named_graph("petersen")}


@pytest.mark.parametrize("name, cells", [
    ("C3", [(6, 0.5, "scan", "hit"), (10, 0.1, "scan", "hit"),
            (10, 0.5, "elimination", "hit"), (12, 0.2, "elimination", "hit"),
            (10, "C5", "elimination", "scan"), (12, "C5", "elimination", "descent")]),
    ("C5", [(3, 0.5, "scan", "hit"), (5, 0.2, "scan", "scan"),
            (6, 0.5, "elimination", "hit")]),
    ("K4", [(4, 0.5, "scan", "hit"), (8, 0.2, "scan", "hit"), (8, 0.5, "elimination", "hit")]),
    ("K5", [(3, 0.3, "scan", "scan"), (5, 0.5, "scan", "scan")]),
    ("Petersen", [(2, 0.5, "elimination", "hit"), (3, 0.2, "scan", "scan"),
                  (3, 0.5, "elimination", "descent")]),
], ids=["C3", "C5", "K4", "K5", "Petersen"])
def test_routes_are_pinned(engine_calls, name, cells):
    """The route count_patterns and find_pattern take on Sigma = 1^k, per
    (n, density) cell, on seeded functions with f(0) = 0, or on the
    canonical function of the named graph. count: the scan or the
    elimination. free: "hit" when the first chunk holds the witness,
    "descent" when the descent follows a first chunk without one, "scan"
    when the scan goes on, or had nothing more to walk. A pricing change
    shows up here as a diff."""
    m = graphic_from_graph(PINNED_GRAPHS[name])
    sigma = PatternSpec.all_ones(m.k)
    for n, density, count_route, free_route in cells:
        if isinstance(density, str):
            f = canonical_function(graphic_from_graph(PINNED_GRAPHS[density]), n)
        else:
            table = (np.random.default_rng([n, round(100 * density)]).random(1 << n)
                     < density).astype(np.uint8)
            table[0] = 0
            f = BooleanFunction(n, table)
        engine_calls.clear()
        count = count_patterns(f, m, sigma).span_count
        assert ("scan" if engine_calls["scans"] else "elimination") == count_route, (n, density)
        engine_calls.clear()
        inst = find_pattern(f, m, sigma)
        assert (inst is None) == (count == 0)
        if engine_calls["descents"]:
            route = "descent"
        else:
            route = "hit" if inst is not None and engine_calls["chunks"] == 1 else "scan"
        assert route == free_route, (n, density)
        assert engine_calls["chunks"] <= 1 or route == "scan"


@st.composite
def exact_cases(draw):
    """(tables, n, coords, sigma, r) on a random binary matroid in
    {0,1}^d, d <= 4, of 1..7 elements: loops and parallel elements are
    common, some draws have rank 0 (every element a loop) and some only
    unit vectors (every form a single basis variable, so no factor is
    left past the supports). One shared table or one per element, of
    density 0 to 1, so supports can be empty or full; f(0) = 1 on
    some draws; n*rank <= 12."""
    kind = draw(st.sampled_from(["general", "rank0", "singletons"]))
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    ints = {"general": st.integers(0, (1 << d) - 1), "rank0": st.just(0),
            "singletons": st.integers(0, d - 1).map(lambda j: 1 << j)}[kind]
    m = BinaryMatroid([GFVector(d, v) for v in draw(st.lists(ints, min_size=k, max_size=k))])
    n = draw(st.integers(0, 12 // max(m.rank, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    densities = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), min_size=1,
                              max_size=1 if draw(st.booleans()) else k))
    tables = [(rng.random(1 << n) < densities[i % len(densities)]).astype(np.uint8)
              for i in range(k)]
    if draw(st.booleans()):
        for table in tables:
            table[0] = 1
    sigma = tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    return tables, n, m.span_coords, sigma, m.rank


def test_supported_scan_matches_the_plain_scan():
    """Counts and first witnesses on both routes, forced whatever the
    price, equal the plain scan's; find_pattern's route is checked with
    chunks large enough to hold every assignment and with chunks of 2^4,
    so its first chunk both hits and misses, and a miss is followed by
    the descent or by the rest of the scan. When no factor is left past
    the supports, the count is the product of the support sizes."""
    seen = set()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(case=exact_cases())
    def check(case):
        tables, n, coords, sigma, r = case
        count, first = plain_scan(tables, n, coords, sigma, r)
        lookups = table_lookups(tables, sigma)
        factors = tester._factors(lookups, coords)
        if all(c and not c & (c - 1) for c in coords):
            sizes = [1 << n] * r
            for c in set(coords):
                allowed = np.all([lk for lk, b in zip(lookups, coords) if b == c], axis=0)
                sizes[c.bit_length() - 1] = int(np.count_nonzero(allowed))
            assert count == math.prod(sizes)
            seen.add("no factor left")
        with pytest.MonkeyPatch.context() as patch:
            for route in ("scan", "elimination"):
                patch.setattr(tester, "_priced", forced(route))
                assert tester._count(factors, n, r) == count
                for chunk in (1 << 14, 1 << 4):
                    patch.setattr(tester, "_CHUNK", chunk)
                    chunks = [match.any() for _, match in tester._scan_chunks(factors, n, r)]
                    assert tester._first(factors, n, r) == first
                    if not chunks:
                        seen.add("empty support")
                    elif chunks[0]:
                        seen.add("hit")
                    elif len(chunks) > 1:
                        seen.add(f"miss, then {'descent' if route == 'elimination' else 'scan'}")
                patch.setattr(tester, "_CHUNK", 1 << 14)

    check()
    assert seen == {"no factor left", "empty support", "hit", "miss, then descent",
                    "miss, then scan"}


@pytest.mark.parametrize("m, sigma", [
    (ZERO_PARALLEL, "110"),                                    # the pair at a basis variable
    (vectors("00", "10", "01", "11", "11"), "11110"),          # the pair at u_0 + u_1
], ids=["unary-pair", "sum-pair"])
def test_parallel_pair_with_different_bits_has_no_instance(m, sigma):
    """A loop and a parallel pair whose Sigma bits differ: the pair reads
    f at one point, which cannot be both 1 and 0, so every route sees no
    instance even where f(0) = 1 satisfies the loop. Merging the pair's
    lookups by | (all true) or keeping the last one would find some."""
    sigma = PatternSpec.from_string(sigma)
    rng = np.random.Generator(np.random.PCG64(223))
    for n in (1, 3, 6):
        table = random_function(n, rng, 0.5).table.copy()
        table[0] = 1
        f = BooleanFunction(n, table)
        factors = tester._factors(tester._lookups(f.table, sigma.sigma), m.span_coords)
        with pytest.MonkeyPatch.context() as patch:
            for route in ("scan", "elimination"):
                patch.setattr(tester, "_priced", forced(route))
                assert count_patterns(f, m, sigma).span_count == 0, route
                assert find_pattern(f, m, sigma) is None, route
        assert tester._descend(factors, n, m.rank) is None
        assert reference_rejections(f, m, sigma, 2000, n) == 0
        assert run_tester(f, m, sigma, 2000, seed=n) == (0, 0)


def test_factor_table_is_the_and_of_the_element_lookups():
    """On random presentations with repeated forms and loops, the factor
    table has one entry per distinct form, and each entry, read at every
    point, is the AND of the lookups of the ground vectors at that form."""
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=exact_cases())
    def check(case):
        tables, n, coords, sigma, r = case
        lookups = table_lookups(tables, sigma)
        factors = tester._factors(lookups, coords)
        assert sorted(factors) == sorted(set(coords))
        for form, lookup in factors.items():
            want = np.all([lk for lk, c in zip(lookups, coords) if c == form], axis=0)
            assert np.array_equal(lookup, want), form

    check()
