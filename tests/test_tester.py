import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from matroidlab.boolfn import BooleanFunction, density, random_function
from matroidlab.errors import BudgetExceededError, DimensionMismatchError, InvalidInputError
from matroidlab.gf2 import GFVector, rank_and_basis
from matroidlab.matroid import (BinaryMatroid, canonical_function, complete_graph,
                                cycle_graph, graphic_from_graph)
from matroidlab.tester import (CountReport, PatternSpec, TowerExpr,
                               brute_force_cycle_count, count_patterns,
                               cycle_count_fourier, derive_seed, enumerate_instances,
                               find_pattern, min_repair_distance,
                               nonmonotone_soundness_bound, pattern_hitting_number,
                               reduce_function, run_tester, soundness_bound,
                               tower_of_twos, von_neumann_gap)

C3 = graphic_from_graph(cycle_graph(3))
S111 = PatternSpec.all_ones(3)


def brute_triangle_count(f, sigma):
    """Independent oracle: scan all (x, y) pairs directly."""
    count = 0
    for x in range(1 << f.n):
        for y in range(1 << f.n):
            vals = (f.value(x), f.value(y), f.value(x ^ y))
            if vals == sigma.sigma:
                count += 1
    return count


def test_pattern_spec():
    s = PatternSpec.from_string("0110")
    assert s.k == 4 and s.ones_count == 2 and s.zeros_count == 2
    assert s.index_int() == 0b0110
    assert str(s.complement()) == "1001"
    with pytest.raises(InvalidInputError):
        PatternSpec.from_string("012")


def test_find_pattern_zero_map():
    f = BooleanFunction.from_ones(2, [0])
    inst = find_pattern(f, C3, S111)
    assert inst is not None
    assert all(p.is_zero() for p in inst.points)


def test_find_pattern_halfspace_free():
    # indicator of <a, x> = 1: two ones force their XOR to value 0
    f = BooleanFunction.from_ones(3, [x for x in range(8) if x & 1])
    assert find_pattern(f, C3, S111) is None


def test_find_pattern_canonical_separation():
    c5 = graphic_from_graph(cycle_graph(5))
    f = canonical_function(c5, 7)
    assert find_pattern(f, C3, S111) is None
    inst = find_pattern(f, c5, PatternSpec.all_ones(5))
    assert inst is not None
    assert all(f.value(p.bits) == 1 for p in inst.points)


def test_find_pattern_first_in_order():
    f = BooleanFunction.constant(2, 1)
    inst = find_pattern(f, C3, S111)
    assert all(u.is_zero() for u in inst.map.images)  # t = 0 matches first


def test_find_pattern_mismatched_sigma():
    with pytest.raises(DimensionMismatchError):
        find_pattern(BooleanFunction.constant(2, 1), C3, PatternSpec.all_ones(4))


def test_find_pattern_budget():
    k5 = graphic_from_graph(complete_graph(5))
    with pytest.raises(BudgetExceededError):
        find_pattern(BooleanFunction.constant(8, 1), k5, PatternSpec.all_ones(10))


def test_count_patterns_examples():
    assert count_patterns(BooleanFunction.constant(2, 1), C3, S111).span_count == 16
    assert count_patterns(BooleanFunction.constant(2, 0), C3, S111).span_count == 0
    f = BooleanFunction.from_ones(2, [1, 2])
    assert count_patterns(f, C3, S111).span_count == 0


def test_count_patterns_matches_pair_oracle():
    rng = np.random.Generator(np.random.PCG64(53))
    for _ in range(30):
        n = int(rng.integers(1, 4))
        f = random_function(n, rng)
        sigma = PatternSpec(tuple(int(b) for b in rng.integers(0, 2, 3)))
        assert count_patterns(f, C3, sigma).span_count == brute_triangle_count(f, sigma)


def test_count_report_full_map_convention():
    rep = count_patterns(BooleanFunction.constant(2, 1), C3, S111)
    assert rep.rank == 2 and rep.ambient_dim == 3
    assert rep.span_total == 2 ** 4
    assert rep.full_map_count == rep.span_count * 2 ** (2 * (3 - 2))
    assert rep.density == 1


def test_cycle_count_fourier_examples():
    f = BooleanFunction.constant(2, 1)
    assert cycle_count_fourier(f, 3) == 2 ** (2 * 2)
    assert cycle_count_fourier(BooleanFunction.constant(2, 0), 3) == 0
    assert cycle_count_fourier(BooleanFunction.from_ones(2, [1, 2]), 3) == 0
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
    f = BooleanFunction.from_ones(3, [x for x in range(8) if x & 1])
    assert find_pattern(f, C3, S111) is None
    for seed in (0, 1, 2, 99):
        rejections, rate = run_tester(f, C3, S111, 2000, seed)
        assert rejections == 0 and rate == 0


def test_run_tester_constant_one():
    rejections, rate = run_tester(BooleanFunction.constant(2, 1), C3, S111, 500, 7)
    assert rejections == 500 and rate == 1


def test_run_tester_deterministic():
    f = canonical_function(C3, 6)
    a = run_tester(f, C3, S111, 5000, seed=123)
    b = run_tester(f, C3, S111, 5000, seed=123)
    c = run_tester(f, C3, S111, 5000, seed=124)
    assert a == b
    assert a != c  # overwhelmingly likely: different seed, different draws


EVEN3 = BooleanFunction.from_ones(3, [0, 3, 5, 6])
ODD3 = EVEN3.complement()
RANK0 = BinaryMatroid([GFVector(2, 0), GFVector(2, 0)])
ZERO_PARALLEL = BinaryMatroid([GFVector(2, 0), GFVector(2, 1), GFVector(2, 1)])


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


def test_min_repair_already_free():
    f = BooleanFunction.constant(2, 0)
    rep = min_repair_distance(f, C3, S111)
    assert rep.flips == 0 and rep.delta == 0 and rep.witness == f


def test_min_repair_constant_one_all16_oracle():
    # exhaustive oracle over all 16 functions on {0,1}^2
    f = BooleanFunction.constant(2, 1)
    free_tables = [t for t in range(16)
                   if find_pattern(BooleanFunction.from_table_int(2, t), C3, S111) is None]
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
    f = BooleanFunction.from_ones(2, [1, 2])
    best = min(
        bin(f.table_int() ^ t).count("1")
        for t in range(16)
        if find_pattern(BooleanFunction.from_table_int(2, t), C3, sigma) is None)
    rep = min_repair_distance(f, C3, sigma)
    assert rep.flips == best == 2
    assert find_pattern(rep.witness, C3, sigma) is None


def test_hitting_number_examples():
    free = BooleanFunction.from_ones(3, [x for x in range(8) if x & 1])
    assert pattern_hitting_number(free, C3) == 0
    single = BooleanFunction.from_ones(2, [1, 2, 3])
    assert pattern_hitting_number(single, C3) == 1


def test_hitting_equals_repair_on_random_instances():
    rng = np.random.Generator(np.random.PCG64(61))
    for _ in range(25):
        f = random_function(3, rng, density=0.4)
        rep = min_repair_distance(f, C3, S111)
        assert pattern_hitting_number(f, C3) == rep.flips


def test_enumerate_instances_structure():
    f = canonical_function(C3, 4)
    edges = enumerate_instances(f, C3)
    ones = set(f.ones())
    for e in edges:
        assert e <= ones


def test_tower_of_twos():
    assert [tower_of_twos(h) for h in range(5)] == [1, 2, 4, 16, 65536]


def test_soundness_bound_structure():
    eps, k = Fraction(1, 2), 3
    expr = soundness_bound(eps, k)
    assert expr.variant == "monotone"
    assert expr.height == 8 ** 18  # ceil((4/eps)^(6k))
    assert expr.w_coeff == k
    assert expr.prefactor == eps ** k / 2 ** (2 * k)
    assert expr.evaluate() is None  # astronomically high tower
    assert "W(" in expr.summary()


def test_soundness_bound_small_height_evaluates():
    expr = TowerExpr(height=3, w_coeff=2, prefactor=Fraction(1, 8), variant="monotone")
    assert expr.evaluate() == Fraction(1, 8) / 2 ** 32


def test_nonmonotone_soundness_structure():
    eps, k, eta = Fraction(1, 2), 3, Fraction(3, 4)
    expr = nonmonotone_soundness_bound(eps, k, eta)
    a = (1 - eta) ** k * eps ** k / 2
    assert expr.height == Fraction(1) / a ** 3
    assert expr.w_coeff == k - 1
    assert expr.prefactor == (1 - eta) ** (k - 2) * (2 * eta - 1)
    with pytest.raises(InvalidInputError):
        nonmonotone_soundness_bound(eps, k, Fraction(1, 2))


def test_von_neumann_trivial():
    ones = [BooleanFunction.constant(2, 1)] * 3
    rep = von_neumann_gap(ones, C3)
    assert rep.lhs == 1 and rep.rhs == 1.0 and rep.holds
    zeros = [BooleanFunction.constant(2, 0)] * 3
    rep = von_neumann_gap(zeros, C3)
    assert rep.lhs == 0 and rep.holds


def test_von_neumann_random():
    rng = np.random.Generator(np.random.PCG64(67))
    for _ in range(20):
        fs = [random_function(4, rng) for _ in range(3)]
        assert von_neumann_gap(fs, C3).holds


def test_von_neumann_rejects_bad_matroid():
    parallel = BinaryMatroid([GFVector(2, 1), GFVector(2, 1)])
    fs = [BooleanFunction.constant(2, 1)] * 2
    with pytest.raises(InvalidInputError):
        von_neumann_gap(fs, parallel)


def test_reduce_function_trivial_cases():
    _, whole = rank_and_basis([GFVector(3, 1), GFVector(3, 2), GFVector(3, 4)])
    zero = BooleanFunction.constant(3, 0)
    one = BooleanFunction.constant(3, 1)
    for mode, eta in (("monotone", None), ("nonmonotone", Fraction(3, 4))):
        assert reduce_function(zero, whole, Fraction(1, 8), Fraction(1, 4),
                               eta, mode) == zero
    assert reduce_function(one, whole, Fraction(1, 8), Fraction(1, 4),
                           None, "monotone") == one
    assert reduce_function(one, whole, Fraction(1, 8), Fraction(1, 4),
                           Fraction(3, 4), "nonmonotone") == one


def test_reduce_function_sparse_coset_zeroed():
    _, whole = rank_and_basis([GFVector(3, 1), GFVector(3, 2), GFVector(3, 4)])
    f = BooleanFunction.from_ones(3, [5])
    out = reduce_function(f, whole, Fraction(1, 8), Fraction(1, 4), None, "monotone")
    assert out == BooleanFunction.constant(3, 0)


def test_reduce_function_parameter_validation():
    _, whole = rank_and_basis([GFVector(2, 1), GFVector(2, 2)])
    f = BooleanFunction.constant(2, 0)
    with pytest.raises(InvalidInputError):
        reduce_function(f, whole, Fraction(1, 8), Fraction(1, 4), None, "nonmonotone")
    with pytest.raises(InvalidInputError):
        reduce_function(f, whole, Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
                        "nonmonotone")
    with pytest.raises(InvalidInputError):
        reduce_function(f, whole, Fraction(1, 8), Fraction(1, 4), None, "sideways")


def test_reduce_function_modification_bound():
    rng = np.random.Generator(np.random.PCG64(71))
    a, b = Fraction(1, 3), Fraction(1, 4)
    from matroidlab.boolfn import is_uniform, restrict_to_coset
    from matroidlab.gf2 import coset_decompose
    checked = 0
    while checked < 10:
        n = int(rng.integers(2, 5))
        f = random_function(n, rng)
        vecs = [GFVector(n, int(rng.integers(0, 1 << n))) for _ in range(n - 1)]
        _, sub = rank_and_basis(vecs, dim=n)
        cosets = coset_decompose(sub)
        bad = sum(1 for c in cosets if not is_uniform(restrict_to_coset(f, c), a))
        if Fraction(bad, len(cosets)) > a:
            continue
        for mode, eta in (("monotone", None), ("nonmonotone", Fraction(3, 4))):
            out = reduce_function(f, sub, a, b, eta, mode)
            changed = int(np.count_nonzero(out.table != f.table))
            assert changed <= (a + b) * (1 << n)
        checked += 1


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
        rhs = find_pattern(f.complement(), C3, sigma.complement()) is None
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
                f = BooleanFunction.from_table_int(2, t)
                base_free = count_patterns(f, m, sigma).span_count == 0
                assert base_free == (count_patterns(f, m, rotated).span_count == 0)
                assert base_free == (count_patterns(f, m, reversed_).span_count == 0)
