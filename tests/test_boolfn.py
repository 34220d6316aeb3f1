import random
from fractions import Fraction

import numpy as np
import pytest

from matroidlab.boolfn import (BooleanFunction, CosetRestriction, _butterfly,
                               coset_point_indices, density, hamming_distance,
                               inverse_wht, is_uniform, random_function,
                               regularity_decompose, restrict_to_coset,
                               uniform_coset_fraction, wht)
from matroidlab.errors import BudgetExceededError, DimensionMismatchError, InvalidInputError
from matroidlab.gf2 import Coset, GFVector, enumerate_subspaces, rank_and_basis


def f_ones(n, ones):
    return BooleanFunction.from_ones(n, ones)


def test_table_validation():
    with pytest.raises(InvalidInputError):
        BooleanFunction(2, [0, 1, 1])
    with pytest.raises(InvalidInputError):
        BooleanFunction(1, [0, 2])


def test_wht_examples():
    assert list(wht(BooleanFunction.constant(3, 0)).coeffs) == [0] * 8
    assert list(wht(BooleanFunction.constant(2, 1)).coeffs) == [4, 0, 0, 0]
    # ones {01, 10}: coordinate strings, i.e. indices 2 and 1
    s = wht(f_ones(2, [1, 2]))
    by_alpha = {GFVector(2, a).to_bits(): s.coeff(a) for a in range(4)}
    assert (by_alpha["00"], by_alpha["01"], by_alpha["10"], by_alpha["11"]) == (2, 0, 0, -2)


def test_wht_cap():
    with pytest.raises(InvalidInputError):
        BooleanFunction(25, np.zeros(2, dtype=np.uint8))


def test_parseval_and_inversion():
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(200):
        n = int(rng.integers(0, 9))
        f = random_function(n, rng)
        s = wht(f)
        assert s.power_sum(2) == (1 << n) * f.ones_count()
        assert s.coeff(0) == f.ones_count()
        assert inverse_wht(s) == f
        assert density(f, 1) == Fraction(s.coeff(0), 1 << n)


def test_wht_involution():
    rng = np.random.Generator(np.random.PCG64(29))
    for _ in range(50):
        n = int(rng.integers(0, 9))
        f = random_function(n, rng)
        twice = _butterfly(_butterfly(f.table.astype(np.int64)))
        assert np.array_equal(twice, f.table.astype(np.int64) << n)


def test_butterfly_row_wise():
    rng = np.random.Generator(np.random.PCG64(31))
    rows = rng.integers(-5, 6, size=(7, 32)).astype(np.int64)
    expected = [_butterfly(row.copy()) for row in rows]
    assert np.array_equal(_butterfly(rows.copy()), np.array(expected))


def test_power_sum_matches_coefficient_loop():
    rng = np.random.Generator(np.random.PCG64(37))
    for _ in range(30):
        n = int(rng.integers(0, 9))
        s = wht(random_function(n, rng))
        for k in (1, 2, 3, 4, 7):
            assert s.power_sum(k) == sum(int(c) ** k for c in s.coeffs.tolist())


def test_random_function_rejects_bad_n_before_drawing():
    rng = np.random.Generator(np.random.PCG64(41))
    for n in (-1, 25):
        with pytest.raises(InvalidInputError):
            random_function(n, rng)
    assert rng.bit_generator.state == np.random.Generator(np.random.PCG64(41)).bit_generator.state


def test_density_examples():
    assert density(BooleanFunction.constant(3, 0), 0) == 1
    assert density(BooleanFunction.constant(3, 1), 0) == 0
    assert density(f_ones(2, [1, 2]), 1) == Fraction(1, 2)


def test_is_uniform_examples():
    assert is_uniform(BooleanFunction.constant(4, 1), 0)
    f = f_ones(2, [1, 2])
    assert not is_uniform(f, Fraction(1, 4))
    assert is_uniform(f, Fraction(1, 2))


def test_hamming_examples():
    f = f_ones(2, [2])
    g = f_ones(2, [1, 2])
    assert hamming_distance(f, f) == (0, 0)
    assert hamming_distance(f, f.complement()) == (4, 1)
    assert hamming_distance(f, g) == (1, Fraction(1, 4))
    with pytest.raises(DimensionMismatchError):
        hamming_distance(f, BooleanFunction.constant(3, 0))


def test_restriction_examples():
    f = f_ones(2, [1, 2])
    _, whole = rank_and_basis([GFVector.from_bits("10"), GFVector.from_bits("01")])
    r = restrict_to_coset(f, Coset.of(whole, GFVector(2, 0)))
    assert np.array_equal(r.values.table, f.table)

    _, point = rank_and_basis([], dim=2)
    r = restrict_to_coset(f, Coset.of(point, GFVector.from_bits("01")))
    assert list(r.values.table) == [1]

    _, diag = rank_and_basis([GFVector.from_bits("11")])
    r = restrict_to_coset(f, Coset.of(diag, GFVector.from_bits("01")))
    assert list(r.values.table) == [1, 1]


def test_restriction_matches_direct_evaluation():
    rng = np.random.Generator(np.random.PCG64(31))
    checks = 0
    while checks < 1000:
        n = int(rng.integers(1, 9))
        f = random_function(n, rng)
        vecs = [GFVector(n, int(rng.integers(0, 1 << n)))
                for _ in range(int(rng.integers(0, n + 1)))]
        _, sub = rank_and_basis(vecs, dim=n)
        coset = Coset.of(sub, GFVector(n, int(rng.integers(0, 1 << n))))
        r = restrict_to_coset(f, coset)
        for h in range(1 << sub.dim):
            point = coset.rep.bits
            for i in range(sub.dim):
                if h >> i & 1:
                    point ^= sub.basis[i].bits
            assert r.values.value(h) == f.value(point)
            checks += 1


def test_coset_point_indices_partition():
    _, sub = rank_and_basis([GFVector.from_bits("110"), GFVector.from_bits("011")])
    from matroidlab.gf2 import coset_decompose
    seen = []
    for c in coset_decompose(sub):
        seen += list(coset_point_indices(c))
    assert sorted(seen) == list(range(8))


def test_regularity_constant():
    sub, frac = regularity_decompose(BooleanFunction.constant(3, 1), Fraction(1, 8))
    assert sub.codim == 0 and frac == 1


def test_regularity_parity_indicator():
    f = f_ones(2, [1, 2])  # indicator of x_0 + x_1 = 1
    sub, frac = regularity_decompose(f, Fraction(1, 4))
    assert sub.codim == 1
    assert [b.to_bits() for b in sub.basis] == ["11"]
    assert frac == 1


def test_regularity_minimality_rescan():
    rng = np.random.Generator(np.random.PCG64(37))
    eps = Fraction(1, 3)
    for _ in range(5):
        f = random_function(4, rng)
        sub, frac = regularity_decompose(f, eps)
        assert frac >= 1 - eps
        assert uniform_coset_fraction(f, sub, eps) == frac
        for codim in range(sub.codim):
            for other in enumerate_subspaces(4, codim):
                assert uniform_coset_fraction(f, other, eps) < 1 - eps


def test_regularity_caps():
    with pytest.raises(BudgetExceededError):
        regularity_decompose(BooleanFunction.constant(9, 0), Fraction(1, 2))
    f = BooleanFunction.from_ones(2, [0])
    with pytest.raises(InvalidInputError):
        regularity_decompose(f, Fraction(1, 4), max_codim=5)


def test_regularity_respects_max_codim():
    # the parity indicator needs codimension 1, so max_codim=0 must fail
    f = f_ones(2, [1, 2])
    with pytest.raises(BudgetExceededError):
        regularity_decompose(f, Fraction(1, 4), max_codim=0)
