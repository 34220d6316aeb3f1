from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from matroidlab import boolfn
from matroidlab.boolfn import (WHT_MAX_N, BooleanFunction, _hadamard, coset_indices,
                               random_function, regularity_decompose, uniform_coset_fraction,
                               wht)
from matroidlab.errors import BudgetExceededError, DimensionMismatchError, InvalidInputError
from matroidlab.gf2 import GFVector, enumerate_subspaces, rank_and_basis
from oracles import (apply, butterfly, constant, from_ones, matmul_items,
                     random_nonsingular_map, reduce, walsh_direct)


def whole(n):
    return next(enumerate_subspaces(n, 0))


def random_subspace(n, rng):
    vecs = [GFVector(n, int(rng.integers(0, 1 << n))) for _ in range(int(rng.integers(0, n + 1)))]
    return rank_and_basis(vecs, dim=n)[1]


def reference_uniform_fraction(f, sub, eps):
    """The fraction of cosets on which f is eps-uniform, without the
    coset table: points are grouped by `reduce`, and a point x of a coset
    sits at position h = sum_i x_{pivot_i} 2^i, its coordinates over the
    RREF basis; one wht per coset."""
    classes = {}
    for x in range(1 << f.n):
        rep = reduce(sub, GFVector(f.n, x)).bits
        h = sum((x >> p & 1) << i for i, p in enumerate(sub.pivots))
        classes.setdefault(rep, [None] * (1 << sub.dim))[h] = x
    size = 1 << sub.dim
    uniform = [Fraction(wht(BooleanFunction(sub.dim, f.table[points])).max_abs_nonzero(), size)
               <= eps for points in classes.values()]
    return Fraction(sum(uniform), len(uniform))


def test_table_validation():
    with pytest.raises(InvalidInputError):
        BooleanFunction(2, [0, 1, 1])
    with pytest.raises(InvalidInputError):
        BooleanFunction(1, [0, 2])


def test_wht_examples():
    assert list(wht(constant(3, 0)).coeffs) == [0] * 8
    assert list(wht(constant(2, 1)).coeffs) == [4, 0, 0, 0]
    # ones {01, 10}: coordinate strings, i.e. indices 2 and 1
    s = wht(from_ones(2, [1, 2]))
    by_alpha = {GFVector(2, a).to_bits(): s.coeff(a) for a in range(4)}
    assert (by_alpha["00"], by_alpha["01"], by_alpha["10"], by_alpha["11"]) == (2, 0, 0, -2)


def test_wht_cap():
    with pytest.raises(InvalidInputError):
        BooleanFunction(25, np.zeros(2, dtype=np.uint8))


def test_wht_matches_direct_definition():
    rng = np.random.Generator(np.random.PCG64(19))
    for n in range(11):
        for density in (0.1, 0.5, 0.9):
            f = random_function(n, rng, density)
            assert np.array_equal(wht(f).coeffs, walsh_direct(f))


def test_wht_spectra_are_int32_and_exact_at_n20():
    n = 20
    s = wht(constant(n, 1))
    assert s.coeffs.dtype == np.int32
    assert s.coeff(0) == 1 << n
    assert not s.coeffs[1:].any()


def test_wht_matches_the_int64_butterfly():
    rng = np.random.Generator(np.random.PCG64(41))
    for n in range(11, 21):
        for density in (0.1, 0.5, 0.9):
            f = random_function(n, rng, density)
            assert np.array_equal(wht(f).coeffs, butterfly(f.table.astype(np.int64)))


def test_wht_exact_at_the_cap():
    # coeff[0] = 2^24 - 1 and every other coefficient -1: the largest
    # magnitude float32 must hold, next to the smallest
    table = np.ones(1 << WHT_MAX_N, dtype=np.uint8)
    table[0] = 0
    coeffs = wht(BooleanFunction(WHT_MAX_N, table)).coeffs
    assert coeffs.dtype == np.int32
    assert coeffs[0] == (1 << WHT_MAX_N) - 1
    assert (coeffs[1:] == -1).all()


def test_wht_cap_keeps_int32_exact():
    # every partial sum of the transform of a 0/1 table is an integer of
    # absolute value at most 2^n: int32 holds it, and so does float32,
    # whose integers are exact up to 2^(nmant + 1)
    assert 1 << WHT_MAX_N < 2 ** 31
    assert 1 << WHT_MAX_N <= 1 << (np.finfo(np.float32).nmant + 1)


def test_wht_products_stay_below_the_blas_thread_threshold(monkeypatch):
    """Every np.matmul wht issues is float32, one per Kronecker factor of
    at most 4 bits (one for n <= 8), with m*n*k <= 2^17 per stacked item,
    so OpenBLAS (threads past 2^18) runs each on the calling thread."""
    calls = matmul_items(monkeypatch)
    rng = np.random.Generator(np.random.PCG64(43))
    for n in [*range(21), WHT_MAX_N]:
        calls.clear()
        f = random_function(n, rng)
        coeffs = wht(f).coeffs
        assert len(calls) == (1 if n <= 8 else -(-n // 4)), n
        assert all(dtype == np.float32 and mnk <= 1 << 17 for dtype, mnk in calls), (n, calls)
        assert coeffs[0] == f.ones_count()


def test_coset_spectra_products_stay_below_the_blas_thread_threshold(monkeypatch):
    """uniform_coset_fraction transforms its coset rows in float32, every
    stacked item at m*n*k <= 2^17, on the first subspaces of {0,1}^8 of
    every codimension."""
    f = random_function(8, np.random.Generator(np.random.PCG64(47)))
    subs = [sub for codim in range(9) for sub in islice(enumerate_subspaces(8, codim), 4)]
    calls = matmul_items(monkeypatch)
    for sub in subs:
        calls.clear()
        uniform_coset_fraction(f, sub, Fraction(1, 4))
        assert calls and all(dtype == np.float32 and mnk <= 1 << 17 for dtype, mnk in calls)


def inner_product(n):
    """The bent function x_0 x_1 + x_2 x_3 + ... (n even)."""
    x = np.arange(1 << n)
    return BooleanFunction(n, np.bitwise_count(x & x >> 1 & 0x5555_5555) & 1)


def test_top_matches_stable_argsort():
    rng = np.random.Generator(np.random.PCG64(17))
    # n <= 4 has at most 16 coefficients, so every one is a candidate
    fs = [random_function(n, rng, density) for n in range(15) for density in (0.2, 0.5)]
    fs += [constant(n, v) for n in (0, 1, 3, 4, 5, 9) for v in (0, 1)]
    fs += [inner_product(6), inner_product(8)]
    for f in fs:
        s = wht(f)
        for count in (1, 5, 16):
            assert s.top(count) == np.argsort(-np.abs(s.coeffs), kind="stable")[:count].tolist()
    for n in (6, 8):
        # bent: every nonzero alpha ties, so the tie order is the whole answer
        s = wht(inner_product(n))
        assert len(set(np.abs(s.coeffs[1:]).tolist())) == 1
        assert s.top(16) == list(range(16))


def test_parseval_and_inversion():
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(200):
        n = int(rng.integers(0, 9))
        f = random_function(n, rng)
        s = wht(f)
        assert s.power_sum(2) == (1 << n) * f.ones_count()
        assert s.coeff(0) == f.ones_count()
        assert np.array_equal(butterfly(s.coeffs.copy()), f.table.astype(np.int64) << n)


def test_wht_involution():
    rng = np.random.Generator(np.random.PCG64(29))
    for _ in range(50):
        n = int(rng.integers(0, 9))
        f = random_function(n, rng)
        twice = butterfly(butterfly(f.table.astype(np.int64)))
        assert np.array_equal(twice, f.table.astype(np.int64) << n)


def test_hadamard_row_wise():
    """Every row of the kernel's answer, in float32, float64 and int64, is
    the oracle butterfly of that row, on one product and on the factor
    route, for shapes whose row count is not a power of two, and the
    int64 argument is left as it was, whether the kernel casts it or
    reads it as it is."""
    rng = np.random.Generator(np.random.PCG64(31))
    for shape in [(7, 32), (3, 1 << 9), (5, 1 << 10), (6, 1 << 13), (2, 3, 1 << 5), (4, 1)]:
        values = rng.integers(-5, 6, size=shape)
        before = values.copy()
        expected = [butterfly(row.copy()) for row in values.reshape(-1, shape[-1])]
        for dtype in (np.float32, np.float64, np.int64):
            got = _hadamard(values, dtype)
            assert got.dtype == dtype and got.shape == shape
            assert np.array_equal(got.reshape(-1, shape[-1]), np.array(expected)), (shape, dtype)
            assert np.array_equal(values, before)


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


def test_is_uniform_examples():
    assert uniform_coset_fraction(constant(4, 1), whole(4), 0) == 1
    f = from_ones(2, [1, 2])
    assert uniform_coset_fraction(f, whole(2), Fraction(1, 4)) == 0
    assert uniform_coset_fraction(f, whole(2), Fraction(1, 2)) == 1


def test_restriction_examples():
    f = from_ones(2, [1, 2])
    assert np.array_equal(f.table[coset_indices(whole(2))], [f.table])

    _, point = rank_and_basis([], dim=2)
    assert f.table[coset_indices(point)][GFVector.from_bits("01").bits].tolist() == [1]

    _, diag = rank_and_basis([GFVector.from_bits("11")])
    assert f.table[coset_indices(diag)].tolist() == [[0, 0], [1, 1]]


def test_restriction_matches_direct_evaluation():
    # column h of a row is its first point XOR the basis combination h
    rng = np.random.Generator(np.random.PCG64(31))
    checks = 0
    while checks < 1000:
        n = int(rng.integers(1, 9))
        f = random_function(n, rng)
        sub = random_subspace(n, rng)
        idx = coset_indices(sub)
        rep = reduce(sub, GFVector(n, int(rng.integers(0, 1 << n)))).bits
        row = int(np.searchsorted(idx[:, 0], rep))
        assert idx[row, 0] == rep
        values = f.table[idx[row]]
        for h in range(1 << sub.dim):
            point = rep
            for i in range(sub.dim):
                if h >> i & 1:
                    point ^= sub.basis[i]
            assert idx[row, h] == point and values[h] == int(f.table[point])
            checks += 1


def test_coset_point_indices_partition():
    _, sub = rank_and_basis([GFVector.from_bits("110"), GFVector.from_bits("011")])
    seen = coset_indices(sub).ravel().tolist()
    assert sorted(seen) == list(range(8))


def test_coset_indices_examples():
    # columns follow the RREF basis, descending pivots: "01", then "10"
    assert coset_indices(whole(2)).tolist() == [[0, 2, 1, 3]]
    _, trivial = rank_and_basis([], dim=2)
    assert coset_indices(trivial).tolist() == [[0], [1], [2], [3]]
    _, diag = rank_and_basis([GFVector.from_bits("11")])
    assert [set(row) for row in coset_indices(diag).tolist()] == [{0, 3}, {1, 2}]


def test_coset_indices_partition():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(60):
        n = int(rng.integers(1, 8))
        sub = random_subspace(n, rng)
        idx = coset_indices(sub)
        assert idx.shape == (1 << sub.codim, 1 << sub.dim)
        assert sorted(idx.ravel().tolist()) == list(range(1 << n))
        starts = idx[:, 0].tolist()
        assert starts == sorted(starts)
        for start, row in zip(starts, idx.tolist()):
            assert all(start >> p & 1 == 0 for p in sub.pivots)
            assert {reduce(sub, GFVector(n, x)).bits for x in row} == {start}


def test_uniform_fraction_matches_reference_every_small_subspace():
    rng = np.random.Generator(np.random.PCG64(43))
    for n in range(1, 5):
        for codim in range(n + 1):
            for sub in enumerate_subspaces(n, codim):
                f = random_function(n, rng, density=float(rng.random()))
                for eps in (0, Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), 1):
                    want = reference_uniform_fraction(f, sub, eps)
                    assert uniform_coset_fraction(f, sub, eps) == want


def test_uniform_fraction_matches_reference_random_subspaces():
    rng = np.random.Generator(np.random.PCG64(47))
    for n in range(5, 9):
        for _ in range(6):
            f = random_function(n, rng, density=float(rng.random()))
            sub = random_subspace(n, rng)
            for eps in (0, Fraction(1, 16), Fraction(1, 3), Fraction(1, 2)):
                want = reference_uniform_fraction(f, sub, eps)
                assert uniform_coset_fraction(f, sub, eps) == want


def test_coset_table_checks_ambient_dimension():
    f = constant(3, 1)
    for sub in (whole(2), whole(4)):
        with pytest.raises(DimensionMismatchError):
            uniform_coset_fraction(f, sub, Fraction(1, 4))


def test_regularity_one_transform_per_subspace(monkeypatch):
    shapes, tried = [], []
    hadamard, enumerate_all = boolfn._hadamard, boolfn.enumerate_subspaces

    def spy_hadamard(values, dtype):
        shapes.append(values.shape)
        return hadamard(values, dtype)

    def spy_enumerate(n, codim):
        for sub in enumerate_all(n, codim):
            tried.append(sub)
            yield sub

    monkeypatch.setattr(boolfn, "_hadamard", spy_hadamard)
    monkeypatch.setattr(boolfn, "enumerate_subspaces", spy_enumerate)
    f = random_function(5, np.random.Generator(np.random.PCG64(59)))
    sub, _ = regularity_decompose(f, Fraction(1, 8))
    assert tried[-1] == sub and len(tried) > 1
    assert shapes == [(1 << s.codim, 1 << s.dim) for s in tried]


def test_regularity_constant():
    sub, frac = regularity_decompose(constant(3, 1), Fraction(1, 8))
    assert sub.codim == 0 and frac == 1


def test_regularity_parity_indicator():
    f = from_ones(2, [1, 2])  # indicator of x_0 + x_1 = 1
    sub, frac = regularity_decompose(f, Fraction(1, 4))
    assert sub.codim == 1
    assert sub.basis == (0b11,)
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
    with pytest.raises(BudgetExceededError, match="^n=9 exceeds regularity search cap 8$"):
        regularity_decompose(constant(9, 0), Fraction(1, 2))
    with pytest.raises(InvalidInputError):
        regularity_decompose(constant(0, 1), Fraction(1, 2))
    f = from_ones(2, [0])
    with pytest.raises(InvalidInputError):
        regularity_decompose(f, Fraction(1, 4), max_codim=5)


def test_regularity_respects_max_codim():
    # the parity indicator needs codimension 1, so max_codim=0 must fail
    f = from_ones(2, [1, 2])
    with pytest.raises(BudgetExceededError):
        regularity_decompose(f, Fraction(1, 4), max_codim=0)


def test_spectrum_and_regularity_under_a_change_of_basis():
    """g = f o A for a nonsingular A: g^(A^T b) = f^(b), so the
    coefficients permute by A^-T, the power sums and max_abs_nonzero
    are fixed, and so is the codimension regularity_decompose finds."""
    rng = np.random.Generator(np.random.PCG64(223))
    for i in range(24):
        n = 1 + i % 5
        f = random_function(n, rng, rng.choice([0.2, 0.5, 0.8]))
        a = random_nonsingular_map(n, rng)
        g = BooleanFunction(n, f.table[[apply(a, GFVector(n, x)).bits for x in range(1 << n)]])
        points = np.arange(1 << n)
        transposed = sum(((np.bitwise_count(points & image.bits) & 1) << j).astype(np.int64)
                         for j, image in enumerate(a.images))
        sf, sg = wht(f), wht(g)
        assert np.array_equal(sg.coeffs[transposed], sf.coeffs)
        assert [sg.power_sum(k) for k in (2, 3, 4)] == [sf.power_sum(k) for k in (2, 3, 4)]
        assert sg.max_abs_nonzero() == sf.max_abs_nonzero()
        eps = Fraction(1, 1 << int(rng.integers(2, 5)))
        assert regularity_decompose(g, eps)[0].codim == regularity_decompose(f, eps)[0].codim
