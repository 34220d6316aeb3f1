import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from matroidlab import boolfn
from matroidlab.boolfn import (WHT_MAX_N, BooleanFunction, FourierSpectrum, _coset_tables,
                               _hadamard, _uniform_counts, random_function,
                               regularity_decompose, wht)
from matroidlab.errors import BudgetExceededError, DimensionMismatchError, InvalidInputError
from matroidlab.gf2 import GFVector, Subspace, rank_and_basis, subspace_batches
from oracles import (apply, butterfly, coset_table, constant, from_ones, from_table_int,
                     matmul_items, pivots, random_nonsingular_map, reduce, regularity_by_subspace,
                     subspace_rows, uniform_coset_fraction, walsh_direct)


def whole(n):
    return subspace_rows(n, 0)[0]


def batch_coset_table(sub):
    """The `_coset_tables` table of one subspace, shape (2^codim, 2^dim),
    from the batch of its pivot set, which must hold its basis."""
    basis = np.array(sub.basis, dtype=np.int64).reshape(1, sub.dim)
    for reps, bases in subspace_batches(sub.ambient_dim, sub.codim):
        hit = np.flatnonzero((bases == basis).all(axis=1))
        if hit.size:
            return _coset_tables(reps, bases[hit])[0]
    raise AssertionError(f"{sub} is in no batch")


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
        h = sum((x >> p & 1) << i for i, p in enumerate(pivots(sub)))
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
    """The regularity search transforms its coset tables in float32,
    every stacked item at m*n*k <= 2^17, on the first chunk of the first
    pivot set of every codimension of {0,1}^8."""
    f = random_function(8, np.random.Generator(np.random.PCG64(47)))
    chunks = [(reps, bases[:boolfn._CHUNK_ENTRIES >> 8])
              for reps, bases in (next(subspace_batches(8, codim)) for codim in range(9))]
    calls = matmul_items(monkeypatch)
    for reps, bases in chunks:
        calls.clear()
        _uniform_counts(f, reps, bases, Fraction(1, 4))
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
    reads it as it is. The argument may come in any layout: C order,
    Fortran order, or the swapped view of a C-ordered copy with its last
    two axes swapped, as a fancy-indexed elimination factor can be."""
    rng = np.random.Generator(np.random.PCG64(31))
    for shape in [(7, 32), (3, 1 << 9), (5, 1 << 10), (6, 1 << 13), (2, 3, 1 << 5), (4, 1),
                  (64, 1 << 6), (4, 1 << 10), (3, 1 << 12), (2, 5, 1 << 8)]:
        values = rng.integers(-5, 6, size=shape)
        expected = [butterfly(row.copy()) for row in values.reshape(-1, shape[-1])]
        swapped = np.ascontiguousarray(np.swapaxes(values, -1, -2)).swapaxes(-1, -2)
        for layout in (values, np.asfortranarray(values), swapped):
            before = layout.copy()
            for dtype in (np.float32, np.float64, np.int64):
                got = _hadamard(layout, dtype)
                assert got.dtype == dtype and got.shape == shape
                assert np.array_equal(got.reshape(-1, shape[-1]), np.array(expected)), (
                    shape, dtype, layout.strides)
                assert np.array_equal(layout, before)


def test_power_sum_matches_coefficient_loop():
    rng = np.random.Generator(np.random.PCG64(37))
    for _ in range(30):
        n = int(rng.integers(0, 9))
        s = wht(random_function(n, rng))
        for k in (1, 2, 3, 4, 7):
            assert s.power_sum(k) == sum(int(c) ** k for c in s.coeffs.tolist())


def test_power_sum_routes_at_the_int64_bound():
    """power_sum sums in int64 while n*k <= 62 and over the histogram in
    Python ints past it. f = 1, whose spectrum is 2^n at alpha 0, puts
    the whole Parseval bound 2^(nk) in one coefficient: at the largest
    n <= 24 with n*k <= 62 it fits int64, and one n further (k = 3, 4) it
    would not. Random f on both sides of n*k = 62 agree with the
    Python-int loop."""
    for k in (2, 3, 4):
        for n in range(62 // k, min(62 // k + 1, WHT_MAX_N) + 1):
            coeffs = np.zeros(1 << n, dtype=np.int32)
            coeffs[0] = 1 << n
            assert FourierSpectrum(n, coeffs).power_sum(k) == 1 << n * k, (n, k)
    rng = np.random.Generator(np.random.PCG64(53))
    for n, k in [(15, 4), (16, 4), (12, 5), (13, 5), (8, 7), (9, 7)]:
        s = wht(random_function(n, rng, float(rng.choice([0.1, 0.5, 0.9]))))
        assert s.power_sum(k) == sum(int(c) ** k for c in s.coeffs.tolist()), (n, k)


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
    assert np.array_equal(f.table[batch_coset_table(whole(2))], [f.table])

    _, point = rank_and_basis([], dim=2)
    assert f.table[batch_coset_table(point)][GFVector.from_bits("01").bits].tolist() == [1]

    _, diag = rank_and_basis([GFVector.from_bits("11")])
    assert f.table[batch_coset_table(diag)].tolist() == [[0, 0], [1, 1]]


def test_restriction_matches_direct_evaluation():
    # column h of a row is its first point XOR the basis combination h
    rng = np.random.Generator(np.random.PCG64(31))
    checks = 0
    while checks < 1000:
        n = int(rng.integers(1, 9))
        f = random_function(n, rng)
        sub = random_subspace(n, rng)
        idx = batch_coset_table(sub)
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
    seen = batch_coset_table(sub).ravel().tolist()
    assert sorted(seen) == list(range(8))


def test_coset_indices_examples():
    # columns follow the RREF basis, descending pivots: "01", then "10"
    assert batch_coset_table(whole(2)).tolist() == [[0, 2, 1, 3]]
    _, trivial = rank_and_basis([], dim=2)
    assert batch_coset_table(trivial).tolist() == [[0], [1], [2], [3]]
    _, diag = rank_and_basis([GFVector.from_bits("11")])
    assert [set(row) for row in batch_coset_table(diag).tolist()] == [{0, 3}, {1, 2}]


def test_coset_indices_partition():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(60):
        n = int(rng.integers(1, 8))
        sub = random_subspace(n, rng)
        idx = batch_coset_table(sub)
        assert np.array_equal(idx, coset_table(sub))
        assert idx.shape == (1 << sub.codim, 1 << sub.dim)
        assert sorted(idx.ravel().tolist()) == list(range(1 << n))
        starts = idx[:, 0].tolist()
        assert starts == sorted(starts)
        for start, row in zip(starts, idx.tolist()):
            assert all(start >> p & 1 == 0 for p in pivots(sub))
            assert {reduce(sub, GFVector(n, x)).bits for x in row} == {start}


def test_uniform_fraction_matches_reference_every_small_subspace():
    rng = np.random.Generator(np.random.PCG64(43))
    for n in range(1, 5):
        for codim in range(n + 1):
            for sub in subspace_rows(n, codim):
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


def affine_indicator(n, rng):
    """The indicator of a random affine subspace of {0,1}^n."""
    sub = random_subspace(n, rng)
    shift = int(rng.integers(0, 1 << n))
    return from_ones(n, [x ^ shift for x in batch_coset_table(sub)[0].tolist()])


def structured(n, rng):
    return inner_product(n) if n % 2 == 0 else affine_indicator(n, rng)


def test_uniform_counts_match_reference_every_small_subspace():
    """At n <= 6 every batch of every codimension, for a random and a
    structured f: each basis's uniform-coset count is the reference's."""
    rng = np.random.Generator(np.random.PCG64(67))
    epss = (0, Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1)
    for n in range(1, 7):
        for f in (random_function(n, rng, float(rng.random())), structured(n, rng)):
            for codim in range(n + 1):
                for i, (reps, bases) in enumerate(subspace_batches(n, codim)):
                    eps = epss[(i + codim) % len(epss)]
                    counts = _uniform_counts(f, reps, bases, eps).tolist()
                    assert counts == [reference_uniform_fraction(f, Subspace(n, tuple(b)), eps)
                                      * (1 << codim) for b in bases.tolist()], (n, codim, eps)


def test_uniform_counts_match_reference_random_subspaces():
    """At n = 7-8, random slices of random pivot-set batches."""
    rng = np.random.Generator(np.random.PCG64(71))
    for n in (7, 8):
        for _ in range(8):
            f = random_function(n, rng, float(rng.random()))
            codim = int(rng.integers(0, n + 1))
            batches = list(subspace_batches(n, codim))
            reps, bases = batches[int(rng.integers(0, len(batches)))]
            start = int(rng.integers(0, len(bases)))
            bases = bases[start:start + 3]
            for eps in (0, Fraction(1, 16), Fraction(1, 3), Fraction(1, 2)):
                assert _uniform_counts(f, reps, bases, eps).tolist() == [
                    reference_uniform_fraction(f, Subspace(n, tuple(b)), eps) * (1 << codim)
                    for b in bases.tolist()], (n, codim, eps)


def test_regularity_matches_the_per_subspace_loop(monkeypatch):
    """The batched search returns the per-subspace loop's (subspace,
    fraction), with the chunk cap as shipped and shrunk to 1 and 8 bases,
    so that hits land in the middle and in later chunks of a pivot set."""
    rng = np.random.Generator(np.random.PCG64(73))
    cap = boolfn._CHUNK_ENTRIES
    for n in range(1, 7):
        fs = [random_function(n, rng, float(rng.random())), structured(n, rng)]
        if n == 4:      # at eps = 1/4, ten regular subspaces in one pivot set, the first at 1
            fs.append(from_table_int(4, 0x18a1))
        for f in fs:
            for eps in (0, Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
                want = regularity_by_subspace(f, eps)
                for entries in (cap, 8 << n, 1 << n):
                    monkeypatch.setattr(boolfn, "_CHUNK_ENTRIES", entries)
                    assert regularity_decompose(f, eps) == want, (n, eps, entries)


def test_regularity_one_transform_per_chunk(monkeypatch):
    """One _hadamard per chunk, with the cap as shipped and at 4 bases:
    the chunks, each within the cap and one pivot set, hold the coset
    tables of the subspaces walked in canonical order, and the last one
    holds the subspace found."""
    seen = []
    hadamard = boolfn._hadamard

    def spy_hadamard(values, dtype):
        seen.append(values)
        return hadamard(values, dtype)

    monkeypatch.setattr(boolfn, "_hadamard", spy_hadamard)
    f = random_function(5, np.random.Generator(np.random.PCG64(59)))
    for entries in (boolfn._CHUNK_ENTRIES, 4 << 5):
        monkeypatch.setattr(boolfn, "_CHUNK_ENTRIES", entries)
        seen.clear()
        sub, _ = regularity_decompose(f, Fraction(1, 8))
        walked = [s for codim in range(sub.codim + 1) for s in subspace_rows(5, codim)]
        assert len(seen) > 1
        start = 0
        for values in seen:
            assert values.size <= entries
            chunk = walked[start:start + len(values)]
            assert len({pivots(s) for s in chunk}) == 1
            assert np.array_equal(values, [f.table[batch_coset_table(s)] for s in chunk])
            start += len(values)
        assert start - len(seen[-1]) <= walked.index(sub) < start


def test_regularity_walk_memory_is_capped_by_the_chunk():
    """A walk through every subspace of {0,1}^8 of codimension <= 3 (f
    the AND of the top three coordinates, regular first on the last
    pivot set of codimension 3) stays under a traced peak of 2.25 MiB: the largest
    batch, 2^15 bases of 5 rows in int64 (1.25 MiB), plus one chunk of
    _CHUNK_ENTRIES table entries, whose int64 indices, float32 values
    and transform take about 0.7 MiB. Twice the cap gives 2.5 MiB."""
    f = BooleanFunction(8, (np.arange(256) >> 5 == 7).astype(np.uint8))
    tracemalloc.start()
    try:
        sub, frac = regularity_decompose(f, Fraction(1, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sub.codim, sub.basis, frac) == (3, (0b10000, 0b1000, 0b100, 0b10, 0b1), 1)
    assert peak < 2.25 * (1 << 20), peak


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
            for other in subspace_rows(4, codim):
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
