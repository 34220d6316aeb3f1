import random
from itertools import product

import numpy as np
import pytest

from matroidlab.errors import BudgetExceededError, DimensionMismatchError, InvalidInputError
from matroidlab.gf2 import GFVector, LinearMap, Subspace, rank_and_basis, subspace_batches
from oracles import (apply, contains, gaussian_binomial, in_span, pivots, random_nonsingular_map,
                     reduce, subspace_rows, subspaces_by_bit_loop)


def v(s):
    return GFVector.from_bits(s)


def test_vector_string_round_trip():
    assert v("110").to_bits() == "110"
    assert v("110").bits == 0b011
    assert v("001").bits == 0b100


def test_vector_validation():
    with pytest.raises(InvalidInputError):
        GFVector(-1, 0)
    with pytest.raises(InvalidInputError):
        GFVector(2, 4)
    with pytest.raises(InvalidInputError):
        GFVector.from_bits("10x")
    with pytest.raises(InvalidInputError):   # no file row is the point of {0,1}^0
        GFVector.from_bits("")
    assert GFVector(0, 0).to_bits() == ""


def test_rank_empty_and_dependent():
    r, sub = rank_and_basis([], dim=3)
    assert r == 0 and sub.dim == 0 and sub.codim == 3
    r, _ = rank_and_basis([v("100"), v("010"), v("110")])
    assert r == 2


def test_rank_k5_incidence():
    # graph cycle-space dimension oracle: rank = V - components
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    vecs = [GFVector(5, (1 << a) | (1 << b)) for a, b in edges]
    r, _ = rank_and_basis(vecs)
    assert r == 5 - 1


def test_rank_mixed_dimensions_rejected():
    with pytest.raises(DimensionMismatchError):
        rank_and_basis([v("10"), v("100")])


def test_in_span():
    assert in_span(GFVector(4, 0), [])
    assert in_span(v("110"), [v("100"), v("010")])
    assert not in_span(v("111"), [v("100"), v("010")])
    with pytest.raises(DimensionMismatchError):
        in_span(v("10"), [v("100")])


def xor_closure(words):
    """The span of words by XOR closure, in plain Python sets."""
    span = {0}
    for w in words:
        span |= {x ^ w for x in span}
    return span


def test_rank_and_basis_is_the_rref_of_the_span():
    """Every list of up to 3 vectors in dimension at most 4: the basis is
    in RREF (each pivot bit set in exactly one row, rows in descending
    pivot order) and spans what the list spans."""
    checked = 0
    for dim in range(1, 5):
        for count in range(4):
            for words in product(range(1 << dim), repeat=count):
                r, sub = rank_and_basis([GFVector(dim, w) for w in words], dim)
                rows = list(sub.basis)
                tops = [b.bit_length() - 1 for b in rows]
                assert r == len(rows) and all(rows)
                assert tops == sorted(set(tops), reverse=True)
                assert all(sum(row >> p & 1 for row in rows) == 1 for p in tops)
                span = xor_closure(words)
                assert xor_closure(rows) == span
                assert all(contains(sub, GFVector(dim, x)) == (x in span)
                           for x in range(1 << dim))
                checked += 1
    assert checked == sum(sum((1 << d) ** c for c in range(4)) for d in range(1, 5))


def test_apply_map_examples():
    m = LinearMap(3, (v("101"), v("011"), v("110")))
    assert apply(m, GFVector(3, 0)) == GFVector(3, 0)
    assert apply(LinearMap(4, (v("1000"), v("0100"), v("0010"), v("0001"))), v("0110")) \
        == v("0110")
    assert apply(m, v("110")) == v("101") ^ v("011")


def test_apply_map_linearity():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(1000):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        m = LinearMap(d, tuple(GFVector(n, int(rng.integers(0, 1 << n)))
                               for _ in range(d)))
        x = GFVector(d, int(rng.integers(0, 1 << d)))
        y = GFVector(d, int(rng.integers(0, 1 << d)))
        assert apply(m, x ^ y) == apply(m, x) ^ apply(m, y)


def test_rank_and_basis_idempotent():
    rng = random.Random(3)
    for _ in range(100):
        dim = rng.randint(1, 8)
        vecs = [GFVector(dim, rng.randrange(1 << dim)) for _ in range(rng.randint(1, 6))]
        _, sub = rank_and_basis(vecs, dim=dim)
        _, again = rank_and_basis([GFVector(dim, b) for b in sub.basis], dim=dim)
        assert again == sub


def test_subspace_reduce_idempotent():
    rng = random.Random(7)
    for _ in range(100):
        dim = rng.randint(1, 8)
        vecs = [GFVector(dim, rng.randrange(1 << dim)) for _ in range(3)]
        _, sub = rank_and_basis(vecs, dim=dim)
        x = GFVector(dim, rng.randrange(1 << dim))
        red = reduce(sub, x)
        assert reduce(sub, red) == red
        assert contains(sub, x ^ red)


def test_enumerate_subspaces_counts():
    """The rows of subspace_batches, counted."""
    assert sum(len(bases) for _, bases in subspace_batches(2, 1)) == 3
    assert sum(len(bases) for _, bases in subspace_batches(3, 1)) == 7
    assert sum(len(bases) for _, bases in subspace_batches(4, 2)) == 35


def test_enumerate_subspaces_gaussian_binomial():
    # independent product-formula oracle
    def gauss(n, d):
        num = den = 1
        for i in range(d):
            num *= 2 ** n - 2 ** i
            den *= 2 ** d - 2 ** i
        return num // den

    for n in range(1, 7):
        for codim in range(n + 1):
            subs = subspace_rows(n, codim)
            assert len(subs) == gauss(n, n - codim) == gaussian_binomial(n, n - codim)
            assert len(set(subs)) == len(subs)
            assert all(s.codim == codim for s in subs)


def test_enumerate_subspaces_order_is_pinned():
    """The canonical subspace order, row for row over subspace_batches,
    against the bit-loop enumerator for every codimension at n <= 6."""
    for n in range(7):
        for codim in range(n + 1):
            assert [s.basis for s in subspace_rows(n, codim)] == subspaces_by_bit_loop(n, codim)


def test_batch_reps_are_the_canonical_coset_representatives():
    """Each batch's reps are the sorted reduce(H, x) over {0,1}^n, for
    every subspace H of the batch, at n <= 5."""
    for n in range(6):
        for codim in range(n + 1):
            for reps, bases in subspace_batches(n, codim):
                for basis in bases.tolist():
                    sub = Subspace(n, tuple(basis))
                    want = sorted({reduce(sub, GFVector(n, x)).bits for x in range(1 << n)})
                    assert reps.tolist() == want, (n, basis)


def test_enumerate_subspaces_caps():
    with pytest.raises(BudgetExceededError):
        list(subspace_batches(9, 1))
    with pytest.raises(InvalidInputError):
        list(subspace_batches(4, 5))


def test_coset_decompose_partitions():
    # the classes of Subspace.reduce: 2^codim canonical reps, each the
    # coset rep XOR the span, together every point once
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 6)
        vecs = [GFVector(n, rng.randrange(1 << n)) for _ in range(rng.randint(0, n))]
        _, sub = rank_and_basis(vecs, dim=n)
        reps = sorted({reduce(sub, GFVector(n, x)).bits for x in range(1 << n)})
        assert len(reps) == 1 << sub.codim
        assert all(rep >> p & 1 == 0 for rep in reps for p in pivots(sub))
        span = [0]
        for b in sub.basis:
            span += [w ^ b for w in span]
        points = []
        for rep in reps:
            coset = [GFVector(n, rep ^ w) for w in span]
            assert all(reduce(sub, x).bits == rep for x in coset)
            points += [x.bits for x in coset]
        assert sorted(points) == list(range(1 << n))


def test_coset_canonical_rep():
    # span{"11"}: "01" and "10" share a coset, named by "10" (pivot bit clear)
    _, sub = rank_and_basis([v("11")])
    assert reduce(sub, v("01")) == reduce(sub, v("10")) == v("10")
    assert reduce(sub, v("11")) == reduce(sub, v("00")) == v("00")


def test_random_nonsingular_map():
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(20):
        n = int(rng.integers(1, 7))
        t = random_nonsingular_map(n, rng)
        r, _ = rank_and_basis(t.images)
        assert r == n
