from itertools import permutations

import pytest

from matroidlab.boolfn import BooleanFunction
from matroidlab.errors import InvalidInputError
from matroidlab.families import (COMPLEMENT_PAIR, FamilyId, achieved_patterns,
                                 all_functions, classify_sigma,
                                 enumerate_free_functions, family_contains,
                                 family_members, is_cycle_free,
                                 verify_characterization)
from matroidlab.gf2 import gaussian_binomial
from matroidlab.matroid import cycle_graph, graphic_from_graph
from matroidlab.tester import PatternSpec, find_pattern


def f_ones(n, ones):
    return BooleanFunction.from_ones(n, ones)


def sigma(s):
    return PatternSpec.from_string(s)


def test_family_membership_examples():
    xor = f_ones(2, [1, 2])
    assert family_contains(xor, FamilyId.LIN)
    assert not family_contains(xor, FamilyId.CONST)

    point0 = f_ones(2, [0])
    assert family_contains(point0, FamilyId.FLIN)
    assert not family_contains(point0, FamilyId.LIN)

    point01 = f_ones(2, [2])
    assert family_contains(point01, FamilyId.FAFF)
    assert not family_contains(point01, FamilyId.FLIN)


def test_family_constants_and_bars():
    one = BooleanFunction.constant(3, 1)
    zero = BooleanFunction.constant(3, 0)
    for f in (one, zero):
        assert family_contains(f, FamilyId.CONST)
        assert family_contains(f, FamilyId.LIN)
        assert family_contains(f, FamilyId.AFF)
    assert family_contains(zero, FamilyId.FLIN)
    assert family_contains(one, FamilyId.FLIN_BAR)
    assert family_contains(one, FamilyId.FLIN)  # whole space is a subspace
    assert family_contains(one, FamilyId.FAFF)


def test_complement_pairing_invariant():
    for fam, paired in COMPLEMENT_PAIR.items():
        for f in all_functions(2):
            assert family_contains(f, fam) == family_contains(f.complement(), paired)


def test_family_closure_invariants():
    for n in (2, 3):
        # the empty set plus one indicator per subspace of {0,1}^n
        assert len(family_members(n, FamilyId.FLIN)) == 1 + sum(
            gaussian_binomial(n, d) for d in range(n + 1))
        for f in family_members(n, FamilyId.FLIN):
            ones = f.ones()
            assert all((x ^ y) in set(ones) for x in ones for y in ones)
        for f in family_members(n, FamilyId.FAFF):
            ones = set(f.ones())
            assert all((x ^ y ^ z) in ones for x in ones for y in ones for z in ones)


def test_classify_sigma_examples():
    assert classify_sigma(sigma("0011")) is FamilyId.CONST
    assert classify_sigma(sigma("110")) is FamilyId.FLIN
    assert classify_sigma(sigma("100")) is FamilyId.FLIN_BAR
    assert classify_sigma(sigma("1110")) is FamilyId.FAFF
    assert classify_sigma(sigma("00111")) is FamilyId.LIN
    assert classify_sigma(sigma("000111")) is FamilyId.AFF
    assert classify_sigma(sigma("11000")) is FamilyId.LIN_BAR
    assert classify_sigma(sigma("10000")) is FamilyId.FLIN_BAR
    assert classify_sigma(sigma("1000")) is FamilyId.FAFF_BAR


def test_classify_sigma_rejects():
    with pytest.raises(InvalidInputError):
        classify_sigma(sigma("111"))
    with pytest.raises(InvalidInputError):
        classify_sigma(sigma("0000"))
    with pytest.raises(InvalidInputError):
        classify_sigma(sigma("10"))


def test_classify_duality():
    for k in (3, 4, 5, 6):
        for bits in range(1, (1 << k) - 1):
            s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
            assert classify_sigma(s.complement()) is COMPLEMENT_PAIR[classify_sigma(s)]


def test_achieved_patterns_against_find_pattern():
    # the DP against the generic exhaustive searcher, all 16 functions
    for k in (3, 4):
        m = graphic_from_graph(cycle_graph(k))
        for t in range(16):
            f = BooleanFunction.from_table_int(2, t)
            mask = achieved_patterns(f, k)
            for bits in range(1 << k):
                s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
                dp_free = not mask >> s.index_int() & 1
                assert dp_free == (find_pattern(f, m, s) is None)
                assert dp_free == is_cycle_free(f, s)


def test_enumerate_free_examples():
    free = enumerate_free_functions(2, 3, sigma("111"))
    assert BooleanFunction.constant(2, 0) in free
    assert all(f.value(0) == 0 for f in free)

    free = enumerate_free_functions(2, 3, sigma("110"))
    assert len(free) == 6
    assert free == family_members(2, FamilyId.FLIN)

    free = enumerate_free_functions(2, 4, sigma("0011"))
    assert len(free) == 2


def test_enumerate_free_budget():
    with pytest.raises(InvalidInputError):
        enumerate_free_functions(4, 5, PatternSpec.all_ones(5))


def test_complement_duality_of_free_sets():
    for k in (3, 4):
        for bits in range(1, (1 << k) - 1):
            s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
            free = enumerate_free_functions(2, k, s)
            free_bar = enumerate_free_functions(2, k, s.complement())
            assert free_bar == frozenset(f.complement() for f in free)


def test_sigma_permutation_invariance_of_free_sets():
    for k in (3, 4, 5):
        for bits in range(1, (1 << k) - 1):
            s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
            base = enumerate_free_functions(2, k, s)
            rotated = PatternSpec(s.sigma[1:] + s.sigma[:1])
            assert enumerate_free_functions(2, k, rotated) == base


def test_verify_characterization_small():
    rep = verify_characterization(2, 3)
    assert len(rep.verdicts) == 6 and rep.mismatches == 0
    rep = verify_characterization(3, 4)
    assert len(rep.verdicts) == 14 and rep.mismatches == 0
    doc = rep.to_dict()
    assert doc["mismatches"] == 0 and len(doc["sigma_verdicts"]) == 14


def test_hierarchy_finiteness():
    # over all k <= 6 and non-monochromatic sigma, at most the nine
    # families appear as free sets
    distinct = set()
    for k in (3, 4, 5, 6):
        for bits in range(1, (1 << k) - 1):
            s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
            distinct.add(enumerate_free_functions(3, k, s))
    assert len(distinct) <= 9
