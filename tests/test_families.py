import pytest

import matroidlab.families as families
from matroidlab.boolfn import BooleanFunction
from matroidlab.cli import main
from matroidlab.errors import InvalidInputError
from matroidlab.families import (COMPLEMENT_PAIR, FamilyId, achieved_patterns,
                                 all_functions, classify_sigma,
                                 enumerate_free_functions, family_members,
                                 verify_characterization)
from matroidlab.gf2 import gaussian_binomial
from matroidlab.matroid import cycle_graph, graphic_from_graph
from matroidlab.tester import PatternSpec, find_pattern


def f_ones(n, ones):
    return BooleanFunction.from_ones(n, ones)


def sigma(s):
    return PatternSpec.from_string(s)


# The families by their definitions: the reference that the generated
# families are held against.

def is_linear_form(f):
    return any(all(f.value(x) == (a & x).bit_count() & 1 for x in range(1 << f.n))
               for a in range(1 << f.n))


def is_subspace(ones):
    return bool(ones) and all(x ^ y in ones for x in ones for y in ones)


def is_affine_subspace(ones):
    return bool(ones) and is_subspace({x ^ min(ones) for x in ones})


BAR_OF = {FamilyId.LIN_BAR: FamilyId.LIN, FamilyId.AFF_BAR: FamilyId.AFF,
          FamilyId.FLIN_BAR: FamilyId.FLIN, FamilyId.FAFF_BAR: FamilyId.FAFF}


def family_contains(f, fam):
    if fam in BAR_OF:
        return family_contains(f.complement(), BAR_OF[fam])
    ones = set(f.ones())
    if fam is FamilyId.CONST:
        return len(ones) in (0, 1 << f.n)
    if fam is FamilyId.LIN:
        return len(ones) == 1 << f.n or is_linear_form(f)
    if fam is FamilyId.AFF:
        return is_linear_form(f) or is_linear_form(f.complement())
    if fam is FamilyId.FLIN:
        return not ones or is_subspace(ones)
    assert fam is FamilyId.FAFF
    return not ones or is_affine_subspace(ones)


def swept_members(n, fam):
    return frozenset(f for f in all_functions(n) if family_contains(f, fam))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_family_members_match_the_definitions(n):
    for fam in FamilyId:
        assert family_members(n, fam) == swept_members(n, fam), fam


def test_family_members_at_n4_satisfy_the_definitions():
    for fam in FamilyId:
        members = family_members(4, fam)
        assert members and all(family_contains(f, fam) for f in members), fam
    assert len(family_members(4, FamilyId.FLIN)) == 1 + sum(
        gaussian_binomial(4, d) for d in range(5))


def test_family_members_refuse_n_past_4():
    with pytest.raises(InvalidInputError):
        family_members(5, FamilyId.CONST)


def test_family_membership_examples():
    xor = f_ones(2, [1, 2])
    assert xor in family_members(2, FamilyId.LIN)
    assert xor not in family_members(2, FamilyId.CONST)

    point0 = f_ones(2, [0])
    assert point0 in family_members(2, FamilyId.FLIN)
    assert point0 not in family_members(2, FamilyId.LIN)

    point01 = f_ones(2, [2])
    assert point01 in family_members(2, FamilyId.FAFF)
    assert point01 not in family_members(2, FamilyId.FLIN)


def test_family_constants_and_bars():
    one = BooleanFunction.constant(3, 1)
    zero = BooleanFunction.constant(3, 0)
    for f in (one, zero):
        assert f in family_members(3, FamilyId.CONST)
        assert f in family_members(3, FamilyId.LIN)
        assert f in family_members(3, FamilyId.AFF)
    assert zero in family_members(3, FamilyId.FLIN)
    assert one in family_members(3, FamilyId.FLIN_BAR)
    assert one in family_members(3, FamilyId.FLIN)  # whole space is a subspace
    assert one in family_members(3, FamilyId.FAFF)


def test_complement_pairing_invariant():
    for n in range(4):
        for fam, paired in COMPLEMENT_PAIR.items():
            assert family_members(n, paired) == frozenset(
                f.complement() for f in family_members(n, fam))


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


def reference_characterization(n, k):
    """verify_characterization's report, from the definitions' sweep and
    enumerate_free_functions."""
    members = {fam: swept_members(n, fam) for fam in FamilyId}
    verdicts, failures = [], []
    for bits in range(1, (1 << k) - 1):
        s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
        free = enumerate_free_functions(n, k, s)
        fam = families.classify_sigma(s)
        diff = free ^ members[fam]
        verdicts.append({"sigma": str(s), "family": fam.value, "free_count": len(free),
                         "predicted_count": len(members[fam]), "match": not diff,
                         "counterexamples": sorted(f.table_int() for f in diff)})
        for pad in ((0, 0), (1, 1)):
            padded = PatternSpec(s.sigma + pad)
            outside = enumerate_free_functions(n, k + 2, padded) - free
            if outside:
                failures.append(f"(C_{k + 2},{padded})-free not within (C_{k},{s})-free: "
                                f"{sorted(f.table_int() for f in outside)}")
    return {"n": n, "k": k, "mismatches": sum(not v["match"] for v in verdicts) + len(failures),
            "containment_failures": failures, "sigma_verdicts": verdicts}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_verify_characterization_matches_reference(n, k):
    assert verify_characterization(n, k).to_dict() == reference_characterization(n, k)


def test_verify_characterization_reports_disagreements(monkeypatch):
    # a wrong classifier gives counterexamples, and free sets at k + 2
    # that hold every function give containment failures
    achieved = families._achieved_masks
    monkeypatch.setattr(families, "classify_sigma",
                        lambda s: list(FamilyId)[s.index_int() % len(FamilyId)])
    monkeypatch.setattr(families, "_achieved_masks",
                        lambda n, k: achieved(n, k) if k == 3 else (0,) * (1 << (1 << n)))
    doc = verify_characterization(2, 3).to_dict()
    assert doc["containment_failures"] and any(v["counterexamples"]
                                                for v in doc["sigma_verdicts"])
    assert doc == reference_characterization(2, 3)


def test_characterize_at_n4_is_refused_before_any_family_is_built(monkeypatch, capsys):
    def built(*args):
        raise AssertionError("built")

    monkeypatch.setattr(families, "_family_tables", built)
    monkeypatch.setattr(families, "_achieved_masks", built)
    assert main(["characterize", "-k", "3", "-n", "4"]) == 4
    assert capsys.readouterr().err == "error: free-set enumeration capped at n <= 3 for k = 5\n"


def test_hierarchy_finiteness():
    # over all k <= 6 and non-monochromatic sigma, at most the nine
    # families appear as free sets
    distinct = set()
    for k in (3, 4, 5, 6):
        for bits in range(1, (1 << k) - 1):
            s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
            distinct.add(enumerate_free_functions(3, k, s))
    assert len(distinct) <= 9
