from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest

import matroidlab.families as families
from matroidlab.cli import main
from matroidlab.errors import InvalidInputError
from matroidlab.families import COMPLEMENT_PAIR, FamilyId, classify_sigma, verify_characterization
from matroidlab.matroid import cycle_graph, graphic_from_graph
from matroidlab.tester import PatternSpec, find_pattern
from oracles import (butterfly, complement, constant, enumerate_free_functions,
                     family_members, from_ones, from_table_int, gaussian_binomial, index_int,
                     matmul_items, pattern_complement, table_int)


@lru_cache(maxsize=None)
def all_functions(n):
    return tuple(from_table_int(n, t) for t in range(1 << (1 << n)))


def all_sigmas(k):
    return [PatternSpec(tuple(bits >> i & 1 for i in range(k))) for bits in range(1 << k)]


# The physical-side oracle for the free sets: a dynamic program over
# zero-sum tuples, independent of the Fourier table in `families`.

def achieved_patterns(f, k):
    """Bitmask of value patterns achieved by zero-sum k-tuples in f: bit
    index_int(sigma) is set iff f contains (C_k, sigma).

    Dynamic program over tuple prefixes: level j maps each partial XOR s
    to the bitmask of value prefixes reachable by j points summing to s;
    the last point is forced to the running XOR.
    """
    n = f.n
    values = [int(f.table[x]) for x in range(1 << n)]
    level = {x: 1 << values[x] for x in range(1 << n)}
    for j in range(1, k - 1):
        nxt = {}
        shift = 1 << j
        for s, pm in level.items():
            shifted = pm << shift
            for x in range(1 << n):
                add = shifted if values[x] else pm
                nxt[s ^ x] = nxt.get(s ^ x, 0) | add
        level = nxt
    out = 0
    last = 1 << (k - 1)
    for s, pm in level.items():
        out |= pm << last if values[s] else pm
    return out


@lru_cache(maxsize=None)
def dp_masks(n, k):
    return tuple(achieved_patterns(f, k) for f in all_functions(n))


def dp_free(n, k, s, masks=dp_masks):
    """The (C_k, s)-free functions on {0,1}^n, read off the DP masks."""
    bit = index_int(s)
    return frozenset(f for f, mask in zip(all_functions(n), masks(n, k)) if not mask >> bit & 1)


def sigma(s):
    return PatternSpec.from_string(s)


# The families by their definitions: the reference that the generated
# families are held against.

def is_linear_form(f):
    return any(all(int(f.table[x]) == (a & x).bit_count() & 1 for x in range(1 << f.n))
               for a in range(1 << f.n))


def is_subspace(ones):
    return bool(ones) and all(x ^ y in ones for x in ones for y in ones)


def is_affine_subspace(ones):
    return bool(ones) and is_subspace({x ^ min(ones) for x in ones})


BAR_OF = {FamilyId.LIN_BAR: FamilyId.LIN, FamilyId.AFF_BAR: FamilyId.AFF,
          FamilyId.FLIN_BAR: FamilyId.FLIN, FamilyId.FAFF_BAR: FamilyId.FAFF}


def family_contains(f, fam):
    if fam in BAR_OF:
        return family_contains(complement(f), BAR_OF[fam])
    ones = set(f.ones())
    if fam is FamilyId.CONST:
        return len(ones) in (0, 1 << f.n)
    if fam is FamilyId.LIN:
        return len(ones) == 1 << f.n or is_linear_form(f)
    if fam is FamilyId.AFF:
        return is_linear_form(f) or is_linear_form(complement(f))
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
    xor = from_ones(2, [1, 2])
    assert xor in family_members(2, FamilyId.LIN)
    assert xor not in family_members(2, FamilyId.CONST)

    point0 = from_ones(2, [0])
    assert point0 in family_members(2, FamilyId.FLIN)
    assert point0 not in family_members(2, FamilyId.LIN)

    point01 = from_ones(2, [2])
    assert point01 in family_members(2, FamilyId.FAFF)
    assert point01 not in family_members(2, FamilyId.FLIN)


def test_family_constants_and_bars():
    one = constant(3, 1)
    zero = constant(3, 0)
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
                complement(f) for f in family_members(n, fam))


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
            assert classify_sigma(pattern_complement(s)) is COMPLEMENT_PAIR[classify_sigma(s)]


@pytest.mark.parametrize("n, k", [(n, k) for n in (0, 1, 2) for k in (3, 4, 5)]
                         + [(3, 3), (3, 4)])
def test_free_by_weight_against_find_pattern(n, k):
    # the weight table and the DP against the generic exhaustive searcher,
    # every function and every Sigma, monochromatic ones included
    m = graphic_from_graph(cycle_graph(k))
    table = families._free_by_weight(n, k)
    for f, mask in zip(all_functions(n), dp_masks(n, k)):
        for s in all_sigmas(k):
            free = find_pattern(f, m, s) is None
            assert table[s.ones_count, table_int(f)] == free, (f, s)
            assert (not mask >> index_int(s) & 1) == free, (f, s)


def test_free_by_weight_on_float32_products(monkeypatch):
    """At n = 4 both spectra of all 2^16 tables come from float32
    products, every stacked item at m*n*k <= 2^17, and the table equals
    the one read off the int64 butterfly's spectra."""
    tables = np.arange(1 << 16)[:, None] >> np.arange(16) & 1
    f_hat, g_hat = butterfly(tables.copy()), butterfly(1 - tables)
    calls = matmul_items(monkeypatch)
    got = families._free_by_weight.__wrapped__(4, 5)
    assert calls and all(dtype == np.float32 and mnk <= 1 << 17 for dtype, mnk in calls)
    want = [(f_hat ** o * g_hat ** (5 - o)).sum(axis=1) == 0 for o in range(6)]
    assert np.array_equal(got, want)


def test_enumerate_free_examples():
    free = enumerate_free_functions(2, 3, sigma("111"))
    assert constant(2, 0) in free
    assert all(int(f.table[0]) == 0 for f in free)

    free = enumerate_free_functions(2, 3, sigma("110"))
    assert len(free) == 6
    assert free == family_members(2, FamilyId.FLIN)

    free = enumerate_free_functions(2, 4, sigma("0011"))
    assert len(free) == 2


def test_enumerate_free_budget():
    # one cap on n for every k, and k up to CHARACTERIZE_MAX_K + 2
    assert families.CHARACTERIZE_MAX_K + 2 == 14
    assert families._free_by_weight(4, 14).shape == (15, 1 << 16)
    # an even cycle of one repeated point: only the zero function avoids all ones
    assert enumerate_free_functions(4, 14, PatternSpec.all_ones(14)) == {
        constant(4, 0)}
    with pytest.raises(InvalidInputError, match="k <= 14"):
        enumerate_free_functions(4, 15, PatternSpec.all_ones(15))
    for k in (3, 14):
        with pytest.raises(InvalidInputError, match="n <= 4"):
            enumerate_free_functions(5, k, PatternSpec.all_ones(k))


def test_complement_duality_of_free_sets():
    for k in (3, 4):
        for bits in range(1, (1 << k) - 1):
            s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
            free = enumerate_free_functions(2, k, s)
            free_bar = enumerate_free_functions(2, k, pattern_complement(s))
            assert free_bar == frozenset(complement(f) for f in free)


def test_sigma_permutation_invariance_of_free_sets():
    for k in (3, 4, 5):
        for bits in range(1, (1 << k) - 1):
            s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
            base = enumerate_free_functions(2, k, s)
            rotated = PatternSpec(s.sigma[1:] + s.sigma[:1])
            assert enumerate_free_functions(2, k, rotated) == base


def report_doc(rep):
    """A characterization report as plain data, its verdicts as the
    `characterize` command writes them."""
    return {"n": rep.n, "k": rep.k, "mismatches": rep.mismatches,
            "containment_failures": rep.containment_failures,
            "sigma_verdicts": [asdict(v) for v in rep.verdicts]}


def test_verify_characterization_small():
    rep = verify_characterization(2, 3)
    assert len(rep.verdicts) == 6 and rep.mismatches == 0
    rep = verify_characterization(3, 4)
    assert len(rep.verdicts) == 14 and rep.mismatches == 0
    doc = report_doc(rep)
    assert doc["mismatches"] == 0 and len(doc["sigma_verdicts"]) == 14


def reference_characterization(n, k, masks=dp_masks):
    """verify_characterization's report, from the definitions' sweep and
    the DP's free sets."""
    members = {fam: swept_members(n, fam) for fam in FamilyId}
    verdicts, failures = [], []
    for bits in range(1, (1 << k) - 1):
        s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
        free = dp_free(n, k, s, masks)
        fam = families.classify_sigma(s)
        diff = free ^ members[fam]
        verdicts.append({"sigma": str(s), "family": fam.value, "free_count": len(free),
                         "predicted_count": len(members[fam]), "match": not diff,
                         "counterexamples": tuple(sorted(table_int(f) for f in diff))})
        for pad in ((0, 0), (1, 1)):
            padded = PatternSpec(s.sigma + pad)
            outside = dp_free(n, k + 2, padded, masks) - free
            if outside:
                failures.append(f"(C_{k + 2},{padded})-free not within (C_{k},{s})-free: "
                                f"{sorted(table_int(f) for f in outside)}")
    return {"n": n, "k": k, "mismatches": sum(not v["match"] for v in verdicts) + len(failures),
            "containment_failures": failures, "sigma_verdicts": verdicts}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_verify_characterization_matches_reference(n, k):
    assert report_doc(verify_characterization(n, k)) == reference_characterization(n, k)


def test_verify_characterization_reports_disagreements(monkeypatch):
    # a wrong classifier gives counterexamples, and free sets at k + 2
    # that hold every function give containment failures
    table = families._free_by_weight
    monkeypatch.setattr(families, "classify_sigma",
                        lambda s: list(FamilyId)[index_int(s) % len(FamilyId)])
    monkeypatch.setattr(families, "_free_by_weight",
                        lambda n, k: table(n, k) if k == 3 else table(n, k) | True)
    doc = report_doc(verify_characterization(2, 3))
    assert doc["containment_failures"] and any(v["counterexamples"]
                                                for v in doc["sigma_verdicts"])

    def masks(n, k):
        return dp_masks(n, k) if k == 3 else (0,) * (1 << (1 << n))

    assert doc == reference_characterization(2, 3, masks)


def test_characterize_at_n4_is_refused_before_any_family_is_built(monkeypatch, capsys):
    def built(*args):
        raise AssertionError("built")

    monkeypatch.setattr(families, "_family_tables", built)
    monkeypatch.setattr(families, "_free_by_weight", built)
    assert main(["characterize", "-k", "3", "-n", "4"]) == 4
    assert capsys.readouterr().err == "error: characterization capped at n <= 3\n"


def test_characterize_argument_grid(monkeypatch, capsys):
    # every k in -1..15 and n in -1..6 ends in exit 0 or a one-line exit 4,
    # and every refusal comes before any table is built
    calls = []

    def spy(name):
        real = getattr(families, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_family_tables", "_free_by_weight"):
        monkeypatch.setattr(families, name, spy(name))
    for k in range(-1, 16):
        for n in range(-1, 7):
            calls.clear()
            code = main(["characterize", "-k", str(k), "-n", str(n)])
            out, err = capsys.readouterr()
            if 3 <= k <= 12 and 0 <= n <= 3:
                assert code == 0 and err == "" and f'"n": {n}' in out, (k, n)
            else:
                assert code == 4 and calls == [] and out == "", (k, n)
                assert err.startswith("error: ") and err.count("\n") == 1, (k, n)


def test_hierarchy_finiteness():
    # over all k <= 6 and non-monochromatic sigma, at most the nine
    # families appear as free sets
    distinct = set()
    for k in (3, 4, 5, 6):
        for bits in range(1, (1 << k) - 1):
            s = PatternSpec(tuple(bits >> i & 1 for i in range(k)))
            distinct.add(enumerate_free_functions(3, k, s))
    assert len(distinct) <= 9
