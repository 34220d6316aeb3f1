"""The nine structured families of cycle-free functions, the Sigma
classifier, and exhaustive verification that brute-force freeness
matches the classifier's prediction.

For the k-cycle matroid, assignments of a linear map to the span basis
correspond exactly to k-tuples (x_1..x_k) with zero XOR; the value
pattern achieved by a tuple is packed little-endian (bit i = value at
tuple position i), matching PatternSpec.index_int().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .boolfn import BooleanFunction
from .errors import InvalidInputError
from .gf2 import _rref_add
from .tester import PatternSpec

FREE_ENUM_MAX_N_SMALL_K = 4
FREE_ENUM_MAX_N_LARGE_K = 3
CHARACTERIZE_MAX_K = 12     # verify_characterization walks 2^k - 2 sigmas


class FamilyId(Enum):
    CONST = "Const"
    LIN = "Lin"
    LIN_BAR = "LinBar"
    AFF = "Aff"
    AFF_BAR = "AffBar"
    FLIN = "Flin"
    FLIN_BAR = "FlinBar"
    FAFF = "Faff"
    FAFF_BAR = "FaffBar"


COMPLEMENT_PAIR = {
    FamilyId.CONST: FamilyId.CONST,
    FamilyId.LIN: FamilyId.LIN_BAR,
    FamilyId.LIN_BAR: FamilyId.LIN,
    FamilyId.AFF: FamilyId.AFF,
    FamilyId.AFF_BAR: FamilyId.AFF,
    FamilyId.FLIN: FamilyId.FLIN_BAR,
    FamilyId.FLIN_BAR: FamilyId.FLIN,
    FamilyId.FAFF: FamilyId.FAFF_BAR,
    FamilyId.FAFF_BAR: FamilyId.FAFF,
}


def _is_linear_form(f: BooleanFunction) -> bool:
    """f(x) = <a, x> for some a (includes the zero function)."""
    if f.value(0):
        return False
    a = 0
    for j in range(f.n):
        if f.value(1 << j):
            a |= 1 << j
    xs = np.arange(1 << f.n, dtype=np.int64)
    expected = (np.bitwise_count(xs & a) & 1).astype(np.uint8)
    return bool(np.array_equal(f.table, expected))


def _ones_form_subspace(f: BooleanFunction) -> bool:
    ones = f.ones()
    count = len(ones)
    # a subspace has a power-of-two size; the guard skips the elimination
    # for most functions
    if count == 0 or count & (count - 1):
        return False
    basis: dict[int, int] = {}
    for x in ones:
        _rref_add(basis, x)
    return count == 1 << len(basis)


def _ones_form_affine_subspace(f: BooleanFunction) -> bool:
    ones = f.ones()
    if not ones:
        return False
    t = ones[0]
    translated = BooleanFunction.from_ones(f.n, [x ^ t for x in ones])
    return _ones_form_subspace(translated)


def family_contains(f: BooleanFunction, fam: FamilyId) -> bool:
    if fam is FamilyId.CONST:
        return f.ones_count() in (0, 1 << f.n)
    if fam is FamilyId.LIN:
        return f.ones_count() == 1 << f.n or _is_linear_form(f)
    if fam is FamilyId.LIN_BAR:
        return family_contains(f.complement(), FamilyId.LIN)
    if fam is FamilyId.AFF:
        g = f.complement() if f.value(0) else f
        return _is_linear_form(g)
    if fam is FamilyId.AFF_BAR:
        return family_contains(f.complement(), FamilyId.AFF)
    if fam is FamilyId.FLIN:
        return f.ones_count() == 0 or _ones_form_subspace(f)
    if fam is FamilyId.FLIN_BAR:
        return family_contains(f.complement(), FamilyId.FLIN)
    if fam is FamilyId.FAFF:
        return f.ones_count() == 0 or _ones_form_affine_subspace(f)
    if fam is FamilyId.FAFF_BAR:
        return family_contains(f.complement(), FamilyId.FAFF)
    raise InvalidInputError(f"unknown family {fam!r}")


def family_members(n: int, fam: FamilyId) -> frozenset[BooleanFunction]:
    return frozenset(f for f in all_functions(n) if family_contains(f, fam))


@lru_cache(maxsize=None)
def all_functions(n: int) -> tuple[BooleanFunction, ...]:
    if n > FREE_ENUM_MAX_N_SMALL_K:
        raise InvalidInputError(f"function enumeration capped at n <= {FREE_ENUM_MAX_N_SMALL_K}")
    return tuple(BooleanFunction.from_table_int(n, t) for t in range(1 << (1 << n)))


def classify_sigma(sigma: PatternSpec) -> FamilyId:
    """The family of (C_k, Sigma)-free functions, by the parities of the
    one and zero counts of Sigma.

    The assignment for the count-one cases follows the worked
    observations (Sigma=110 -> Flin, Sigma=100 -> FlinBar-style), which
    the exhaustive oracle confirms; the bare clause list in the source
    theorem states those two swapped.
    """
    k, o, z = sigma.k, sigma.ones_count, sigma.zeros_count
    if k < 3:
        raise InvalidInputError("cycle patterns need k >= 3")
    if o == 0 or z == 0:
        raise InvalidInputError(f"sigma {sigma} is excluded (monochromatic)")
    if o % 2 == 0 and z % 2 == 0:
        return FamilyId.CONST
    if o % 2 == 1 and o > 1 and z % 2 == 0:
        return FamilyId.LIN
    if z % 2 == 1 and z > 1 and o % 2 == 0:
        return FamilyId.LIN_BAR
    if z == 1 and o % 2 == 0:
        return FamilyId.FLIN
    if o == 1 and z % 2 == 0:
        return FamilyId.FLIN_BAR
    if o % 2 == 1 and o > 1 and z % 2 == 1 and z > 1:
        return FamilyId.AFF
    if z == 1 and o % 2 == 1 and o > 1:
        return FamilyId.FAFF
    if o == 1 and z % 2 == 1 and z > 1:
        return FamilyId.FAFF_BAR
    raise AssertionError(f"classification gap for sigma {sigma}")


def _check_enum_budget(n: int, k: int) -> None:
    if k < 3:
        raise InvalidInputError("cycle patterns need k >= 3")
    if n < 0:
        raise InvalidInputError(f"domain dimension {n} must be nonnegative")
    cap = FREE_ENUM_MAX_N_SMALL_K if k <= 4 else FREE_ENUM_MAX_N_LARGE_K
    if n > cap:
        raise InvalidInputError(f"free-set enumeration capped at n <= {cap} for k = {k}")


def achieved_patterns(f: BooleanFunction, k: int) -> int:
    """Bitmask of value patterns achieved by zero-sum k-tuples in f: bit
    sigma.index_int() is set iff f contains (C_k, sigma).

    Dynamic program over tuple prefixes: level j maps each partial XOR s
    to the bitmask of value prefixes reachable by j points summing to s;
    the last point is forced to the running XOR.
    """
    if k < 3:
        raise InvalidInputError("cycle patterns need k >= 3")
    n = f.n
    values = [f.value(x) for x in range(1 << n)]
    level = {x: 1 << values[x] for x in range(1 << n)}
    for j in range(1, k - 1):
        nxt: dict[int, int] = {}
        shift = 1 << j
        for s, pm in level.items():
            shifted = pm << shift
            for x in range(1 << n):
                key = s ^ x
                add = shifted if values[x] else pm
                if key in nxt:
                    nxt[key] |= add
                else:
                    nxt[key] = add
        level = nxt
    out = 0
    last = 1 << (k - 1)
    for s, pm in level.items():
        out |= pm << last if values[s] else pm
    return out


@lru_cache(maxsize=None)
def _achieved_masks(n: int, k: int) -> tuple[int, ...]:
    return tuple(achieved_patterns(f, k) for f in all_functions(n))


def is_cycle_free(f: BooleanFunction, sigma: PatternSpec) -> bool:
    """(C_k, Sigma)-freeness via the prefix DP (k = len(sigma))."""
    return not achieved_patterns(f, sigma.k) >> sigma.index_int() & 1


def enumerate_free_functions(n: int, k: int, sigma: PatternSpec
                             ) -> frozenset[BooleanFunction]:
    """All (C_k, Sigma)-free functions on {0,1}^n, exhaustively."""
    if sigma.k != k:
        raise InvalidInputError(f"sigma length {sigma.k} does not match k={k}")
    _check_enum_budget(n, k)
    masks = _achieved_masks(n, k)
    funcs = all_functions(n)
    bit = sigma.index_int()
    return frozenset(funcs[t] for t in range(len(funcs)) if not masks[t] >> bit & 1)


@dataclass(frozen=True)
class SigmaVerdict:
    sigma: str
    family: str
    free_count: int
    predicted_count: int
    match: bool
    counterexamples: tuple[int, ...]  # table ints of disagreeing functions


@dataclass
class CharacterizationReport:
    n: int
    k: int
    verdicts: list[SigmaVerdict] = field(default_factory=list)
    containment_failures: list[str] = field(default_factory=list)

    @property
    def mismatches(self) -> int:
        return sum(1 for v in self.verdicts if not v.match) + len(self.containment_failures)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "mismatches": self.mismatches,
            "containment_failures": list(self.containment_failures),
            "sigma_verdicts": [
                {
                    "sigma": v.sigma,
                    "family": v.family,
                    "free_count": v.free_count,
                    "predicted_count": v.predicted_count,
                    "match": v.match,
                    "counterexamples": list(v.counterexamples),
                }
                for v in self.verdicts
            ],
        }


def _all_sigmas(k: int):
    for bits in range(1, (1 << k) - 1):
        yield PatternSpec(tuple(bits >> i & 1 for i in range(k)))


def verify_characterization(n: int, k: int) -> CharacterizationReport:
    """Set-equality between the enumerated free sets and the classifier's
    predicted families for every non-monochromatic Sigma, plus the
    padding containments (C_{k+2}, Sigma+00)-free and
    (C_{k+2}, Sigma+11)-free within (C_k, Sigma)-free."""
    _check_enum_budget(n, k)
    if k > CHARACTERIZE_MAX_K:
        raise InvalidInputError(f"characterization capped at k <= {CHARACTERIZE_MAX_K}")
    _check_enum_budget(n, k + 2)
    report = CharacterizationReport(n=n, k=k)
    for sigma in _all_sigmas(k):
        free = enumerate_free_functions(n, k, sigma)
        fam = classify_sigma(sigma)
        predicted = family_members(n, fam)
        diff = free.symmetric_difference(predicted)
        report.verdicts.append(SigmaVerdict(
            sigma=str(sigma),
            family=fam.value,
            free_count=len(free),
            predicted_count=len(predicted),
            match=not diff,
            counterexamples=tuple(sorted(f.table_int() for f in diff)),
        ))
        for pad in ((0, 0), (1, 1)):
            padded = PatternSpec(sigma.sigma + pad)
            padded_free = enumerate_free_functions(n, k + 2, padded)
            if not padded_free <= free:
                bad = sorted(f.table_int() for f in padded_free - free)
                report.containment_failures.append(
                    f"(C_{k + 2},{padded})-free not within (C_{k},{sigma})-free: {bad}")
    return report
