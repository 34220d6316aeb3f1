"""The nine structured families of cycle-free functions, the Sigma
classifier, and exhaustive verification that the free sets of all
2^(2^n) functions match the classifier's prediction.

A function is handled here as its table int: bit x is f(x), with point
x at index sum_j x_j 2^j. The families are generated, not swept for:
the linear forms directly, and the subspace and affine subspace
indicators from `gf2.enumerate_subspaces` and the coset tables of
`boolfn.coset_indices`.

The free sets come from the Fourier side. With F and G the unnormalized
spectra of f and g = 1 - f, the number of zero-sum k-tuples
(x_1..x_k) with f(x_i) = sigma_i is 2^-n * sum_a F(a)^o * G(a)^(k-o),
o the number of ones of Sigma. So (C_k, Sigma)-freeness depends only on
that weight, and one table row per weight o = 0..k holds every free
set. |F|, |G| <= 2^n, so each of the 2^n terms is at most 2^(nk) and
the sum stays below 2^(n(k+1)) <= 2^60 for n <= 4 and k <= 14: exact in
int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .boolfn import _hadamard, coset_indices
from .errors import InvalidInputError
from .gf2 import enumerate_subspaces
from .tester import PatternSpec

FREE_ENUM_MAX_N = 4
CHARACTERIZE_MAX_K = 12     # verify_characterization walks 2^k - 2 sigmas
CHARACTERIZE_MAX_N = 3      # perfbench times `characterize -n 4` as an exit-4 refusal


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


def _family_tables(n: int) -> dict[FamilyId, frozenset[int]]:
    """Every family on {0,1}^n as a set of table ints (bit x is f(x)).

    The linear forms x -> <a, x> and the subspace indicators are built
    directly: row 0 of `coset_indices(H)` is H itself and its other rows
    are the cosets of H, so the subspaces of every codimension give Flin
    and all their rows give Faff. A bar family holds the complements of
    its COMPLEMENT_PAIR partner.
    """
    if not 0 <= n <= FREE_ENUM_MAX_N:
        raise InvalidInputError(f"function enumeration capped at n <= {FREE_ENUM_MAX_N}")
    size = 1 << n
    full = (1 << size) - 1
    forms = {sum(((a & x).bit_count() & 1) << x for x in range(size)) for a in range(size)}
    flats = [[sum(1 << int(x) for x in row) for row in coset_indices(sub)]
             for codim in range(n + 1) for sub in enumerate_subspaces(n, codim)]
    tables = {
        FamilyId.CONST: {0, full},
        FamilyId.LIN: forms | {full},
        FamilyId.AFF: forms | {full ^ t for t in forms},
        FamilyId.FLIN: {0} | {rows[0] for rows in flats},
        FamilyId.FAFF: {0} | {t for rows in flats for t in rows},
    }
    for fam, partner in COMPLEMENT_PAIR.items():
        if fam not in tables:
            tables[fam] = {full ^ t for t in tables[partner]}
    return {fam: frozenset(ts) for fam, ts in tables.items()}


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
    if n > FREE_ENUM_MAX_N:
        raise InvalidInputError(f"free-set enumeration capped at n <= {FREE_ENUM_MAX_N}")
    if k > CHARACTERIZE_MAX_K + 2:
        raise InvalidInputError(f"free-set enumeration capped at k <= {CHARACTERIZE_MAX_K + 2}")


@lru_cache(maxsize=None)
def _free_by_weight(n: int, k: int) -> np.ndarray:
    """Boolean (k + 1, 2^(2^n)) table: entry [o, t] says whether the
    function with table int t is (C_k, Sigma)-free for the Sigmas with o
    ones. Both spectra of every function come from one row-wise
    float32 `_hadamard` each, exact as every value is within 2^n; the
    int64 bound of the power sums is in the module docstring."""
    _check_enum_budget(n, k)
    size = 1 << n
    tables = np.arange(1 << size)[:, None] >> np.arange(size) & 1
    g_hat = _hadamard(1 - tables, np.float32).astype(np.int64)
    f_hat = _hadamard(tables, np.float32).astype(np.int64)
    free = np.array([(f_hat ** o * g_hat ** (k - o)).sum(axis=1) == 0 for o in range(k + 1)])
    free.flags.writeable = False
    return free


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


def _all_sigmas(k: int):
    for bits in range(1, (1 << k) - 1):
        yield PatternSpec(tuple(bits >> i & 1 for i in range(k)))


def verify_characterization(n: int, k: int) -> CharacterizationReport:
    """Set-equality between the enumerated free sets and the classifier's
    predicted families for every non-monochromatic Sigma, plus the
    padding containments (C_{k+2}, Sigma+00)-free and
    (C_{k+2}, Sigma+11)-free within (C_k, Sigma)-free. Each free set is
    read once per weight of Sigma."""
    _check_enum_budget(n, k)
    if k > CHARACTERIZE_MAX_K:
        raise InvalidInputError(f"characterization capped at k <= {CHARACTERIZE_MAX_K}")
    if n > CHARACTERIZE_MAX_N:
        raise InvalidInputError(f"characterization capped at n <= {CHARACTERIZE_MAX_N}")
    families = _family_tables(n)
    free, padded = ([frozenset(np.flatnonzero(row).tolist()) for row in _free_by_weight(n, j)]
                    for j in (k, k + 2))
    report = CharacterizationReport(n=n, k=k)
    for sigma in _all_sigmas(k):
        o = sigma.ones_count
        fam = classify_sigma(sigma)
        predicted = families[fam]
        report.verdicts.append(SigmaVerdict(
            sigma=str(sigma),
            family=fam.value,
            free_count=len(free[o]),
            predicted_count=len(predicted),
            match=free[o] == predicted,
            counterexamples=tuple(sorted(free[o] ^ predicted)),
        ))
        for pad in ((0, 0), (1, 1)):
            outside = padded[o + sum(pad)] - free[o]
            if outside:
                report.containment_failures.append(
                    f"(C_{k + 2},{PatternSpec(sigma.sigma + pad)})-free not within "
                    f"(C_{k},{sigma})-free: {sorted(outside)}")
    return report
