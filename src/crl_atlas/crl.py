"""Coincident root strata: degrees, dual degrees, and pullback decompositions.

For a partition lam of r with n parts, Delta_lam denotes the variety of
binary r-forms that factor as a product of linear forms with multiplicities
lam. Its degree, the degree and codimension of its dual, and its polar
degrees have closed product formulas; the decomposition of the rank-map
preimage of the higher contact locus CH_j(Delta_lam), when CH_j is a
hypersurface, into dual hypersurfaces (Delta_mu)^v is generated from the
children of lam. The component multiplicities carry a conjectural status
flag: they are proven for all weights up to 7 (where the full table below
is reproduced exactly) and conjectural beyond.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .partitions import (
    Partition,
    children,
    enumerate_partitions,
    format_partition,
    multiplicity,
)

CONJECTURAL_STATUS = "conjectural (verified for r <= 7)"


def crl_degree(lam: Partition) -> int:
    """Degree of Delta_lam in P^r: n!/(prod of value multiplicities!) * prod(lam)."""
    lam = Partition(lam)
    n = len(lam)
    num = factorial(n)
    for mult in lam.value_multiplicities().values():
        num //= factorial(mult)
    prod = 1
    for p in lam:
        prod *= p
    return num * prod


def dual_codim(lam: Partition) -> int:
    """Codimension of the dual variety of Delta_lam: m1(lam) + 1."""
    return Partition(lam).m1() + 1


def dual_degree(lam: Partition) -> int:
    """Degree of the dual hypersurface (Delta_lam)^v; needs all parts >= 2.

    The formula is (n+1)!/(prod over part values of multiplicity!) times
    prod(lam_i - 1). With any part equal to 1 the dual has codimension
    greater than 1 and no degree in this sense.
    """
    lam = Partition(lam)
    if lam.m1() > 0:
        raise ValueError("dual not a hypersurface: partition has a part equal to 1")
    n = len(lam)
    num = factorial(n + 1)
    for mult in lam.value_multiplicities().values():
        num //= factorial(mult)
    prod = 1
    for p in lam:
        prod *= p - 1
    return num * prod


def is_ch_hypersurface(lam: Partition, j: int) -> bool:
    """Whether CH_j(Delta_lam) is a hypersurface in its Grassmannian: j <= n - m1."""
    lam = Partition(lam)
    return 0 <= j <= len(lam) - lam.m1()


@dataclass(frozen=True)
class DualComponentSum:
    """A union of dual hypersurfaces sum m*(Delta_mu)^v with its source context.

    d is the degree of the forms being pulled back, r the weight of the
    source partition, j the contact order. Terms are canonically sorted in
    descending lexicographic order of mu. Multiplicities are conjectural;
    see the status field.
    """

    d: int
    r: int
    j: int
    terms: tuple[tuple[int, Partition], ...]
    status: str = CONJECTURAL_STATUS

    def __post_init__(self) -> None:
        for mult, mu in self.terms:
            if mult < 1:
                raise ValueError("component multiplicities must be positive")
            if mu.weight != self.d:
                raise ValueError("every mu must be a partition of d")
            if mu.m1() > 0:
                raise ValueError("every mu must have all parts >= 2")

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "j": self.j,
            "terms": [
                {"mult": mult, "mu": list(mu)} for mult, mu in self.terms
            ],
            "status": self.status,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DualComponentSum":
        return cls(
            d=data["d"],
            r=data["r"],
            j=data["j"],
            terms=tuple(
                (t["mult"], Partition(t["mu"])) for t in data["terms"]
            ),
            status=data.get("status", CONJECTURAL_STATUS),
        )

    def to_text(self) -> str:
        def one(mult: int, mu: Partition) -> str:
            body = f"(Delta_({format_partition(mu)}))^v"
            return body if mult == 1 else f"{mult}*{body}"

        return " U ".join(one(m, mu) for m, mu in self.terms)


def pullback_decomposition(lam: Partition, j: int) -> DualComponentSum:
    """Component decomposition of the rank-r locus hitting CH_j(Delta_lam).

    Forms of degree d = sum(lam) + len(lam) - j are pulled back; each child
    lam' of lam contributes the component (Delta_(lam'+1))^v with
    multiplicity m(lam', lam). The set-theoretic components are the mu of
    the terms. Raises when CH_j is not a hypersurface.
    """
    lam = Partition(lam)
    if not is_ch_hypersurface(lam, j):
        raise ValueError("CH_j is not a hypersurface for this partition and j")
    r = lam.weight
    n = len(lam)
    d = r + n - j
    terms = []
    for child in children(lam, j):
        terms.append((multiplicity(child, lam), child.plus_one()))
    terms.sort(key=lambda t: t[1], reverse=True)
    return DualComponentSum(d=d, r=r, j=j, terms=tuple(terms))


def polar_degree(lam: Partition, j: int) -> int:
    """The j-th polar degree of Delta_lam.

    Computed as (n+1)/(n-j+1) times the multiplicity-weighted sum of child
    degrees; zero when j exceeds n - m1(lam). The closed formula rests on
    the conjectural component multiplicities, so a non-integral value means
    the conjecture broke and is reported as an error rather than rounded.
    """
    lam = Partition(lam)
    n = len(lam)
    if j < 0 or j > n:
        raise ValueError("polar degree needs 0 <= j <= len(lam)")
    if j > n - lam.m1():
        return 0
    total = 0
    for child in children(lam, j):
        total += multiplicity(child, lam) * crl_degree(child)
    value = Fraction((n + 1) * total, n - j + 1)
    if value.denominator != 1:
        raise ValueError(
            f"conjecture inconsistency: polar degree {(n + 1) * total}/{n - j + 1} "
            "is not an integer"
        )
    return int(value)


def regenerate_table1(max_r: int) -> list[tuple[Partition, DualComponentSum]]:
    """All pullback decompositions for partitions of weight 3..max_r.

    Rows run over partitions of each r in descending lexicographic order,
    skipping the all-ones partition (its only admissible j is 0 and it
    carries no boundary information), with j ascending from 0 to n - m1.
    """
    rows = []
    for r in range(3, max_r + 1):
        for lam in enumerate_partitions(r):
            if lam.m1() == len(lam):
                continue
            for j in range(0, len(lam) - lam.m1() + 1):
                rows.append((lam, pullback_decomposition(lam, j)))
    return rows
