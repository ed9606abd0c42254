"""Partition combinatorics: enumeration, children, and incidence multiplicities.

A partition is a weakly decreasing tuple of positive integers. The j-th
children of lam (subtract 1 from exactly j distinct positions holding parts
of at least 2, so the length is kept) drive the pullback decompositions
downstream. The multiplicity m(child, lam) counts 0/1 vectors over the
child's positions, padded with zeros up to len(lam), whose entrywise
addition rebuilds lam as a multiset; repeated parts are distinguishable
positions for this count.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    def __new__(cls, parts):
        ps = sorted((int(p) for p in parts), reverse=True)
        if any(p <= 0 for p in ps):
            raise ValueError("partition parts must be positive integers")
        return super().__new__(cls, ps)

    @property
    def weight(self) -> int:
        return sum(self)

    def value_multiplicities(self) -> Counter:
        """How many parts equal each value; m_1 is the count of ones."""
        return Counter(self)

    def m1(self) -> int:
        return sum(1 for p in self if p == 1)

    def plus_one(self) -> "Partition":
        """Add 1 to every part."""
        return Partition(p + 1 for p in self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"


def parse_partition(text: str) -> Partition:
    """Parse "4,3,2,2" or the exponent shorthand "3,2^4"."""
    parts: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty partition component")
        if "^" in chunk:
            base, _, exp = chunk.partition("^")
            parts.extend([int(base)] * int(exp))
        else:
            parts.append(int(chunk))
    if not parts:
        raise ValueError("empty partition")
    return Partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def enumerate_partitions(r: int, min_part: int = 1, length: int | None = None) -> list[Partition]:
    """All partitions of r with parts >= min_part, optionally of exact length.

    Output is in descending lexicographic order, e.g. (8, min 2, length 2)
    gives [(6,2), (5,3), (4,4)]. The list is empty when the constraints are
    unsatisfiable.
    """
    if r < 0 or min_part < 1:
        raise ValueError("need r >= 0 and min_part >= 1")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: list[int], slots: int | None) -> None:
        if remaining == 0:
            if (slots is None or slots == 0) and prefix:
                out.append(Partition(prefix))
            return
        if slots == 0:
            return
        lo = min_part
        hi = min(cap, remaining)
        if slots is not None:
            # the remaining slots-1 parts eat at least min_part each
            hi = min(hi, remaining - min_part * (slots - 1))
        for p in range(hi, lo - 1, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix, None if slots is None else slots - 1)
            prefix.pop()

    if r > 0:
        rec(r, r, [], length)
    return out


def children(lam: Partition, j: int) -> list[Partition]:
    """Subtract 1 from j distinct positions of lam, keeping every part positive.

    Returns the deduplicated set in descending lexicographic order. Only
    positions holding parts >= 2 may be decremented, so this requires
    j <= len(lam) - m1(lam).
    """
    n = len(lam)
    if j > n - lam.m1():
        raise ValueError("children need j <= len(lam) - m1(lam)")
    big = [i for i, p in enumerate(lam) if p >= 2]
    seen = set()
    for positions in combinations(big, j):
        seen.add(Partition(p - 1 if i in positions else p for i, p in enumerate(lam)))
    return sorted(seen, reverse=True)


def multiplicity(child: Partition, lam: Partition) -> int:
    """Number of 0/1 vectors over child's padded positions that rebuild lam.

    The child is padded with zero parts up to len(lam); a vector iota with
    sum(lam) - sum(child) ones counts when the multiset of child_i + iota_i
    equals lam. Positions are distinguishable even when part values repeat,
    which is what makes m((4,2,2,2), (4,3,2,2)) = 3 rather than 1.
    """
    n = len(lam)
    if len(child) > n:
        return 0
    j = lam.weight - child.weight
    if j < 0 or j > n:
        return 0
    padded = list(child) + [0] * (n - len(child))
    target = sorted(lam)
    count = 0
    for positions in combinations(range(n), j):
        bumped = [p + 1 if i in positions else p for i, p in enumerate(padded)]
        if sorted(bumped) == target:
            count += 1
    return count


def count_table(parity: str, max_k: int) -> list[tuple[int, ...]]:
    """Rows k = 3..max_k of partition counts with all parts >= 2.

    For parity "odd", row k counts partitions of d = 2k-1 of length k-1-i
    for i = 0..k-2; for "even", partitions of d = 2k of length k-i for
    i = 0..k-1. These are the lengths that can carry boundary components.
    """
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    if max_k < 3:
        raise ValueError("max_k must be at least 3")
    rows = []
    for k in range(3, max_k + 1):
        if parity == "odd":
            d = 2 * k - 1
            row = tuple(
                len(enumerate_partitions(d, 2, k - 1 - i)) for i in range(k - 1)
            )
        else:
            d = 2 * k
            row = tuple(len(enumerate_partitions(d, 2, k - i)) for i in range(k))
        rows.append(row)
    return rows
