"""Partition combinatorics: enumeration, descendants, multiplicities, counts."""
from math import comb

import pytest

from crl_atlas.partitions import (
    Partition,
    children,
    count_table,
    enumerate_partitions,
    format_partition,
    multiplicity,
    parse_partition,
)

from oracles import aut, descendants, padded_aut, subtraction_count


def P(*parts) -> Partition:
    return Partition(parts)


class TestPartitionType:
    def test_canonical_descending_order(self):
        assert tuple(Partition([2, 3, 1])) == (3, 2, 1)

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition([3, 0])
        with pytest.raises(ValueError):
            Partition([-1])

    def test_weight_and_m1(self):
        lam = P(4, 3, 2, 2)
        assert lam.weight == 11
        assert lam.m1() == 0
        assert P(2, 1, 1).m1() == 2

    def test_aut_counts_repeated_values(self):
        assert aut(P(4, 3, 2, 2)) == 2
        assert aut(P(2, 2, 2)) == 6
        assert aut(P(3, 2, 1)) == 1

    def test_padded_aut_extends_with_zero_parts(self):
        assert padded_aut(P(2), 3) == 2  # one part, two padding zeros
        with pytest.raises(ValueError):
            padded_aut(P(2, 2), 1)

    def test_plus_one(self):
        assert P(3, 1).plus_one() == P(4, 2)


class TestParseFormat:
    def test_plain_list(self):
        assert parse_partition("4,3,2,2") == P(4, 3, 2, 2)

    def test_exponent_shorthand(self):
        assert parse_partition("3,2^4") == P(3, 2, 2, 2, 2)

    def test_roundtrip(self):
        lam = P(5, 4, 3, 2)
        assert parse_partition(format_partition(lam)) == lam

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_partition("")
        with pytest.raises(ValueError):
            parse_partition("3,,2")


class TestEnumerate:
    def test_weight8_min2_length2(self):
        assert enumerate_partitions(8, 2, 2) == [P(6, 2), P(5, 3), P(4, 4)]

    def test_weight13_min2_length6(self):
        assert enumerate_partitions(13, 2, 6) == [P(3, 2, 2, 2, 2, 2)]

    def test_impossible_constraints_give_empty(self):
        assert enumerate_partitions(3, 2, 2) == []

    def test_all_partitions_of_6(self):
        out = enumerate_partitions(6)
        assert len(out) == 11
        assert out[0] == P(6)
        assert out[-1] == P(1, 1, 1, 1, 1, 1)

    def test_output_is_sorted_and_unique(self):
        for r in range(1, 10):
            out = enumerate_partitions(r, 2)
            assert out == sorted(set(out), reverse=True)
            assert all(lam.weight == r and min(lam) >= 2 for lam in out)


class TestDescendants:
    def test_part_can_drop_out(self):
        assert set(descendants(P(2, 1), 1)) == {P(1, 1), P(2)}

    def test_four_part_example(self):
        got = set(descendants(P(4, 3, 2, 2), 1))
        assert got == {P(3, 3, 2, 2), P(4, 2, 2, 2), P(4, 3, 2, 1)}

    def test_all_positions_decremented(self):
        assert descendants(P(2, 2), 2) == [P(1, 1)]

    def test_j_zero_is_identity(self):
        assert descendants(P(3, 2), 0) == [P(3, 2)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            descendants(P(3, 2), 3)
        with pytest.raises(ValueError):
            descendants(P(3, 2), -1)


class TestChildren:
    def test_keeps_length(self):
        assert set(children(P(3, 2), 1)) == {P(2, 2), P(3, 1)}

    def test_hook_shape_single_child(self):
        for n in range(2, 6):
            lam = Partition([2] + [1] * (n - 1))
            assert children(lam, 1) == [Partition([1] * n)]

    def test_j_zero_identity(self):
        assert children(P(2, 2), 0) == [P(2, 2)]

    def test_requires_enough_big_parts(self):
        with pytest.raises(ValueError):
            children(P(2, 1), 2)

    def test_subset_of_descendants_with_equality_iff_no_ones(self):
        for r in range(2, 9):
            for lam in enumerate_partitions(r):
                for j in range(0, len(lam) - lam.m1() + 1):
                    ch = set(children(lam, j))
                    de = set(descendants(lam, j))
                    assert ch <= de
                    if j == 0 or lam.m1() == 0:
                        assert ch == de


class TestMultiplicity:
    def test_worked_values(self):
        lam = P(4, 3, 2, 2)
        assert multiplicity(P(4, 2, 2, 2), lam) == 3
        assert multiplicity(P(3, 3, 2, 2), lam) == 2

    def test_hook_shape(self):
        for n in range(2, 7):
            lam = Partition([2] + [1] * (n - 1))
            assert multiplicity(Partition([1] * n), lam) == n

    def test_zero_for_non_descendant(self):
        assert multiplicity(P(5), P(3, 2)) == 0
        assert multiplicity(P(2, 2), P(4, 3)) == 0

    def test_positive_iff_descendant(self):
        for r in range(2, 9):
            lam_list = enumerate_partitions(r)
            for lam in lam_list:
                for j in range(0, len(lam) + 1):
                    dset = set(descendants(lam, j))
                    for weight in (r - j,):
                        if weight < 1:
                            continue
                        for cand in enumerate_partitions(weight):
                            hit = multiplicity(cand, lam) >= 1
                            assert hit == (cand in dset)


class TestCountingIdentities:
    def test_subtraction_counts_sum_to_binomial(self):
        for r in range(2, 10):
            for lam in enumerate_partitions(r):
                n = len(lam)
                for j in range(0, n + 1):
                    total = sum(
                        subtraction_count(child, lam)
                        for child in descendants(lam, j)
                    )
                    # subsets where every part dies contribute no partition
                    lost = 1 if j == n and all(p == 1 for p in lam) else 0
                    assert total + lost == comb(n, j)

    def test_multiplicity_vs_subtraction_count_conversion(self):
        # the two counts describe the same matchings from opposite ends:
        # m(child, lam) * aut(lam) == sc(child, lam) * padded_aut(child)
        for r in range(2, 10):
            for lam in enumerate_partitions(r):
                n = len(lam)
                for j in range(0, n + 1):
                    for child in map(Partition, descendants(lam, j)):
                        lhs = multiplicity(child, lam) * aut(lam)
                        rhs = subtraction_count(child, lam) * padded_aut(child, n)
                        assert lhs == rhs, (lam, j, child)


class TestCountTable:
    def test_odd_row_k7(self):
        rows = count_table("odd", 7)
        assert rows[-1] == (1, 3, 6, 8, 5, 1)

    def test_even_row_k4(self):
        rows = count_table("even", 4)
        assert rows[-1] == (1, 2, 3, 1)

    def test_even_row_k3(self):
        assert count_table("even", 3) == [(1, 2, 1)]

    def test_row_entries_recount_enumerations(self):
        for k, row in zip(range(3, 9), count_table("odd", 8)):
            d = 2 * k - 1
            for i, entry in enumerate(row):
                assert entry == len(enumerate_partitions(d, 2, k - 1 - i))
        for k, row in zip(range(3, 9), count_table("even", 8)):
            d = 2 * k
            for i, entry in enumerate(row):
                assert entry == len(enumerate_partitions(d, 2, k - i))

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            count_table("weird", 5)
        with pytest.raises(ValueError):
            count_table("odd", 2)
