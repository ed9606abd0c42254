"""Degrees, dual degrees, polar degrees, and pullback decompositions."""
import pytest

from crl_atlas import reference_tables
from crl_atlas.crl import (
    CONJECTURAL_STATUS,
    DualComponentSum,
    crl_degree,
    dual_codim,
    dual_degree,
    is_ch_hypersurface,
    polar_degree,
    pullback_decomposition,
    regenerate_table1,
)
from crl_atlas.partitions import Partition, enumerate_partitions


def P(*parts) -> Partition:
    return Partition(parts)


class TestCrlDegree:
    def test_single_part_collapses_to_that_part(self):
        for r in range(1, 12):
            assert crl_degree(P(r)) == r

    def test_worked_values(self):
        assert crl_degree(P(4, 3, 2, 1)) == 576
        assert crl_degree(P(4, 2, 2, 2)) == 128
        assert crl_degree(P(3, 3, 2, 2)) == 216

    def test_hook_shapes(self):
        for n in range(1, 8):
            lam = Partition([2] + [1] * (n - 1))
            assert crl_degree(lam) == 2 * n


class TestDualDegree:
    def test_worked_values(self):
        assert dual_degree(P(5, 4, 3, 2)) == 2880
        assert dual_degree(P(5, 3, 3, 3)) == 640
        assert dual_degree(P(4, 4, 3, 3)) == 1080

    def test_part_equal_to_one_rejected(self):
        with pytest.raises(ValueError, match="not a hypersurface"):
            dual_degree(P(3, 2, 1))

    def test_single_part_gives_classical_discriminant_degree(self):
        for k in range(2, 11):
            assert dual_degree(P(k)) == 2 * (k - 1)


class TestDualCodim:
    def test_values(self):
        assert dual_codim(P(2, 2)) == 1
        assert dual_codim(P(2, 1)) == 2
        assert dual_codim(P(1, 1, 1)) == 4

    def test_hypersurface_iff_no_ones(self):
        for r in range(2, 9):
            for lam in enumerate_partitions(r):
                assert (dual_codim(lam) == 1) == (lam.m1() == 0)


class TestIsChHypersurface:
    def test_no_ones(self):
        assert is_ch_hypersurface(P(3, 2), 2)
        assert not is_ch_hypersurface(P(3, 2), 3)

    def test_with_ones(self):
        assert is_ch_hypersurface(P(2, 1), 1)
        assert not is_ch_hypersurface(P(2, 1), 2)
        assert is_ch_hypersurface(P(2, 1, 1), 1)


class TestPullbackDecomposition:
    def test_two_component_example(self):
        out = pullback_decomposition(P(3, 2), 1)
        assert (out.d, out.r, out.j) == (6, 5, 1)
        assert out.terms == ((1, P(4, 2)), (2, P(3, 3)))

    def test_hook_shape_single_component(self):
        for n in range(2, 6):
            lam = Partition([2] + [1] * (n - 1))
            out = pullback_decomposition(lam, 1)
            assert out.terms == ((n, Partition([2] * n)),)
            assert out.d == 2 * n

    def test_three_component_example(self):
        out = pullback_decomposition(P(4, 3, 2, 2), 1)
        assert out.terms == (
            (1, P(5, 4, 3, 2)),
            (3, P(5, 3, 3, 3)),
            (2, P(4, 4, 3, 3)),
        )

    def test_non_hypersurface_rejected(self):
        with pytest.raises(ValueError, match="not a hypersurface"):
            pullback_decomposition(P(2, 1), 2)

    def test_component_partitions_sum_to_d(self):
        for r in range(3, 9):
            for lam in enumerate_partitions(r):
                for j in range(0, len(lam) - lam.m1() + 1):
                    out = pullback_decomposition(lam, j)
                    for mult, mu in out.terms:
                        assert mult >= 1
                        assert mu.weight == out.d
                        assert mu.m1() == 0


class TestPolarDegree:
    def test_worked_value(self):
        assert polar_degree(P(4, 3, 2, 2), 1) == 1740

    def test_j_zero_recovers_degree(self):
        for r in range(2, 10):
            for lam in enumerate_partitions(r):
                assert polar_degree(lam, 0) == crl_degree(lam)

    def test_zero_beyond_hypersurface_range(self):
        assert polar_degree(P(2, 1), 2) == 0

    def test_degree_sum_identity(self):
        # (n - j + 1) * polar degree equals the multiplicity-weighted sum
        # of the component dual degrees, for every admissible (lam, j)
        checked = 0
        for r in range(2, 10):
            for lam in enumerate_partitions(r):
                n = len(lam)
                for j in range(0, n - lam.m1() + 1):
                    out = pullback_decomposition(lam, j)
                    lhs = (n - j + 1) * polar_degree(lam, j)
                    rhs = sum(m * dual_degree(mu) for m, mu in out.terms)
                    assert lhs == rhs, (lam, j)
                    checked += 1
        assert checked > 100

    def test_worked_identity_instance(self):
        assert 1 * 2880 + 3 * 640 + 2 * 1080 == 4 * 1740


class TestDualComponentSum:
    def test_json_roundtrip(self):
        out = pullback_decomposition(P(4, 3, 2, 2), 1)
        data = out.to_json()
        assert DualComponentSum.from_json(data) == out
        assert data["terms"][0] == {"mult": 1, "mu": [5, 4, 3, 2]}

    def test_text_rendering(self):
        out = pullback_decomposition(P(3, 2), 1)
        assert out.to_text() == "(Delta_(4,2))^v U 2*(Delta_(3,3))^v"

    def test_status_is_flagged_conjectural(self):
        out = pullback_decomposition(P(3, 2), 1)
        assert out.status == CONJECTURAL_STATUS
        assert "conjectural" in out.status

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            DualComponentSum(d=6, r=5, j=1, terms=((0, P(4, 2)),))
        with pytest.raises(ValueError):
            DualComponentSum(d=6, r=5, j=1, terms=((1, P(4, 3)),))
        with pytest.raises(ValueError):
            DualComponentSum(d=6, r=5, j=1, terms=((1, P(4, 1, 1)),))


class TestRegenerateTable1:
    def test_matches_frozen_fixture(self):
        rows = regenerate_table1(7)
        assert len(rows) == len(reference_tables.DECOMPOSITIONS)
        for (lam, dcs), ref in zip(rows, reference_tables.DECOMPOSITIONS):
            ref_lam, ref_j, ref_d, ref_r, ref_terms = ref
            assert tuple(lam) == ref_lam
            assert (dcs.j, dcs.d, dcs.r) == (ref_j, ref_d, ref_r)
            assert tuple((m, tuple(mu)) for m, mu in dcs.terms) == ref_terms

    def test_spot_rows(self):
        rows = {(tuple(lam), dcs.j): dcs for lam, dcs in regenerate_table1(7)}
        assert rows[((2, 2, 1), 2)].terms == ((3, P(2, 2, 2)),)
        assert rows[((2, 2, 1), 2)].d == 6 and rows[((2, 2, 1), 2)].r == 5
        assert rows[((3, 2, 2), 1)].terms == ((1, P(4, 3, 2)), (3, P(3, 3, 3)))
        assert rows[((7,), 1)].terms == ((1, P(7)),)
        assert rows[((7,), 1)].d == 7 and rows[((7,), 1)].r == 7

    def test_small_bound(self):
        rows = regenerate_table1(3)
        assert len(rows) == 4
        lams = [tuple(lam) for lam, _ in rows]
        assert lams == [(3,), (3,), (2, 1), (2, 1)]
