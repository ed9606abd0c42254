"""Boundary candidates, dual membership, and segment crossing scans."""
import random
from fractions import Fraction as F
from math import comb

import pytest

from crl_atlas.apolarity import apply_operator, is_generic_degrees
from crl_atlas.boundary import (
    EXPECTED_SHARP,
    THEOREM_EXACT,
    THEOREM_SUPERSET,
    candidate_components,
    crossing_scan,
    dual_membership,
)
from crl_atlas.config import RunConfig
from crl_atlas.poly_core import (
    BinaryForm,
    discriminant,
    isolate_real_roots,
    uv_count_real_roots,
    uv_eval,
    uv_interpolate,
)
from crl_atlas.rank import real_rank

from oracles import annihilated_forms, form_mul, oracle_is_real_rooted, random_form


def form(*cs) -> BinaryForm:
    coeffs = tuple(F(c) for c in cs)
    return BinaryForm(len(coeffs) - 1, coeffs)


def typical_ranks(d: int) -> range:
    lo = (d + 2) // 2 if d % 2 == 0 else (d + 1) // 2
    return range(lo, d + 1)


class TestCandidateComponents:
    def test_proven_cases_are_exact_in_both_modes(self):
        for d, r, expected in [
            (5, 5, [(5,)]),
            (4, 3, [(4,)]),
            (6, 4, [(4, 2), (3, 3)]),
            (6, 6, [(6,)]),
            (8, 5, [(4, 2, 2), (3, 3, 2)]),
        ]:
            for mode in ("theorem", "expected"):
                cs = candidate_components(d, r, mode)
                assert [tuple(mu) for mu in cs.partitions] == expected
                assert all(prov == THEOREM_EXACT for _, prov in cs.members)

    def test_unproven_mid_ranks_carry_mode_provenance(self):
        theorem = candidate_components(7, 5, "theorem")
        expected = candidate_components(7, 5, "expected")
        assert [tuple(mu) for mu in theorem.partitions] == [(5, 2), (4, 3), (3, 2, 2)]
        assert all(prov == THEOREM_SUPERSET for _, prov in theorem.members)
        assert [tuple(mu) for mu in expected.partitions] == [(5, 2), (4, 3), (3, 2, 2)]
        assert all(prov == EXPECTED_SHARP for _, prov in expected.members)

    def test_expected_mode_drops_all_twos_for_even_degree(self):
        theorem = candidate_components(6, 5, "theorem")
        expected = candidate_components(6, 5, "expected")
        assert (2, 2, 2) in [tuple(mu) for mu in theorem.partitions]
        assert [tuple(mu) for mu in expected.partitions] == [(6,), (4, 2), (3, 3)]

    def test_expected_is_contained_in_theorem(self):
        for d in range(3, 9):
            for r in typical_ranks(d):
                theorem = set(candidate_components(d, r, "theorem").partitions)
                expected = set(candidate_components(d, r, "expected").partitions)
                assert expected <= theorem

    def test_candidates_partition_the_degree_with_parts_at_least_two(self):
        for d in range(3, 9):
            for r in typical_ranks(d):
                for mu in candidate_components(d, r, "theorem").partitions:
                    assert mu.weight == d
                    assert all(p >= 2 for p in mu)

    def test_to_json_shape(self):
        out = candidate_components(7, 5, "theorem").to_json()
        assert out["d"] == 7 and out["r"] == 5 and out["mode"] == "theorem"
        assert out["candidates"][0] == {"mu": "5,2", "provenance": "theorem-superset"}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="not a typical rank"):
            candidate_components(5, 2)
        with pytest.raises(ValueError, match="not a typical rank"):
            candidate_components(4, 5)
        with pytest.raises(ValueError, match="degree must be at least 3"):
            candidate_components(2, 2)
        with pytest.raises(ValueError, match="mode"):
            candidate_components(5, 4, "guess")


class TestDualMembership:
    def test_on_example_with_finite_and_infinite_roots(self):
        f = form(1, 0, 0, 0, 1, 0)  # x^5 + x y^4, annihilated by Dx^2 Dy
        report = dual_membership(f, (3, 2))
        assert report.verdict == "on"
        assert report.residual < 1e-10
        assert report.witness_roots[0] == pytest.approx(0.0, abs=1e-9)
        assert report.witness_roots[1] is None

    def test_on_example_single_block(self):
        f = BinaryForm.from_roots([F(0), F(0), F(1), F(2), F(3)])
        report = dual_membership(f, (5,))
        assert report.verdict == "on"
        assert report.residual < 1e-10
        assert report.witness_roots == (None,)

    def test_off_example(self):
        f = form(-2, 0, -6, 3, 6, -5)
        report = dual_membership(f, (3, 2))
        assert report.verdict == "off"
        assert report.residual > 1e-3

    def test_verdict_invariant_under_scaling(self):
        f = form(1, 0, 0, 0, 1, 0)
        base = dual_membership(f, (3, 2))
        for s in (F(-3), F(1, 7), F(1000)):
            scaled = dual_membership(f.scale(s), (3, 2))
            assert scaled.verdict == base.verdict
            assert scaled.residual == pytest.approx(base.residual, abs=1e-12)

    def test_verdict_invariant_under_swap(self):
        for coeffs, mu in [
            ((1, 0, 0, 0, 1, 0), (3, 2)),
            ((-2, 0, -6, 3, 6, -5), (3, 2)),
        ]:
            f = form(*coeffs)
            assert dual_membership(f.swap_xy(), mu).verdict == dual_membership(f, mu).verdict

    def test_rejects_zero_form_and_malformed_mu(self):
        with pytest.raises(ValueError, match="zero form"):
            dual_membership(BinaryForm.zero(5), (3, 2))
        f = form(1, 0, 0, 0, 1, 0)
        with pytest.raises(ValueError, match="at least 2"):
            dual_membership(f, (4, 1))
        with pytest.raises(ValueError, match="sum to the degree"):
            dual_membership(f, (3, 3))

    def test_report_json_shape(self):
        out = dual_membership(form(1, 0, 0, 0, 1, 0), (3, 2)).to_json()
        assert set(out) == {
            "mu",
            "verdict",
            "residual",
            "witness_roots",
            "witness_form",
            "tol_on",
            "tol_off",
        }
        assert out["mu"] == "3,2"
        assert out["witness_roots"][1] == "inf"
        norm = sum(c * c for c in out["witness_form"]) ** 0.5
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_tolerance_overrides_are_respected(self):
        f = form(1, 0, 0, 0, 1, 0)
        strict = dual_membership(f, (3, 2), RunConfig(tol_on=1e-30, tol_off=1e-20))
        assert strict.verdict == "off"
        assert strict.tol_on == 1e-30 and strict.tol_off == 1e-20
        band = dual_membership(f, (3, 2), RunConfig(tol_on=1e-30, tol_off=0.5))
        assert band.verdict == "inconclusive"

    def test_deterministic_reports(self):
        f = form(-2, 0, -6, 3, 6, -5)
        first = dual_membership(f, (3, 2))
        second = dual_membership(f, (3, 2))
        assert first == second


def forms_annihilated_by_pattern(rng, mu):
    """A random form killed by q = prod (x - t_i y)^(mu_i - 1), plus q."""
    d = sum(mu)
    while True:
        roots = []
        while len(roots) < len(mu):
            t = F(rng.randint(-6, 6), rng.randint(1, 3))
            if t not in roots:
                roots.append(t)
        q = BinaryForm(0, (F(1),))
        for t, m in zip(roots, mu):
            q = form_mul(q, BinaryForm.from_roots([t] * (m - 1)))
        basis = annihilated_forms(q, d)
        weights = [F(rng.randint(-5, 5)) for _ in basis]
        coeffs = tuple(
            sum((w * b.coeffs[i] for w, b in zip(weights, basis)), F(0))
            for i in range(d + 1)
        )
        if any(coeffs):
            return BinaryForm(d, coeffs), q


class TestMembershipCatalog:
    @pytest.mark.parametrize("mu", [(3, 2), (4, 3), (3, 3), (4, 2, 2), (3, 3, 2)])
    def test_constructed_members_come_back_on(self, mu):
        rng = random.Random(sum(mu) * 100 + len(mu))
        for _ in range(50):
            f, q = forms_annihilated_by_pattern(rng, mu)
            assert apply_operator(q, f).is_zero
            report = dual_membership(f, mu)
            assert report.verdict == "on", (mu, f.coeffs, report.residual)


def quartic_segment():
    f_from = form(2, 4, 6, 4, 2)  # x^4 + y^4 + (x + y)^4, real rank 3
    f_to = BinaryForm.from_roots([F(1), F(2), F(3), F(4)])  # real rank 4
    return f_from, f_to


def segment_form(f_from, f_to, eps):
    return f_from.scale(1 - eps) + f_to.scale(eps)


class TestCrossingScan:
    def test_rejects_bad_segments(self):
        f_from, f_to = quartic_segment()
        with pytest.raises(ValueError, match="steps must be at least 1"):
            crossing_scan(f_from, f_to, 0)
        with pytest.raises(ValueError, match="degree mismatch"):
            crossing_scan(f_from, BinaryForm.from_roots([F(1), F(2), F(3)]), 10)
        x4 = form(1, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="f_from: annihilator is not generated"):
            crossing_scan(x4, f_to, 10)
        with pytest.raises(ValueError, match="f_to: annihilator is not generated"):
            crossing_scan(f_from, x4, 10)

    def test_quartic_segment_has_one_certified_crossing(self):
        f_from, f_to = quartic_segment()
        assert real_rank(f_from).value == 3
        assert real_rank(f_to).value == 4
        events = crossing_scan(f_from, f_to, 60)
        assert len(events) == 1
        event = events[0]
        assert (event.r_left, event.r_right) == (3, 4)
        assert F(0) < event.eps_lo < event.eps_hi < F(1)
        assert event.eps_hi - event.eps_lo <= F(1, 10**10)
        assert not event.anomaly
        assert [tuple(m.mu) for m in event.memberships] == [(4,)]
        assert event.memberships[0].verdict == "on"
        assert event.memberships[0].residual < 1e-8

    def test_crossing_lies_on_exact_discriminant_locus(self):
        # Rank changes of a quartic segment happen where the discriminant
        # of the path form vanishes; interpolate it exactly in eps and
        # check each bracket against a Sturm count.
        f_from, f_to = quartic_segment()
        nodes = [F(k, 7) for k in range(9)]
        disc = uv_interpolate(
            [(t, discriminant(segment_form(f_from, f_to, t))) for t in nodes]
        )
        assert len(disc) - 1 == 6
        probe = F(5, 11)
        assert uv_eval(disc, probe) == discriminant(segment_form(f_from, f_to, probe))
        pad = F(1, 10**8)
        for event in crossing_scan(f_from, f_to, 60):
            hits = uv_count_real_roots(disc, event.eps_lo - pad, event.eps_hi + pad)
            assert hits >= 1

    def test_rank_constant_between_events(self):
        f_from, f_to = quartic_segment()
        events = crossing_scan(f_from, f_to, 60)
        assert len(events) == 1
        lo, hi = events[0].eps_lo, events[0].eps_hi
        for eps in (F(1, 3), F(1, 2), lo - F(1, 100), lo - F(1, 1000)):
            assert real_rank(segment_form(f_from, f_to, eps)).value == 3
        for eps in (hi + F(1, 10**6), F(9999, 10000), F(1)):
            assert real_rank(segment_form(f_from, f_to, eps)).value == 4

    def test_threaded_scan_matches_serial(self):
        # every quartic rank is exact; the quintic's rank-4 points are
        # found by the randomized search, where worker count must not matter
        quintic = (
            form(2, 10, 40, 80, 80, 33),  # x^5 + (x+2y)^5 + y^5
            BinaryForm.from_roots([F(i) for i in range(1, 6)]),
        )
        key = lambda e: (e.eps_lo, e.eps_hi, e.r_left, e.r_right,
                         tuple(m.verdict for m in e.memberships))
        for (f_from, f_to), config, walls in (
            (quartic_segment(), RunConfig(), {(3, 4)}),
            (quintic, RunConfig(rank_samples=500, multistarts=12), {(3, 4), (4, 5)}),
        ):
            serial = crossing_scan(f_from, f_to, 24, config)
            threaded = crossing_scan(f_from, f_to, 24, config, threads=2)
            assert [key(e) for e in serial] == [key(e) for e in threaded]
            assert {(e.r_left, e.r_right) for e in serial} == walls

    def test_event_json_shape(self):
        f_from, f_to = quartic_segment()
        out = crossing_scan(f_from, f_to, 60)[0].to_json()
        assert set(out) == {
            "eps_lo",
            "eps_hi",
            "eps_mid",
            "r_left",
            "r_right",
            "anomaly",
            "memberships",
        }
        assert out["r_left"] == 3 and out["r_right"] == 4
        assert out["memberships"][0]["mu"] == "4"
        assert F(out["eps_lo"]) <= F(out["eps_hi"])


def power_sum(directions, d: int) -> BinaryForm:
    """Sum of (a x + b y)^d over the given (a, b)."""
    f = BinaryForm.zero(d)
    for a, b in directions:
        f = f + BinaryForm(
            d, tuple(F(comb(d, i) * a ** (d - i) * b**i) for i in range(d + 1))
        )
    return f


def seeded_quartic_segment(rng: random.Random):
    """Three fourth powers to four distinct real linear factors."""
    while True:
        directions = set()
        while len(directions) < 3:
            a, b = rng.randint(1, 2), rng.randint(-3, 3)
            if b and F(b, a) not in {F(y, x) for x, y in directions}:
                directions.add((a, b))
        f_from = power_sum(sorted(directions), 4)
        roots = sorted(rng.sample(range(-4, 5), 4))
        f_to = BinaryForm.from_roots([F(t) for t in roots]).scale(
            F(rng.randint(1, 3000), rng.randint(1, 7))
        )
        if is_generic_degrees(f_from) and is_generic_degrees(f_to):
            return f_from, f_to


class TestHyperbolicityWalls:
    """Walls into rank d are bisected on exact hyperbolicity."""

    def assert_rank_d_walls_bracket_hyperbolicity(self, f_from, f_to, steps, root):
        d = f_from.degree
        walls = [
            e for e in crossing_scan(f_from, f_to, steps)
            if {e.r_left, e.r_right} == {d - 1, d}
        ]
        assert len(walls) == 1
        e = walls[0]
        ends = (
            oracle_is_real_rooted(segment_form(f_from, f_to, e.eps_lo)),
            oracle_is_real_rooted(segment_form(f_from, f_to, e.eps_hi)),
        )
        assert ends == (e.r_left == d, e.r_right == d)
        # the exact root of disc(f_eps) in the cell, to 12 decimals
        assert e.eps_lo < F(root) < e.eps_hi

    def test_criterion_7_quintic_4_5_wall(self):
        self.assert_rank_d_walls_bracket_hyperbolicity(
            form(2, 10, 40, 80, 80, 33),  # x^5 + (x+2y)^5 + y^5
            BinaryForm.from_roots([F(i) for i in range(1, 6)]),
            200,
            "0.999751979222",
        )

    def test_criterion_7_sextic_5_6_wall(self):
        self.assert_rank_d_walls_bracket_hyperbolicity(
            form(3, -6, 195, -380, 1455, -1266, 794),  # four sixth powers
            BinaryForm.from_roots([F(i) for i in range(1, 7)]),
            200,
            "0.999926047422",
        )

    def test_quartic_brackets_match_a_real_rank_bisection(self):
        # on quartics every rank is exact, so bisecting on real_rank and on
        # hyperbolicity must give the same brackets, step for step; every
        # other segment runs backwards, so the wall is a 4-3 event
        rng = random.Random(1906)
        steps = 12
        for k in range(10):
            f_from, f_to = seeded_quartic_segment(rng)
            if k % 2:
                f_from, f_to = f_to, f_from
            events = crossing_scan(f_from, f_to, steps)
            assert any({e.r_left, e.r_right} == {3, 4} for e in events)
            for e in events:
                i = int(e.eps_lo * steps)
                lo, hi = F(i, steps), F(i + 1, steps)
                while hi - lo > F(1, 10**10):
                    mid = (lo + hi) / 2
                    if real_rank(segment_form(f_from, f_to, mid)).value == e.r_left:
                        lo = mid
                    else:
                        hi = mid
                assert (e.eps_lo, e.eps_hi) == (lo, hi)
