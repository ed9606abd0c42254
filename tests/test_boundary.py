"""Boundary candidates, dual membership, and segment crossing scans."""
import math
import random
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest
from click.testing import CliRunner

from crl_atlas import boundary
from crl_atlas.apolarity import (
    apply_operator,
    catalecticant,
    is_generic_degrees,
    scaled_coefficients,
)
from crl_atlas.boundary import (
    EXPECTED_SHARP,
    THEOREM_EXACT,
    THEOREM_SUPERSET,
    _segment_hyperbolicity,
    candidate_components,
    crossing_scan,
    dual_membership,
)
from crl_atlas.cli import main
from crl_atlas.config import RunConfig
from crl_atlas.partitions import enumerate_partitions
from crl_atlas.poly_core import BinaryForm, discriminant, is_real_rooted
from crl_atlas.rank import (
    _residual_components,
    _residual_jacobian,
    real_rank,
)

from oracles import (
    _eval as oracle_eval,
    annihilated_forms,
    count_roots_in,
    form_mul,
    interpolate,
    oracle_is_real_rooted,
    random_form,
    squarefree_part,
    swap_xy,
)


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
        for f, mu in [
            (form(1, 0, 0, 0, 1, 0), (3, 2)),
            (BinaryForm.from_roots([F(0), F(0), F(1), F(2), F(3)]), (5,)),
            (form(-2, 0, -6, 3, 6, -5), (5,)),
        ]:
            base = dual_membership(f, mu)
            for s in (F(-3), F(1, 7), F(1000)):
                scaled = dual_membership(f.scale(s), mu)
                assert scaled.verdict == base.verdict
                assert scaled.residual == pytest.approx(base.residual, abs=1e-12)

    def test_verdict_invariant_under_swap(self):
        for coeffs, mu in [
            ((1, 0, 0, 0, 1, 0), (3, 2)),
            ((-2, 0, -6, 3, 6, -5), (3, 2)),
        ]:
            f = form(*coeffs)
            assert dual_membership(swap_xy(f), mu).verdict == dual_membership(f, mu).verdict

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


def normalized_catalecticant(f: BinaryForm, s: int) -> np.ndarray:
    norm = np.linalg.norm(np.array(scaled_coefficients(f), dtype=float))
    return np.array(catalecticant(f, s).entries, dtype=float) / norm


class TestResidualJacobian:
    """Both descents' closed-form Jacobian against central differences."""

    @staticmethod
    def check(rng, matrix, exponents):
        h = 1e-6
        n = len(exponents)
        starts = [[rng.uniform(-math.pi / 2, math.pi / 2) for _ in range(n)]
                  for _ in range(3)]
        starts.append([math.pi / 2] + starts[0][1:])  # a root at infinity
        starts.append([math.pi / 2] * n)
        for thetas in starts:
            jac = _residual_jacobian(thetas, matrix, exponents)
            fd = np.column_stack([
                (_residual_components(np.add(thetas, step), matrix, exponents)
                 - _residual_components(np.subtract(thetas, step), matrix, exponents))
                / (2 * h)
                for step in h * np.eye(n)
            ])
            assert jac.shape == fd.shape == (len(matrix), n)
            err = np.linalg.norm(jac - fd) / np.linalg.norm(fd)
            assert err <= 1e-6, (exponents, thetas, err)

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_matches_central_differences(self, d):
        rng = random.Random(d)
        for mu in enumerate_partitions(d, min_part=2):
            n = len(mu)
            exponents = tuple(m - 1 for m in mu)
            f = BinaryForm(d, tuple(F(rng.randint(-9, 9)) for _ in range(d + 1)))
            self.check(rng, normalized_catalecticant(f, d - n), exponents)
        # the rank search's I - Q Q^T off a random (d - 2)-dimensional
        # span of degree-d operators, every exponent 1
        span = np.array([[rng.randint(-9, 9) for _ in range(d + 1)]
                         for _ in range(d - 2)], dtype=float)
        qmat, _ = np.linalg.qr(span.T)
        self.check(rng, np.eye(d + 1) - qmat @ qmat.T, (1,) * d)


def grid_minimum(f: BinaryForm, points: int = 4096) -> float:
    """Least mu = (d) residual over a uniform grid of root angles."""
    e = f.degree - 1
    theta = np.linspace(-math.pi / 2, math.pi / 2, points, endpoint=False)
    k = np.arange(e + 1)[:, None]
    # column j: coefficients of (cos t_j x - sin t_j y)^e
    charts = (
        np.array([comb(e, i) for i in range(e + 1)], dtype=float)[:, None]
        * np.cos(theta) ** (e - k) * (-np.sin(theta)) ** k
    )
    residuals = np.linalg.norm(normalized_catalecticant(f, e) @ charts, axis=0)
    return float(np.min(residuals / np.linalg.norm(charts, axis=0)))


class TestSingleRootMembership:
    """mu = (d): the least residual over one root of multiplicity d - 1."""

    def test_no_grid_angle_beats_it(self):
        rng = random.Random(2400)
        for _ in range(200):
            d = rng.randint(2, 8)
            f = random_form(rng, d)
            report = dual_membership(f, (d,))
            assert report.residual <= grid_minimum(f) + 1e-12, (f, report)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_repeated_real_root_comes_back_on(self, d):
        # a double real root, rational or at [1:0] (the factor y), times
        # distinct real roots and complex pairs
        rng = random.Random(2500 + d)
        for k in range(12):
            r = None if k % 4 == 0 else F(rng.randint(-9, 9), rng.randint(1, 4))
            line = form(0, 1) if r is None else BinaryForm.from_roots([r])
            f, used = form_mul(line, line), {r}
            while f.degree < d:
                if d - f.degree >= 2 and rng.random() < 0.5:
                    a, b = rng.randint(-5, 5), rng.randint(1, 5)
                    f = form_mul(f, form(1, -2 * a, a * a + b * b))
                    continue
                t = F(rng.randint(-9, 9), rng.randint(1, 4))
                if t not in used:
                    used.add(t)
                    f = form_mul(f, BinaryForm.from_roots([t]))
            report = dual_membership(f, (d,))
            assert report.verdict == "on" and report.residual < 1e-10, (f, report)
            # (Dx - t Dy)^(d-1) kills f exactly when (t x + y)^2 divides f,
            # so the witness root is t = -1/r for the double root x = r y
            (t,) = report.witness_roots
            if r is None:
                assert t == pytest.approx(0.0, abs=1e-9)
            elif r == 0:
                assert t is None
            else:
                assert t == pytest.approx(-1 / r, rel=1e-8)


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
        # check each bracket against an exact root count.
        f_from, f_to = quartic_segment()
        nodes = [F(k, 7) for k in range(9)]
        disc = interpolate(
            [(t, discriminant(segment_form(f_from, f_to, t))) for t in nodes]
        )
        assert len(disc) - 1 == 6
        probe = F(5, 11)
        assert oracle_eval(disc, probe) == discriminant(segment_form(f_from, f_to, probe))
        pad = F(1, 10**8)
        for event in crossing_scan(f_from, f_to, 60):
            lo, hi = event.eps_lo - pad, event.eps_hi + pad
            hits = count_roots_in(squarefree_part(disc), lo, hi)
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

    def test_grid_point_below_the_typical_ranks(self):
        # both ends have rank 3, but the grid point f_1/2 = x^4 + (x + 2y)^4
        # has real rank 2, which bounds no region: its two events carry no
        # candidates and are no anomaly
        ends = ("19/10,83/10,47/2,159/5,167/10", "21/10,77/10,49/2,161/5,153/10")
        f_from, f_to = (form(*text.split(",")) for text in ends)
        assert segment_form(f_from, f_to, F(1, 2)) == power_sum([(1, 0), (1, 2)], 4)
        events = crossing_scan(f_from, f_to, 4)
        assert [(e.r_left, e.r_right) for e in events] == [(3, 2), (2, 3)]
        assert events[0].eps_hi == F(1, 2) == events[1].eps_lo
        assert all(e.memberships == () and not e.anomaly for e in events)
        res = CliRunner().invoke(
            main,
            ["--format", "text", "boundary", "cross", "--d", "4", "--from", ends[0],
             "--to", ends[1], "--steps", "4"],
        )
        assert res.exit_code == 0, res.output


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


def reference_wall_bracket(f_from, f_to, steps, event):
    """The event's grid cell bisected with is_real_rooted at every midpoint."""
    d = f_from.degree
    i = int(event.eps_lo * steps)
    lo, hi = F(i, steps), F(i + 1, steps)
    while hi - lo > F(1, 10**10):
        mid = (lo + hi) / 2
        if is_real_rooted(segment_form(f_from, f_to, mid)) == (event.r_left == d):
            lo = mid
        else:
            hi = mid
    return lo, hi


def disc_in_eps(f_from, f_to):
    """disc(f_eps) as a polynomial in eps, descending, by interpolation."""
    d = f_from.degree
    nodes = [F(k, 7) for k in range(2 * d - 1)]
    return interpolate(
        [(t, discriminant(segment_form(f_from, f_to, t))) for t in nodes]
    )


def assert_hyperbolicity_predicate(f_from, f_to, steps, events):
    """The scan's predicate is is_real_rooted at grid points and bracket ends."""
    hyperbolic = _segment_hyperbolicity(f_from, f_to)
    points = {F(i, steps) for i in range(steps + 1)}
    for e in events:
        points |= {e.eps_lo, e.eps_hi}
    for eps in sorted(points):
        assert hyperbolic(eps) == is_real_rooted(segment_form(f_from, f_to, eps)), eps


def assert_walls_match_reference(f_from, f_to, steps):
    """Every rank-d wall of the scan equals the reference bisection.

    A rank-d wall lies on the discriminant, the dual of mu = (d), so its
    membership test for (d) must come back "on" and the event is no
    anomaly.
    """
    d = f_from.degree
    walls = [
        e for e in crossing_scan(f_from, f_to, steps)
        if {e.r_left, e.r_right} == {d - 1, d}
    ]
    for e in walls:
        assert (e.eps_lo, e.eps_hi) == reference_wall_bracket(f_from, f_to, steps, e)
        top = [m.verdict for m in e.memberships if m.mu == (d,)]
        assert top == ["on"] and not e.anomaly, e
    return walls


class TestHyperbolicityWalls:
    """Walls into rank d are bisected on exact hyperbolicity."""

    def assert_rank_d_walls_bracket_hyperbolicity(self, f_from, f_to, steps, root):
        d = f_from.degree
        walls = assert_walls_match_reference(f_from, f_to, steps)
        assert len(walls) == 1
        e = walls[0]
        ends = (
            oracle_is_real_rooted(segment_form(f_from, f_to, e.eps_lo)),
            oracle_is_real_rooted(segment_form(f_from, f_to, e.eps_hi)),
        )
        assert ends == (e.r_left == d, e.r_right == d)
        # the exact root of disc(f_eps) in the cell, to 12 decimals
        assert e.eps_lo < F(root) < e.eps_hi
        return e

    def test_criterion_7_quintic_4_5_wall(self):
        e = self.assert_rank_d_walls_bracket_hyperbolicity(
            form(2, 10, 40, 80, 80, 33),  # x^5 + (x+2y)^5 + y^5
            BinaryForm.from_roots([F(i) for i in range(1, 6)]),
            200,
            "0.999751979222",
        )
        assert (f"{float(e.eps_lo):.12f}", f"{float(e.eps_hi):.12f}") == (
            "0.999751979187",
            "0.999751979262",
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

    def test_seeded_quartic_walls_match_is_real_rooted_bisection(self, monkeypatch):
        # a bisection that runs is_real_rooted at every midpoint must agree
        # with the scan bracket for bracket, while the scan itself runs
        # is_real_rooted at most once per interval between the real roots
        # of disc(f_eps): at most 7 times on a quartic, against 13 grid
        # points at steps=12.  At steps=1 one cell holds every root of
        # disc(f_eps) in (0, 1), so some intervals hold no grid point and
        # a midpoint inside them runs is_real_rooted itself.
        calls = []
        exact = boundary.is_real_rooted
        monkeypatch.setattr(
            boundary, "is_real_rooted", lambda f: calls.append(f) or exact(f)
        )
        rng = random.Random(2113)
        midpoint_calls = 0
        for k in range(40):
            f_from, f_to = seeded_quartic_segment(rng)
            if k % 2:
                f_from, f_to = f_to, f_from
            disc = disc_in_eps(f_from, f_to)
            bound = 1 + max(abs(c / disc[0]) for c in disc)
            intervals = 1 + count_roots_in(squarefree_part(disc), -bound, bound)
            for steps in (12, 1):
                calls.clear()
                walls = assert_walls_match_reference(f_from, f_to, steps)
                assert walls and len(calls) <= intervals
                grid = {segment_form(f_from, f_to, F(i, steps)) for i in range(steps + 1)}
                midpoint_calls += sum(1 for f in calls if f not in grid)
                assert_hyperbolicity_predicate(f_from, f_to, steps, walls)
        assert midpoint_calls > 0

    def test_wall_where_a_descent_stalled(self):
        # perfbench scan-quartic seed 31 item 12: a local descent over the
        # root angle stalled at residual 6.4e-4 on this wall and called it
        # an anomaly
        f_from = form(18, 96, 324, 216, 243)
        f_to = form(
            F(702747, 830), F(702747, 166), F(-702747, 83),
            F(-5621976, 83), F(-33731856, 415),
        )
        walls = assert_walls_match_reference(f_from, f_to, 12)
        assert len(walls) == 1

    @pytest.mark.parametrize("reverse", [False, True])
    def test_first_midpoint_on_the_discriminant(self, reverse):
        # f_1/2 = 2 x^2 (x - 5y)(x + 5y) has a double root that splits into
        # two real roots for eps > 1/2, where f_eps stays hyperbolic up to
        # f_1.  So the first midpoint of a one-cell scan is a root of
        # disc(f_eps) and the wall itself, and one end of every later
        # bracket sits on it: that end's hyperbolicity must not spread.
        f_to = BinaryForm.from_roots([F(-6), F(-5), F(1), F(2)])
        half = BinaryForm.from_roots([F(0), F(0), F(5), F(-5)])
        f_from = half.scale(2) - f_to
        if reverse:
            f_from, f_to = f_to, f_from
        assert discriminant(segment_form(f_from, f_to, F(1, 2))) == 0
        walls = assert_walls_match_reference(f_from, f_to, 1)
        assert len(walls) == 1
        e = walls[0]
        assert (e.eps_hi if reverse else e.eps_lo) == F(1, 2)
        assert_hyperbolicity_predicate(f_from, f_to, 1, walls)

    def test_segment_inside_the_discriminant(self):
        # every form on this segment has the double root x = 0
        f_from = BinaryForm.from_roots([F(0), F(0), F(1), F(2)])
        f_to = BinaryForm.from_roots([F(0), F(0), F(-1), F(3)])
        assert not disc_in_eps(f_from, f_to)
        hyperbolic = _segment_hyperbolicity(f_from, f_to)
        for eps in (F(0), F(1, 3), F(1)):
            assert not hyperbolic(eps)
            assert not is_real_rooted(segment_form(f_from, f_to, eps))
