"""Exact polynomial layer: derivatives, gcd, root counting, serialization."""
import math
import random
from fractions import Fraction as F

import pytest

from crl_atlas.poly_core import (
    BinaryForm,
    _sturm_signs_at,
    _variations,
    count_real_roots,
    derivative,
    discriminant,
    format_rational,
    gcd_poly,
    is_real_rooted,
    is_squarefree,
    isolate_real_roots,
    parse_rational,
    resultant,
    sturm_chain,
    sturm_counter,
    uv_gcd,
    uv_root_bound,
    uv_squarefree_part,
)

from oracles import (
    _eval as oracle_eval,
    _poly_gcd as oracle_gcd,
    count_roots_in,
    form_add,
    form_mul,
    interpolate,
    oracle_count_real_roots,
    oracle_is_real_rooted,
    oracle_is_squarefree,
    random_form,
    squarefree_part,
    swap_xy,
)


def form(*cs) -> BinaryForm:
    coeffs = tuple(F(c) for c in cs)
    return BinaryForm(len(coeffs) - 1, coeffs)


X2 = form(1, 0, 0)
X2Y = form(0, 1, 0, 0)
XY2 = form(0, 0, 1, 0)
X3_3XY2 = form(1, 0, -3, 0)


class TestDerivative:
    def test_power_rule_x(self):
        assert derivative(X2, "x") == form(2, 0)

    def test_vanishing_y_derivative_keeps_degree(self):
        out = derivative(X2, "y")
        assert out.is_zero and out.degree == 1

    def test_mixed_form(self):
        assert derivative(X3_3XY2, "x") == form(3, 0, -3)

    def test_product_rule_on_random_forms(self):
        rng = random.Random(1)
        for _ in range(25):
            f = random_form(rng, rng.randint(1, 5))
            g = random_form(rng, rng.randint(1, 5))
            for var in ("x", "y"):
                lhs = derivative(form_mul(f, g), var)
                rhs = form_add(
                    form_mul(derivative(f, var), g),
                    form_mul(f, derivative(g, var)),
                )
                assert lhs == rhs


class TestGcd:
    def test_common_monomial(self):
        assert gcd_poly(X2Y, XY2) == form(0, 1, 0)

    def test_linear_factor(self):
        assert gcd_poly(form(1, 0, -1), form(1, -1)) == form(1, -1)

    def test_coprime_gives_constant(self):
        g = gcd_poly(form(1, 0, 1), form(1, 1))
        assert g.degree == 0 and not g.is_zero

    def test_both_zero_rejected(self):
        z = BinaryForm(2, (F(0), F(0), F(0)))
        with pytest.raises(ValueError):
            gcd_poly(z, z)

    def test_divides_both_and_leading_coefficient_one(self):
        rng = random.Random(2)
        for _ in range(20):
            a = random_form(rng, rng.randint(1, 3))
            b = random_form(rng, rng.randint(1, 3))
            c = random_form(rng, rng.randint(0, 2))
            g = gcd_poly(form_mul(a, c), form_mul(b, c))
            assert g.degree >= c.degree
            lead = next(cc for cc in g.coeffs if cc != 0)
            assert lead == 1
            # g divides both products: gcd with either product returns g
            for prod in (form_mul(a, c), form_mul(b, c)):
                assert gcd_poly(prod, g) == g


class TestSquarefree:
    def test_double_root(self):
        assert not is_squarefree(X2Y)

    def test_two_distinct_real_roots(self):
        assert is_squarefree(form(1, 0, -1))

    def test_distinct_complex_roots(self):
        assert is_squarefree(form(1, 0, 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_squarefree(BinaryForm(1, (F(0), F(0))))

    def test_agrees_with_discriminant_vanishing(self):
        rng = random.Random(3)
        for _ in range(40):
            f = random_form(rng, rng.randint(2, 5))
            if rng.random() < 0.4:
                t = F(rng.randint(-3, 3))
                f = form_mul(f, BinaryForm.from_roots([t, t]))
            assert is_squarefree(f) == (discriminant(f) != 0)


class TestCountRealRoots:
    def test_three_simple_roots(self):
        assert count_real_roots(X3_3XY2) == (3, True)

    def test_no_real_roots(self):
        assert count_real_roots(form(1, 0, 1)) == (0, True)

    def test_double_root_and_infinity(self):
        # distinct projective roots are [0:1] and [1:0]; the double 0 is
        # counted once and all_simple flips off
        assert count_real_roots(X2Y) == (2, False)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            count_real_roots(BinaryForm(2, (F(0), F(0), F(0))))

    def test_count_never_exceeds_degree(self):
        rng = random.Random(4)
        for _ in range(60):
            f = random_form(rng, rng.randint(1, 8))
            n, _ = count_real_roots(f)
            assert 0 <= n <= f.degree

    def test_matches_bisection_oracle_on_200_random_forms(self):
        rng = random.Random(5)
        for _ in range(200):
            f = random_form(rng, rng.randint(1, 8))
            if rng.random() < 0.25:
                # exercise repeated factors and roots at infinity too
                extra = BinaryForm.from_roots(
                    [F(rng.randint(-2, 2))], infinity=rng.randint(0, 1)
                )
                f = form_mul(f, extra)
            count, simple = count_real_roots(f)
            assert count == oracle_count_real_roots(f)
            assert simple == oracle_is_squarefree(f)
            assert is_real_rooted(f) == oracle_is_real_rooted(f)


class TestIsRealRooted:
    def test_three_distinct_lines(self):
        f = BinaryForm.from_roots([F(0), F(1), F(-1)])
        assert is_real_rooted(f)

    def test_complex_pair(self):
        f = form(1, 0, 1, 0)  # x (x^2 + y^2)
        assert not is_real_rooted(f)

    def test_repeated_factor(self):
        f = BinaryForm.from_roots([F(1), F(1), F(-1)])
        assert not is_real_rooted(f)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_real_rooted(BinaryForm(3, tuple(F(0) for _ in range(4))))

    def test_distinct_rational_roots_always_pass(self):
        rng = random.Random(6)
        for _ in range(30):
            d = rng.randint(2, 7)
            numerators = rng.sample(range(-40, 40), d)
            roots = sorted({F(t, 1 + abs(t) % 3) for t in numerators})
            f = BinaryForm.from_roots(roots)
            assert is_real_rooted(f)

    def test_coincident_roots_always_fail(self):
        rng = random.Random(7)
        for _ in range(30):
            d = rng.randint(2, 6)
            roots = [F(rng.randint(-10, 10)) for _ in range(d - 1)]
            f = BinaryForm.from_roots(roots + [roots[0]])
            assert not is_real_rooted(f)

    def test_matches_oracle(self):
        rng = random.Random(8)
        for _ in range(120):
            f = random_form(rng, rng.randint(1, 7))
            assert is_real_rooted(f) == oracle_is_real_rooted(f)


class TestOneChainEdgeCases:
    """Where the one Sturm chain meets y-powers, constants and repeated roots.

    The expected (count, all simple) tuples pin the projective convention:
    [1:0] counts once, and y^2 makes the form not squarefree.
    """

    CASES = {
        "constant": (form(F(-7, 3)), (0, True)),
        "degree 1": (form(2, -3), (1, True)),
        "y": (form(0, 1), (1, True)),
        "y^2": (form(0, 0, 1), (1, False)),
        "x*y": (form(0, 1, 0), (2, True)),
        "x^2*y": (form(0, 1, 0, 0), (2, False)),
        "double finite root": (BinaryForm.from_roots([F(1), F(1), F(-2)]), (2, False)),
        "infinity and finite roots": (
            BinaryForm.from_roots([F(1), F(-1, 2)], infinity=1), (3, True)
        ),
        "infinity and a complex pair": (form(0, 1, 0, 1), (1, True)),
        "y^2 and finite roots": (
            BinaryForm.from_roots([F(3), F(-1)], infinity=2), (3, False)
        ),
        "infinity and a double root": (
            BinaryForm.from_roots([F(2), F(2)], infinity=1), (2, False)
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_against_oracle_and_previous_tuples(self, name):
        f, expected = self.CASES[name]
        count, simple = count_real_roots(f)
        assert (count, simple) == expected
        assert count == oracle_count_real_roots(f)
        assert simple == is_squarefree(f) == oracle_is_squarefree(f)
        assert is_real_rooted(f) == oracle_is_real_rooted(f)
        assert is_real_rooted(f) == (simple and count == f.degree)


class TestResultantDiscriminant:
    def test_resultant_vanishes_iff_common_root(self):
        a = BinaryForm.from_roots([F(1), F(2)])
        b = BinaryForm.from_roots([F(2), F(3)])
        c = BinaryForm.from_roots([F(4), F(5)])
        assert resultant(a, b) == 0
        assert resultant(a, c) != 0

    def test_discriminant_of_quadratic(self):
        # x^2 - y^2 has disc -4 under the resultant normalization used here
        assert discriminant(form(1, 0, -1)) == -4

    def test_discriminant_zero_iff_not_squarefree(self):
        rng = random.Random(9)
        for _ in range(30):
            f = random_form(rng, rng.randint(2, 5))
            assert (discriminant(f) == 0) == (not is_squarefree(f))


class TestUvHelpers:
    def test_interpolation_roundtrip(self):
        rng = random.Random(10)
        for _ in range(20):
            deg = rng.randint(0, 6)
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)]
            xs = [F(k) for k in range(deg + 1)]
            desc = coeffs[::-1]
            got = interpolate([(x, oracle_eval(desc, x)) for x in xs])
            assert [F(0)] * (len(desc) - len(got)) + got == desc

    def test_isolating_intervals_contain_exactly_one_root(self):
        p = [F(-2), F(0), F(1)]  # t^2 - 2, ascending
        boxes = isolate_real_roots(p)
        assert len(boxes) == 2
        for lo, hi in boxes:
            assert lo < hi
            assert count_roots_in(p[::-1], lo, hi) == 1

    def test_squarefree_part_strips_multiplicity(self):
        p = [F(0), F(0), F(1)]  # t^2
        sf = uv_squarefree_part(p)
        assert len(sf) == 2  # degree 1

    def test_sturm_chain_signs_count_roots(self):
        p = [F(-1), F(0), F(0), F(1)]  # t^3 - 1
        chain = sturm_chain(p)
        assert chain[0] == p
        assert _chain_count(p, F(-10), F(10)) == 1


def _mul_asc(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_uv(rng: random.Random, degree: int) -> list:
    """Ascending rational polynomial of exact degree, often with repeated roots.

    A random factor times linear factors over a few small rational roots
    drawn with replacement; the leading coefficient comes out negative
    about half the time.  The random factor has degree at most 3, or is
    the whole polynomial with about half its coefficients zero: sparse
    inputs give remainder sequences whose degree drops by more than one,
    where a sign lost in a pseudo-remainder shows.
    """
    sparse = rng.random() < 0.3
    free = degree if sparse else rng.randint(0, min(degree, 3))
    p = [
        F(0) if sparse and rng.random() < 0.5 else F(rng.randint(-9, 9), rng.randint(1, 4))
        for _ in range(free)
    ]
    p.append(F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)))
    roots = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
    for _ in range(degree - free):
        p = _mul_asc(p, [-rng.choice(roots), F(1)])
    return p


def _monic_desc_to_asc(desc):
    desc = [c / desc[0] for c in desc] if desc else []
    return list(reversed(desc))


def _as_form(p) -> BinaryForm:
    """The binary form whose dehomogenization f(z, 1) is p (ascending)."""
    return BinaryForm.from_coeffs(reversed(p))


def _chain_count(p, lo, hi) -> int:
    """Distinct roots of p in (lo, hi], from the Sturm chain of its squarefree part.

    These are the sign variations that isolate_real_roots compares.
    """
    chain = sturm_chain(uv_squarefree_part(p))
    return _variations(_sturm_signs_at(chain, lo)) - _variations(_sturm_signs_at(chain, hi))


def _oracle_roots_in(p, lo, hi) -> int:
    """Distinct roots of p in (lo, hi], via the oracle's Descartes bisection."""
    sf = squarefree_part(list(reversed(p)))
    if len(sf) < 2:
        return 0
    return count_roots_in(sf, lo, hi) + (oracle_eval(sf, hi) == 0)


class TestIntegerInternalsAgainstOracle:
    """The primitive integer remainder sequences agree with rational Euclid."""

    CASES = 150

    def polys(self, seed: int):
        rng = random.Random(seed)
        for i in range(self.CASES):
            p = random_uv(rng, i % 9)
            scale = F(-rng.randint(1, 7), rng.randint(1, 5))
            yield rng, p, [scale * c for c in p]

    def test_squarefree_part(self):
        for _, p, neg in self.polys(20):
            got = uv_squarefree_part(p)
            assert got == _monic_desc_to_asc(squarefree_part(list(reversed(p))))
            assert got[-1] == 1
            assert uv_squarefree_part(neg) == got

    def test_gcd(self):
        for rng, p, neg in self.polys(21):
            q = _mul_asc(random_uv(rng, rng.randint(0, 4)), p[: rng.randint(1, len(p))])
            got = uv_gcd(p, q)
            expect = _monic_desc_to_asc(oracle_gcd(list(reversed(p)), list(reversed(q))))
            assert got == expect
            assert uv_gcd(neg, [F(-3, 2) * c for c in q]) == got

    def test_gcd_of_zero_inputs(self):
        assert uv_gcd([], []) == []
        assert uv_gcd([F(0)], [F(-2), F(4)]) == [F(-1, 2), F(1)]

    def test_count_real_roots_without_bounds(self):
        for _, p, neg in self.polys(22):
            lo = -sum(abs(c) for c in p) / abs(p[-1]) - 1
            got = count_real_roots(_as_form(p))[0]
            assert got == _oracle_roots_in(p, lo, -lo)
            assert count_real_roots(_as_form(neg))[0] == got

    def test_count_real_roots_with_bounds(self):
        for rng, p, neg in self.polys(23):
            sf = squarefree_part(list(reversed(p)))
            lo = F(rng.randint(-30, 20), 7)
            hi = lo + F(rng.randint(1, 30), 7)
            if oracle_eval(sf, lo) == 0 or oracle_eval(sf, hi) == 0:
                continue
            got = _chain_count(p, lo, hi)
            assert got == _oracle_roots_in(p, lo, hi)
            assert _chain_count(neg, lo, hi) == got

    def test_isolate_real_roots(self):
        for _, p, neg in self.polys(24):
            boxes = isolate_real_roots(p)
            sf = squarefree_part(list(reversed(p)))
            for lo, hi in boxes:
                assert lo < hi
                assert oracle_eval(sf, lo) != 0 and oracle_eval(sf, hi) != 0
                assert count_roots_in(sf, lo, hi) == 1
            assert all(a[1] <= b[0] for a, b in zip(boxes, boxes[1:]))
            assert len(boxes) == oracle_count_real_roots(_as_form(p))
            assert isolate_real_roots(neg) == boxes

    @pytest.mark.parametrize(
        "p", [[-3, 0, 2, 0, 1], [0, 2, 0, 1], [-3, 3, 0, 0, 1], [1, 2, -1, -3, 0, 0, -1]]
    )
    def test_sparse_chains_with_negative_divisors(self, p):
        # each Sturm chain here divides by an element with a negative
        # leading coefficient whose remainder drops two degrees at once
        p = [F(c) for c in p]
        bound = uv_root_bound(p)
        expect = _oracle_roots_in(p, -bound, bound)
        assert _chain_count(p, -bound, bound) == expect
        assert count_real_roots(_as_form(p))[0] == expect
        assert len(isolate_real_roots(p)) == expect

    def test_sturm_chain_is_primitive_integer(self):
        p = [F(-1, 2), F(0), F(3, 4), F(1, 3)]  # squarefree, three real roots
        chain = sturm_chain(p)
        assert chain[0] == [-6, 0, 9, 4]
        for q in chain:
            assert all(isinstance(c, int) for c in q)
            assert math.gcd(*q) == 1
        assert count_real_roots(_as_form(p)) == (3, True)

    @pytest.mark.parametrize(
        "factors",
        [
            [[-1, 1], [-1, 1], [-3, 1], [1, 0, 1]],  # (t - 1)^2 (t - 3)(t^2 + 1)
            [[2, 1], [F(-1, 2), 1], [-3, 1], [-2, 0, 1]],  # squarefree, five real roots
        ],
    )
    def test_sturm_counter_signs_and_intervals(self, factors):
        p = [F(1)]
        for q in factors:
            p = _mul_asc(p, [F(c) for c in q])
        at = sturm_counter(p)
        desc = p[::-1]
        sf = squarefree_part(desc)
        points = sorted({F(n, k) for n in range(-12, 13) for k in (1, 2, 3, 4)})
        for x in points:
            value = oracle_eval(desc, x)
            assert at(x)[0] == (value > 0) - (value < 0)
        off = [x for x in points if at(x)[0]]
        assert len(off) < len(points)
        for i, lo in enumerate(off):
            for hi in off[i + 1 :]:
                free = count_roots_in(sf, lo, hi) == 0
                assert (at(lo)[1] == at(hi)[1]) == free, (lo, hi)


class TestRationalText:
    @pytest.mark.parametrize("text", ["3", "-5", "7/4", "-9/2", "0"])
    def test_roundtrip(self, text):
        assert format_rational(parse_rational(text)) == text

    def test_reduces_to_lowest_terms(self):
        assert parse_rational("4/6") == F(2, 3)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("three")
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational("1/0")


class TestBinaryFormAlgebra:
    def test_from_roots_expands_product(self):
        f = BinaryForm.from_roots([F(1), F(2)], infinity=1)
        assert f == form(0, 1, -3, 2)

    def test_evaluate_matches_coefficients(self):
        # coeffs[0] multiplies x^d: x^3 - 3xy^2 at (2, 1) is 8 - 6
        assert oracle_eval(list(X3_3XY2.coeffs), F(2)) == 2

    def test_swap_xy_is_involution(self):
        rng = random.Random(11)
        for _ in range(20):
            f = random_form(rng, rng.randint(1, 6))
            assert swap_xy(swap_xy(f)) == f

    def test_scale_consistency(self):
        rng = random.Random(12)
        for _ in range(20):
            f = random_form(rng, 4)
            assert form_add(f, f.scale(F(-1))).is_zero
            tripled = form_add(form_add(f, f), f)
            assert f.scale(F(3)) == tripled

    def test_primitive_clears_denominators(self):
        f = form(F(2, 3), F(4, 3), F(0))
        p = f.primitive()
        assert all(c.denominator == 1 for c in p.coeffs)
        assert p == form(1, 2, 0)

    def test_json_roundtrip_and_determinism(self):
        rng = random.Random(13)
        for _ in range(20):
            f = random_form(rng, rng.randint(0, 6))
            data = f.to_json()
            assert BinaryForm.from_json(data) == f
            assert f.to_json() == data

    def test_repeating_computation_is_bit_identical(self):
        f = BinaryForm.from_roots([F(1, 3), F(-2, 5), F(4)])
        first = (count_real_roots(f), discriminant(f), str(f))
        second = (count_real_roots(f), discriminant(f), str(f))
        assert first == second
