"""Catalecticants, apolar kernels, operator action, generic degrees."""
import random
from fractions import Fraction as F
from math import comb

import pytest

from crl_atlas.apolarity import (
    apolar_kernel,
    apply_operator,
    catalecticant,
    first_kernel,
    is_generic_degrees,
    scaled_coefficients,
)
from crl_atlas.poly_core import BinaryForm

from oracles import form_add, form_mul, gauss_rank, oracle_apply, random_form


def form(*cs) -> BinaryForm:
    coeffs = tuple(F(c) for c in cs)
    return BinaryForm(len(coeffs) - 1, coeffs)


X2Y = form(0, 1, 0, 0)
X3_PLUS_Y3 = form(1, 0, 0, 1)


def power_of_x(d: int) -> BinaryForm:
    return BinaryForm(d, tuple(F(1 if i == 0 else 0) for i in range(d + 1)))


class TestCatalecticant:
    def test_shape_and_hankel_structure(self):
        rng = random.Random(20)
        for _ in range(20):
            d = rng.randint(1, 8)
            r = rng.randint(0, d)
            f = random_form(rng, d)
            cat = catalecticant(f, r)
            a = scaled_coefficients(f)
            assert cat.shape == (d - r + 1, r + 1)
            assert len(cat.entries) == d - r + 1
            for i, row in enumerate(cat.entries):
                for j, entry in enumerate(row):
                    assert entry == a[i + j]

    def test_worked_2x3_matrix(self):
        cat = catalecticant(X2Y, 2)
        assert cat.entries == (
            (F(0), F(1, 3), F(0)),
            (F(1, 3), F(0), F(0)),
        )

    def test_pure_power_has_single_corner_entry(self):
        for d in range(2, 7):
            for r in range(0, d + 1):
                cat = catalecticant(power_of_x(d), r)
                for i, row in enumerate(cat.entries):
                    for j, entry in enumerate(row):
                        assert entry == (1 if i + j == 0 else 0)
                assert cat.rank() == 1

    def test_binomial_form_is_all_ones_rank_one(self):
        d = 5
        f = BinaryForm(d, tuple(F(comb(d, i)) for i in range(d + 1)))  # (x+y)^d
        for r in range(0, d + 1):
            cat = catalecticant(f, r)
            assert all(entry == 1 for row in cat.entries for entry in row)
            assert cat.rank() == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            catalecticant(X2Y, -1)
        with pytest.raises(ValueError):
            catalecticant(X2Y, 4)

    def test_rank_matches_independent_elimination(self):
        rng = random.Random(21)
        for _ in range(40):
            d = rng.randint(1, 8)
            r = rng.randint(0, d)
            f = random_form(rng, d)
            cat = catalecticant(f, r)
            assert cat.rank() == gauss_rank([list(row) for row in cat.entries])


class TestApolarKernel:
    def test_monomial_kernel(self):
        space = apolar_kernel(X2Y, 2)
        assert space.dim == 1
        assert space.basis[0].coeffs == (F(0), F(0), F(1))  # Dy^2

    def test_fermat_cubic_kernel(self):
        space = apolar_kernel(X3_PLUS_Y3, 2)
        assert space.dim == 1
        assert space.basis[0].coeffs == (F(0), F(1), F(0))  # Dx Dy

    def test_pure_power_kernel(self):
        for d in range(2, 7):
            space = apolar_kernel(power_of_x(d), 1)
            assert space.dim == 1
            assert space.basis[0].coeffs == (F(0), F(1))  # Dy

    def test_zero_form_rejected(self):
        z = BinaryForm(3, tuple(F(0) for _ in range(4)))
        with pytest.raises(ValueError):
            apolar_kernel(z, 2)

    def test_generic_middle_dimension(self):
        rng = random.Random(22)
        for _ in range(20):
            d = rng.randint(3, 8)
            f = random_form(rng, d)
            if not is_generic_degrees(f):
                continue
            for r in range((d + 1) // 2, d + 1):
                assert apolar_kernel(f, r).dim == 2 * r - d

    def test_dimension_plus_rank_is_column_count(self):
        rng = random.Random(23)
        count = 0
        while count < 100:
            d = rng.randint(1, 9)
            f = random_form(rng, d)
            count += 1
            for r in range(0, d + 1):
                cat = catalecticant(f, r)
                assert apolar_kernel(f, r).dim + cat.rank() == r + 1

    def test_every_basis_element_annihilates(self):
        rng = random.Random(24)
        for _ in range(100):
            d = rng.randint(1, 8)
            f = random_form(rng, d)
            for r in range(0, d + 1):
                for q in apolar_kernel(f, r).basis:
                    assert apply_operator(q, f).is_zero

    def test_basis_is_primitive_integer(self):
        rng = random.Random(25)
        for _ in range(20):
            f = random_form(rng, 6)
            for q in apolar_kernel(f, 4).basis:
                assert all(c.denominator == 1 for c in q.coeffs)


class TestApplyOperator:
    def test_dy_kills_pure_power(self):
        q = form(0, 1)  # Dy
        assert apply_operator(q, power_of_x(5)).is_zero

    def test_dx_on_x_squared(self):
        q = form(1, 0)  # Dx
        out = apply_operator(q, form(1, 0, 0))
        assert out == form(2, 0)

    def test_dxdy_kills_fermat_cubic(self):
        q = form(0, 1, 0)  # Dx Dy
        assert apply_operator(q, X3_PLUS_Y3).is_zero

    def test_operator_degree_bound(self):
        with pytest.raises(ValueError):
            apply_operator(form(1, 0, 0, 0), form(1, 0, 0))

    def test_matches_raw_derivative_expansion(self):
        rng = random.Random(26)
        for _ in range(150):
            d = rng.randint(1, 8)
            s = rng.randint(0, d)
            f = random_form(rng, d)
            q = random_form(rng, s)
            assert apply_operator(q, f) == oracle_apply(q, f)

    def test_bilinear_in_both_arguments(self):
        rng = random.Random(27)
        for _ in range(20):
            f = random_form(rng, 6)
            g = random_form(rng, 6)
            q = random_form(rng, 3)
            lhs = apply_operator(q, form_add(f, g))
            rhs = form_add(apply_operator(q, f), apply_operator(q, g))
            assert lhs == rhs


class TestApolarityLemmaDirection:
    def test_power_sum_annihilated_by_root_product(self):
        # f = sum alpha_i (x - t_i y)^d is killed by prod (t_i Dx + Dy)
        rng = random.Random(31)
        for _ in range(40):
            d = rng.randint(3, 7)
            n = rng.randint(1, d - 1)
            ts = rng.sample(range(-8, 9), n)
            f = BinaryForm(d, tuple(F(0) for _ in range(d + 1)))
            for t in ts:
                alpha = F(rng.randint(1, 5), rng.randint(1, 3))
                ell_d = BinaryForm.from_roots([F(t)] * d)
                f = form_add(f, ell_d.scale(alpha))
            if f.is_zero:
                continue
            q = form(1)
            for t in ts:
                q = form_mul(q, BinaryForm(1, (F(t), F(1))))
            assert apply_operator(q, f).is_zero


class TestIsGenericDegrees:
    def test_random_sextic_generic(self):
        rng = random.Random(32)
        generic = sum(
            1 for _ in range(20) if is_generic_degrees(random_form(rng, 6))
        )
        assert generic == 20

    def test_pure_power_not_generic(self):
        for d in range(2, 7):
            assert not is_generic_degrees(power_of_x(d))

    def test_fermat_cubic_generic(self):
        assert is_generic_degrees(X3_PLUS_Y3)

    def test_is_dth_power_detection(self):
        # a d-th power, and only a d-th power, has a degree-1 annihilator
        assert first_kernel(power_of_x(5)).r == 1
        shifted = BinaryForm.from_roots([F(2)] * 4)  # (x - 2y)^4
        assert first_kernel(shifted).r == 1
        assert not is_generic_degrees(shifted)
        assert first_kernel(X3_PLUS_Y3).r == 2
