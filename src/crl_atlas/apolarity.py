"""Catalecticant matrices and apolar ideals of binary forms.

With f = sum_i C(d,i) a_i x^(d-i) y^i (so a_i = c_i / C(d,i) are the scaled
coordinates), a differential operator q = sum_j b_j Dx^(r-j) Dy^j kills f
exactly when the Hankel matrix A[i][j] = a_(i+j) of shape (d-r+1) x (r+1)
kills the plain coefficient vector b. The apolar ideal of any binary form
that is not a pure d-th power is generated by two coprime forms g, g2 with
deg g + deg g2 = d + 2; this module computes those generators exactly and
deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import _intlinalg
from .poly_core import BinaryForm, gcd_poly


def scaled_coefficients(f: BinaryForm) -> list[Fraction]:
    """The vector a with a_i = c_i / C(d, i)."""
    return [c / comb(f.degree, i) for i, c in enumerate(f.coeffs)]


@dataclass(frozen=True)
class Catalecticant:
    """The (d-r+1) x (r+1) Hankel matrix pairing degree-r operators with f."""

    d: int
    r: int
    entries: tuple[tuple[Fraction, ...], ...]

    def rank(self) -> int:
        return _intlinalg.matrix_rank([list(row) for row in self.entries])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d - self.r + 1, self.r + 1)


def catalecticant(f: BinaryForm, r: int) -> Catalecticant:
    if not 0 <= r <= f.degree:
        raise ValueError("need 0 <= r <= deg f")
    a = scaled_coefficients(f)
    rows = tuple(
        tuple(a[i + j] for j in range(r + 1)) for i in range(f.degree - r + 1)
    )
    return Catalecticant(f.degree, r, rows)


@dataclass(frozen=True)
class ApolarSpace:
    """The degree-r slice of the apolar ideal, with a primitive integer basis.

    Basis elements are binary forms in the dual variables; their plain
    coefficient tuples are exactly the kernel vectors of the catalecticant.
    """

    d: int
    r: int
    basis: tuple[BinaryForm, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def apolar_kernel(f: BinaryForm, r: int) -> ApolarSpace:
    """Exact kernel of the degree-r catalecticant of f."""
    if f.is_zero:
        raise ValueError("apolar spaces of the zero form are not defined")
    cat = catalecticant(f, r)
    vectors = _intlinalg.kernel_basis([list(row) for row in cat.entries], r + 1)
    basis = tuple(
        BinaryForm(r, tuple(Fraction(v) for v in vec)) for vec in vectors
    )
    return ApolarSpace(f.degree, r, basis)


def apply_operator(q: BinaryForm, f: BinaryForm) -> BinaryForm:
    """Apply the operator q(Dx, Dy) to f; exact, result has degree d - deg q.

    The zero result is returned as the zero form of the correct degree, so
    membership in the apolar ideal is just `apply_operator(q, f).is_zero`.
    """
    d, s = f.degree, q.degree
    if s > d:
        raise ValueError("operator degree exceeds form degree")
    a = scaled_coefficients(f)
    out_deg = d - s
    scale = Fraction(factorial(d), factorial(out_deg))
    coeffs = []
    for k in range(out_deg + 1):
        acc = Fraction(0)
        for j in range(s + 1):
            if q.coeffs[j]:
                acc += a[k + j] * q.coeffs[j]
        coeffs.append(scale * comb(out_deg, k) * acc)
    return BinaryForm(out_deg, tuple(coeffs))


def first_kernel(f: BinaryForm) -> ApolarSpace:
    """The apolar space of the smallest degree r >= 1 where it is nonzero."""
    for r in range(1, f.degree + 1):
        space = apolar_kernel(f, r)
        if space.dim:
            return space
    raise ArithmeticError("no apolar operator found up to degree d")


def is_dth_power(f: BinaryForm) -> bool:
    """True when f is a d-th power of a linear form (catalecticant rank <= 1)."""
    if f.is_zero:
        return False
    if f.degree == 0:
        return True
    return catalecticant(f, 1).rank() <= 1


def is_generic_degrees(f: BinaryForm) -> bool:
    """Whether the apolar ideal is generated in the generic degree pair.

    Equivalent to the middle catalecticant A^(d, floor((d+1)/2)) having
    maximal rank.
    """
    d = f.degree
    r = (d + 1) // 2
    cat = catalecticant(f, r)
    rows, cols = cat.shape
    return cat.rank() == min(rows, cols)


def _span_reduce(vec: list[Fraction], echelon: list[list[Fraction]], pivots: list[int]) -> list[Fraction]:
    """Reduce vec modulo the row span of an echelonized basis."""
    v = list(vec)
    for row, p in zip(echelon, pivots):
        if v[p]:
            factor = v[p] / row[p]
            for c in range(len(v)):
                v[c] -= factor * row[c]
    return v


def apolar_generators(f: BinaryForm) -> tuple[BinaryForm, BinaryForm]:
    """The two generators (g, g2) of the apolar ideal, deg g + deg g2 = d + 2.

    g spans (or leads) the first nonzero kernel; g2 is a degree d+2-deg(g)
    kernel element outside g times the complementary-degree forms, reduced
    modulo that subspace and cleared to primitive integer coefficients, so
    the output is deterministic. Pure d-th powers are rejected: their apolar
    ideal needs only one generator in degree 1 plus one in degree d + 1,
    and the reduction below has no second kernel direction to work with.
    """
    if f.is_zero:
        raise ValueError("the zero form has no apolar generators")
    if is_dth_power(f):
        raise ValueError("apolar ideal is principal-like (excluded case)")
    d = f.degree
    space1 = first_kernel(f)
    e1 = space1.r
    e2 = d + 2 - e1
    g = space1.basis[0]

    if e1 == e2:
        if space1.dim < 2:
            raise ArithmeticError("expected a two-dimensional minimal kernel")
        multiples = [list(g.coeffs)]
    else:
        # g * (monomial basis of degree e2-e1), as vectors of length e2+1
        multiples = []
        shift = e2 - e1
        for k in range(shift + 1):
            vec = [Fraction(0)] * (e2 + 1)
            for i, c in enumerate(g.coeffs):
                vec[i + k] += c
            multiples.append(vec)

    int_rows, _ = _intlinalg._as_int_rows(multiples)
    ech, pivots = _intlinalg.int_row_echelon(int_rows)
    ech_frac = [[Fraction(x) for x in row] for row in ech[: len(pivots)]]

    space2 = apolar_kernel(f, e2)
    for cand in space2.basis:
        reduced = _span_reduce(list(cand.coeffs), ech_frac, pivots)
        if any(reduced):
            g2 = BinaryForm(e2, tuple(reduced)).primitive()
            break
    else:
        raise ArithmeticError("no second generator outside g*D was found")

    common = gcd_poly(g, g2)
    if common.degree != 0:
        raise AssertionError("apolar generators are not coprime")
    return g, g2
