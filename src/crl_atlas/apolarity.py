"""Catalecticant matrices and apolar kernels of binary forms.

With f = sum_i C(d,i) a_i x^(d-i) y^i (so a_i = c_i / C(d,i) are the scaled
coordinates), a differential operator q = sum_j b_j Dx^(r-j) Dy^j kills f
exactly when the Hankel matrix A[i][j] = a_(i+j) of shape (d-r+1) x (r+1)
kills the plain coefficient vector b. This module builds those matrices,
their exact kernels (the degree-r slices of the apolar ideal, with a
deterministic primitive integer basis) and the operator action itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import _intlinalg
from .poly_core import BinaryForm


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
