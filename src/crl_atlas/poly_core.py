"""Exact arithmetic for binary forms over the rationals.

A binary form of degree d is stored as the coefficient tuple (c_0, ..., c_d)
of f = sum_i c_i x^(d-i) y^i in the plain monomial basis, so c_0 multiplies
x^d. Real-root counting works projectively: the root [1:0] at infinity is
tracked through the power of y split off before dehomogenizing, never by
perturbation. Everything in this module is exact; floats never appear.

Convention: Fraction lives at the API only, in BinaryForm coefficients,
isolating-interval endpoints and the monic gcds and squarefree parts
handed back. Inside, univariate work runs on primitive integer
polynomials: gcds and Sturm chains are primitive pseudo-remainder
sequences (Collins 1967; Brown-Traub 1971), and the sign of p at a
rational a/b is the sign of the integer sum c_i a^i b^(n-i).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import _intlinalg

Rational = Fraction
UvPoly = list[Fraction]  # ascending coefficients, no trailing zeros, [] is zero
IntPoly = list[int]  # the same, integer and primitive


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    return Fraction(text.strip())


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, slots=True)
class BinaryForm:
    """Homogeneous polynomial in x, y with exact rational coefficients."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")

    @classmethod
    def from_coeffs(cls, coeffs) -> "BinaryForm":
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("empty coefficient list")
        return cls(len(cs) - 1, cs)

    @classmethod
    def zero(cls, degree: int) -> "BinaryForm":
        return cls(degree, tuple(Fraction(0) for _ in range(degree + 1)))

    @classmethod
    def from_roots(cls, roots, infinity: int = 0) -> "BinaryForm":
        """Product of (x - t*y) over the given roots times y^infinity.

        Repeat a root to get higher multiplicity. Multiplying by y prepends
        a zero coefficient (it shifts every monomial one step up in y).
        """
        coeffs = [Fraction(1)]
        for t in roots:
            t = Fraction(t)
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c
                nxt[i + 1] -= c * t
            coeffs = nxt
        coeffs = [Fraction(0)] * infinity + coeffs
        return cls.from_coeffs(coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def scale(self, c) -> "BinaryForm":
        c = Fraction(c)
        return BinaryForm(self.degree, tuple(c * v for v in self.coeffs))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return BinaryForm(
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + other.scale(-1)

    def __neg__(self) -> "BinaryForm":
        return self.scale(-1)

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        d = self.degree + other.degree
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return BinaryForm(d, tuple(out))

    def primitive(self) -> "BinaryForm":
        """Integer-primitive scalar multiple with first nonzero coefficient > 0."""
        if self.is_zero:
            raise ValueError("zero form has no primitive representative")
        vec = _intlinalg.primitive_vector(list(self.coeffs))
        return BinaryForm(self.degree, tuple(Fraction(v) for v in vec))

    def to_json(self, dual: bool = False) -> dict:
        data = {
            "degree": self.degree,
            "coeffs": [format_rational(c) for c in self.coeffs],
        }
        if dual:
            data["dual"] = True
        return data

    @classmethod
    def from_json(cls, data: dict) -> "BinaryForm":
        coeffs = [parse_rational(c) for c in data["coeffs"]]
        form = cls.from_coeffs(coeffs)
        if form.degree != data["degree"]:
            raise ValueError("degree field disagrees with coefficient count")
        return form

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            xs = self.degree - i
            mono = "*".join(
                s
                for s in (
                    f"x^{xs}" if xs > 1 else ("x" if xs == 1 else ""),
                    f"y^{i}" if i > 1 else ("y" if i == 1 else ""),
                )
                if s
            )
            if not mono:
                parts.append(format_rational(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{format_rational(c)}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


# ---------------------------------------------------------------------------
# univariate polynomials
#
# Public helpers take ascending lists of rationals; the work runs on
# IntPoly. Denominators are cleared once on entry, and every remainder is
# a pseudo-remainder taken with a positive multiplier and divided by its
# positive content, so each polynomial is a positive multiple of the one
# rational arithmetic would produce: no sign, Sturm count or isolating
# interval changes.


def uv_degree(p) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def _primitive(p: list[int]) -> IntPoly:
    """p without trailing zeros, divided by its positive content."""
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    p = p[:end]
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _int_poly(p) -> IntPoly:
    """The primitive integer multiple of a rational polynomial, lc > 0."""
    q = _primitive(_intlinalg.clear_denominators(p)[0])
    return [-c for c in q] if q and q[-1] < 0 else q


def _deriv(p: IntPoly) -> IntPoly:
    return _primitive([i * c for i, c in enumerate(p)][1:])


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive part of |lc(b)|^k * (a mod b) for some k >= 0.

    Each step multiplies the running remainder by |lc(b)| before it cancels
    the leading term, so the result is a positive multiple of the rational
    remainder: signs survive, which Sturm chains need.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    scale = abs(lb)
    sign = 1 if lb > 0 else -1
    while len(r) > db:
        c = r.pop() * sign
        if c:
            shift = len(r) - db
            if scale != 1:
                r = [scale * x for x in r]
            for i in range(db):
                r[shift + i] -= c * b[i]
    return _primitive(r)


def _gcd_int(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd up to sign, by the primitive remainder sequence."""
    while b:
        a, b = b, _prem(a, b)
    return a


def _exact_quo(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b for a primitive divisor b of a (integral by Gauss's lemma)."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in reversed(range(len(q))):
        c, rem = divmod(r[k + db], lb)
        if rem:
            raise ArithmeticError("gcd does not divide its polynomial")
        q[k] = c
        if c:
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
    if any(r[:db]):
        raise ArithmeticError("gcd does not divide its polynomial")
    return q


def _squarefree_int(p: IntPoly) -> IntPoly:
    """Squarefree part of p from _int_poly, again primitive with lc > 0."""
    if len(p) < 3:
        return p
    g = _gcd_int(p, _deriv(p))
    if len(g) == 1:
        return p
    q = _exact_quo(p, g)
    return [-c for c in q] if q[-1] < 0 else q


def uv_gcd(a, b) -> UvPoly:
    """Monic gcd over the rationals; [] when both inputs are zero."""
    g = _gcd_int(_int_poly(a), _int_poly(b))
    return [Fraction(c, g[-1]) for c in g]


def uv_squarefree_part(p) -> UvPoly:
    """Monic squarefree part over the rationals; [] for the zero polynomial."""
    q = _squarefree_int(_int_poly(p))
    return [Fraction(c, q[-1]) for c in q]


def sturm_chain(p) -> list[IntPoly]:
    """Sturm chain of a nonzero polynomial, primitive-integer normalized.

    Every element is a positive multiple of the classical chain's element.
    The last element is gcd(p, p') up to a constant, so p is squarefree
    exactly when it is a constant; either way the sign variations at -oo
    and +oo differ by the number of distinct real roots, because dividing
    the whole chain by that gcd changes no variation.
    """
    chain = [_primitive(_intlinalg.clear_denominators(p)[0])]
    d = _deriv(chain[0])
    if d:
        chain.append(d)
    while len(chain) >= 2:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _sturm_signs_at(chain: list[IntPoly], x: Fraction) -> list[int]:
    """Signs of the chain at x = num/den: sign of sum c_i num^i den^(n-i)."""
    num, den = x.numerator, x.denominator
    den_pow = [1]
    for _ in range(max(len(q) for q in chain)):
        den_pow.append(den_pow[-1] * den)
    out = []
    for q in chain:
        n = len(q) - 1
        acc = q[n]
        for i in range(n - 1, -1, -1):
            acc = acc * num + q[i] * den_pow[n - i]
        out.append((acc > 0) - (acc < 0))
    return out


def _sturm_signs_at_inf(chain: list[IntPoly], positive: bool) -> list[int]:
    out = []
    for q in chain:
        s = 1 if q[-1] > 0 else -1
        if not positive and len(q) % 2 == 0:  # odd degree
            s = -s
        out.append(s)
    return out


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def uv_root_bound(p) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-B, B)."""
    q = _int_poly(p)
    if len(q) < 2:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in q[:-1]), q[-1])


def isolate_real_roots(p) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals isolating the distinct real roots.

    Each (a, b) satisfies a < root < b, contains exactly one root of the
    squarefree part of p, and the endpoints are never roots.
    """
    ps = _squarefree_int(_int_poly(p))
    if len(ps) < 2:
        return []
    chain = sturm_chain(ps)
    bound = uv_root_bound(ps)
    # (sign of ps, sign variations of the chain) per point; keyed by the
    # ints because hashing a Fraction costs a modular inverse
    seen: dict[tuple[int, int], tuple[int, int]] = {}

    def at(x: Fraction) -> tuple[int, int]:
        key = (x.numerator, x.denominator)
        if key not in seen:
            signs = _sturm_signs_at(chain, x)
            seen[key] = (signs[0], _variations(signs))
        return seen[key]

    def count(a: Fraction, b: Fraction) -> int:
        return at(a)[1] - at(b)[1]

    def split_point(lo: Fraction, hi: Fraction) -> Fraction:
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        for num, den in ((1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (3, 7), (4, 7)):
            # lo + (hi - lo) * num / den, normalized once
            cand = Fraction(a * d * (den - num) + c * b * num, b * d * den)
            if at(cand)[0] != 0:
                return cand
        raise ArithmeticError("could not find a non-root split point")

    out: list[tuple[Fraction, Fraction]] = []

    def recurse(lo: Fraction, hi: Fraction) -> None:
        n = count(lo, hi)
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = split_point(lo, hi)
        recurse(lo, mid)
        recurse(mid, hi)

    recurse(-bound, bound)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# binary form operations


def derivative(f: BinaryForm, var: str) -> BinaryForm:
    """Formal partial derivative; the result always has degree d - 1."""
    d = f.degree
    if d == 0:
        raise ValueError("cannot lower the degree of a constant form")
    if var == "x":
        return BinaryForm(d - 1, tuple((d - i) * f.coeffs[i] for i in range(d)))
    if var == "y":
        return BinaryForm(d - 1, tuple((i + 1) * f.coeffs[i + 1] for i in range(d)))
    raise ValueError("var must be 'x' or 'y'")


def _split_y_power(f: BinaryForm) -> tuple[int, UvPoly]:
    """Write f = y^a * g with g(1, 0) != 0; returns (a, dehomogenization of g).

    The returned univariate polynomial is g(z, 1) in ascending order, and its
    degree equals deg g, so no root information hides at infinity.
    """
    a = next(i for i, c in enumerate(f.coeffs) if c != 0)
    # c_i multiplies z^(d-i); ascending index k = d - i, and c_a != 0 leads
    return a, list(reversed(f.coeffs[a:]))


def gcd_poly(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic gcd of two binary forms.

    The y-power of each input is split off and tracked explicitly, the
    dehomogenized parts run through the univariate Euclid, and the result is
    rehomogenized. Monic means the first nonzero coefficient is 1. Raises
    when both inputs are zero.
    """
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero forms is undefined")
    if f.is_zero or g.is_zero:
        h = g if f.is_zero else f
        lead = next(c for c in h.coeffs if c != 0)
        return h.scale(1 / lead)
    af, pf = _split_y_power(f)
    ag, pg = _split_y_power(g)
    h = uv_gcd(pf, pg)
    return _homogenize_with_y(h, min(af, ag))


def _homogenize_with_y(p: UvPoly, y_power: int) -> BinaryForm:
    """Binary form y^y_power * P(x, y) where P homogenizes p to its degree."""
    m = uv_degree(p)
    if m < 0:
        raise ValueError("cannot homogenize the zero polynomial")
    # P has coefficients c_i = p[m - i] for x^(m-i) y^i; multiplying by y^a
    # shifts every y exponent up by a.
    d = m + y_power
    coeffs = [Fraction(0)] * (d + 1)
    for i in range(m + 1):
        coeffs[i + y_power] = p[m - i]
    return BinaryForm(d, tuple(coeffs))


def is_squarefree(f: BinaryForm) -> bool:
    """True when no projective root (including [1:0]) is repeated."""
    if f.is_zero:
        raise ValueError("squarefreeness of the zero form is undefined")
    return count_real_roots(f)[1]


def count_real_roots(f: BinaryForm) -> tuple[int, bool]:
    """(number of distinct real projective roots, all roots simple).

    One Sturm chain of the dehomogenization decides both: f = y^a * g
    has the root [1:0] when a > 0 and a repeated one when a > 1, g(z, 1)
    keeps the degree of g, so its chain counts the finite roots from the
    signs at -oo and +oo and ends in a constant exactly when they are
    all simple.
    """
    if f.is_zero:
        raise ValueError("the zero form has no root count")
    if f.degree == 0:
        return 0, True
    a, p = _split_y_power(f)
    at_infinity = 1 if a > 0 else 0
    if len(p) < 2:
        return at_infinity, a <= 1
    chain = sturm_chain(p)
    below = _variations(_sturm_signs_at_inf(chain, positive=False))
    above = _variations(_sturm_signs_at_inf(chain, positive=True))
    return below - above + at_infinity, a <= 1 and len(chain[-1]) == 1


def is_real_rooted(f: BinaryForm) -> bool:
    """True when f splits into d distinct real linear factors."""
    count, simple = count_real_roots(f)
    return simple and count == f.degree


def resultant(f: BinaryForm, g: BinaryForm) -> Fraction:
    """Resultant of two binary forms via the Sylvester determinant.

    Both forms enter with their full formal degrees, so roots at infinity
    need no special treatment: the resultant vanishes exactly when the forms
    share a projective root.
    """
    m, n = f.degree, g.degree
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    fc, gc = list(f.coeffs), list(g.coeffs)
    for i in range(n):
        rows.append([0] * i + fc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (size - n - 1 - i))
    return _intlinalg.det(rows)


def discriminant(f: BinaryForm) -> Fraction:
    """Resultant of the two partials; zero iff f has a repeated projective root."""
    if f.degree <= 1:
        return Fraction(1)
    fx = derivative(f, "x")
    fy = derivative(f, "y")
    if fx.is_zero or fy.is_zero:
        return Fraction(0)
    return resultant(fx, fy)
