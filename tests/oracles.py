"""Independent reference implementations used by the test suite.

Everything here reimplements functionality from scratch on purpose: the
tests compare library results against these slower, structurally
different routes, so shared bugs are unlikely.  Only `BinaryForm` and
`Fraction` are used as data carriers, and `Fraction` appears only where
a function takes or returns values: inside, polynomials are lists of
integers.

Root counting goes through Descartes' rule with interval bisection
(Vincent-Collins-Akritas: integer Taylor shifts by 1 and halvings)
instead of Sturm chains, and squarefree parts through a pseudo-remainder
Euclid on descending coefficient lists.  Kernel computations use
textbook Gaussian elimination over `Fraction` instead of the library's
fraction-free integer elimination, and the operator-action matrix is
assembled from raw monomial differentiation instead of the scaled Hankel
pairing.  The partition counts subtract from lam, where the library's
multiplicity adds to the child, and take partitions as plain tuples.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, perm

from crl_atlas.poly_core import BinaryForm

# ---------------------------------------------------------------------------
# dense univariate helpers, coefficients DESCENDING (leading first)


def _strip(p: list) -> list:
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _poly_rem(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = num[:]
    for i in range(len(num) - len(den) + 1):
        q = num[i] / den[0]
        for k, dc in enumerate(den):
            num[i + k] -= q * dc
    return _strip(num)


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd by the rational Euclidean algorithm."""
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _poly_rem(a, b)
    if not a:
        return []
    return [c / a[0] for c in a]


def _eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def interpolate(points: list[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """The polynomial of degree below len(points) through (x, y), distinct x.

    Lagrange form, expanded exactly; [] for the zero polynomial.
    """
    out = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis, denom = [Fraction(1)], Fraction(1)  # prod over k != i of (z - x_k)
        for k, (xk, _) in enumerate(points):
            if k != i:
                basis = [a - xk * b for a, b in zip(basis + [0], [0] + basis)]
                denom *= xi - xk
        scale = yi / denom
        out = [o + scale * c for o, c in zip(out, basis)]
    return _strip(out)


def _integers(values) -> tuple[list[int], int]:
    """(integers n_i, positive den) with values[i] == n_i / den."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _content_free(p: list[int]) -> list[int]:
    """p without leading zeros, divided by the gcd of its coefficients."""
    p = _strip(p)
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _int_rem(a: list[int], b: list[int]) -> list[int]:
    """Content-free pseudo-remainder of a by b (both nonzero, descending)."""
    a = a[:]
    lb, nb = b[0], len(b)
    while len(a) >= nb:
        c = a.pop(0)
        if c:
            a = [lb * x for x in a]
            for k in range(1, nb):
                a[k - 1] -= c * b[k]
    return _content_free(a)


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Content-free gcd of two nonzero integer polynomials, up to sign."""
    while b:
        a, b = b, _int_rem(a, b)
    return a


def _int_div(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient num / den over the integers."""
    num = num[:]
    out = []
    for i in range(len(num) - len(den) + 1):
        q, r = divmod(num[i], den[0])
        if r:
            raise ArithmeticError("inexact integer polynomial division")
        out.append(q)
        for k, dc in enumerate(den):
            num[i + k] -= q * dc
    if any(num):
        raise ArithmeticError("inexact integer polynomial division")
    return out


def _int_squarefree(p: list[int]) -> list[int]:
    """p divided by gcd(p, p'), for a nonzero content-free p."""
    n = len(p) - 1
    if n < 1:
        return p
    g = _int_gcd(p, _content_free([c * (n - i) for i, c in enumerate(p[:-1])]))
    return p if len(g) == 1 else _int_div(p, g)


def squarefree_part(p: list[Fraction]) -> list[Fraction]:
    """p divided by its monic gcd with p'; the leading coefficient stays."""
    p = _strip(p)
    if len(p) <= 1:
        return p
    part = _int_squarefree(_content_free(_integers(p)[0]))
    if len(part) == len(p):
        return p
    scale = Fraction(p[0]) / part[0]
    return [c * scale for c in part]


def _sign_changes(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _taylor_shift(asc: list[int], c: int = 1) -> list[int]:
    """Ascending coefficients of q(t + c), by the classical Taylor shift."""
    a = asc[:]
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _roots_in_unit_interval(asc: list[int]) -> int:
    """Distinct roots in the open (0, 1) of a squarefree integer polynomial.

    Descartes' rule on (1 + s)^n q(1 / (1 + s)) bounds the count and is
    exact when the bound is 0 or 1; otherwise halve: 2^n q(t / 2) covers
    (0, 1/2), its shift by one covers (1/2, 1), and its coefficient sum
    is 2^n q(1/2).
    """
    bound = _sign_changes(_taylor_shift(asc[::-1]))
    if bound <= 1:
        return bound
    n = len(asc) - 1
    left = [c << (n - k) for k, c in enumerate(asc)]
    right = _taylor_shift(left)
    here = 1 if right[0] == 0 else 0
    return _roots_in_unit_interval(left) + here + _roots_in_unit_interval(right)


def _int_roots_in(p: list[int], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of squarefree integer p (descending) in the open (lo, hi).

    With lo = a / D and hi = b / D, the map x = (a + (b - a) t) / D sends
    (0, 1) onto (lo, hi), and D^n p((a + (b - a) t) / D) is an integer
    polynomial in t.
    """
    n = len(p) - 1
    if n < 1:
        return 0
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    width = hi.numerator * (den // hi.denominator) - a
    # ascending coefficients of D^n p(u / D), then u = a + v, v = width * t
    asc = _taylor_shift([c * den**i for i, c in enumerate(p)][::-1], a)
    return _roots_in_unit_interval([c * width**k for k, c in enumerate(asc)])


def count_roots_in(p: list[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Exact count of distinct roots of squarefree p in the open (lo, hi)."""
    p = _strip(p)
    if len(p) <= 1:
        return 0
    return _int_roots_in(_integers(p)[0], Fraction(lo), Fraction(hi))


def _affine_part(f: BinaryForm) -> list[int]:
    """Content-free integer coefficients of f(t, 1), leading zeros dropped."""
    return _content_free(_integers(f.coeffs)[0])


def _int_real_roots(p: list[int]) -> int:
    """Distinct real roots of a squarefree integer polynomial (descending).

    No root bound is needed: x -> 1/x sends (1, oo) onto (0, 1), and
    x -> -x the negative roots onto the positive ones.
    """
    asc = p[::-1]
    count = 0
    if len(asc) > 1 and asc[0] == 0:
        count, asc = 1, asc[1:]  # the root 0, simple since p is squarefree
    if len(asc) <= 1:
        return count
    for q in (asc, [-c if k % 2 else c for k, c in enumerate(asc)]):
        count += _roots_in_unit_interval(q) + (sum(q) == 0)
        count += _roots_in_unit_interval(q[::-1])
    return count


def oracle_count_real_roots(f: BinaryForm) -> int:
    """Distinct real projective roots of f, counting [1:0] at infinity.

    Independent route: squarefree part by a pseudo-remainder Euclid,
    then Descartes bisection on (0, 1) after the maps x -> 1/x, x -> -x.
    """
    at_infinity = 1 if f.coeffs[0] == 0 else 0
    return _int_real_roots(_int_squarefree(_affine_part(f))) + at_infinity


def oracle_is_squarefree(f: BinaryForm) -> bool:
    """True when no projective root of f, [1:0] included, is repeated."""
    p = _affine_part(f)
    return len(f.coeffs) - len(p) <= 1 and len(_int_squarefree(p)) == len(p)


def oracle_is_real_rooted(f: BinaryForm) -> bool:
    """True when f splits into distinct real linear factors.

    A degree-d form does so exactly when it has d distinct projective
    roots and already equals its squarefree part.
    """
    if f.is_zero:
        return False
    p = _affine_part(f)
    drop = len(f.coeffs) - len(p)
    if drop > 1:
        return False  # y^2 divides f
    affine = _int_squarefree(p)
    if len(affine) != len(p):
        return False  # repeated affine root
    return _int_real_roots(affine) + drop == f.degree


# ---------------------------------------------------------------------------
# independent linear algebra (plain Gaussian elimination over Fraction)


def gauss_kernel(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix, by textbook elimination."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    a = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        sel = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        inv = a[rank][col]
        a[rank] = [v / inv for v in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [v - factor * w for v, w in zip(a[i], a[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -a[prow][fc]
        basis.append(vec)
    return basis


def gauss_rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    return len(rows[0]) - len(gauss_kernel(rows))


def annihilated_forms(q: BinaryForm, d: int) -> list[BinaryForm]:
    """Basis of degree-d forms killed by the operator q, built from scratch.

    The action matrix comes from first principles: the j-th term of
    q = sum b_j Dx^(s-j) Dy^j sends x^(d-i) y^i to a falling-factorial
    multiple of x^(d-i-s+j) y^(i-j).
    """
    s = q.degree
    rows = [[Fraction(0)] * (d + 1) for _ in range(d - s + 1)]
    for i in range(d + 1):
        for j, b in enumerate(q.coeffs):
            if b == 0:
                continue
            dx, dy = s - j, j
            if d - i < dx or i < dy:
                continue
            falling = (factorial(d - i) // factorial(d - i - dx)) * (
                factorial(i) // factorial(i - dy)
            )
            rows[i - dy][i] += b * falling
    kernel = gauss_kernel(rows)
    return [BinaryForm(d, tuple(vec)) for vec in kernel]


def oracle_apply(q: BinaryForm, f: BinaryForm) -> BinaryForm:
    """q(Dx, Dy) applied to f by expanding raw monomial derivatives."""
    d, s = f.degree, q.degree
    fs, f_den = _integers(f.coeffs)
    qs, q_den = _integers(q.coeffs)
    out = [0] * (d - s + 1)
    for i, c in enumerate(fs):
        if c == 0:
            continue
        for j, b in enumerate(qs):
            if b == 0:
                continue
            dx, dy = s - j, j
            if d - i < dx or i < dy:
                continue
            out[i - dy] += c * b * perm(d - i, dx) * perm(i, dy)
    den = f_den * q_den
    return BinaryForm(d - s, tuple(Fraction(v, den) for v in out))


def form_mul(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Product of two binary forms by coefficient convolution."""
    out = [Fraction(0)] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return BinaryForm(f.degree + g.degree, tuple(out))


def form_add(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    if f.degree != g.degree:
        raise ValueError("degree mismatch")
    return BinaryForm(f.degree, tuple(a + b for a, b in zip(f.coeffs, g.coeffs)))


def swap_xy(f: BinaryForm) -> BinaryForm:
    """The form f(y, x): the coefficient tuple reversed."""
    return BinaryForm(f.degree, tuple(reversed(f.coeffs)))


def gl2_act(f: BinaryForm, matrix) -> BinaryForm:
    """The form f(a x + b y, c x + d y) for matrix = (a, b, c, d), exactly."""
    a, b, c, d = (Fraction(v) for v in matrix)
    u, v = BinaryForm(1, (a, b)), BinaryForm(1, (c, d))
    out = [Fraction(0)] * (f.degree + 1)
    for i, coeff in enumerate(f.coeffs):
        term = BinaryForm(0, (coeff,))
        for factor in [u] * (f.degree - i) + [v] * i:
            term = form_mul(term, factor)
        out = [s + t for s, t in zip(out, term.coeffs)]
    return BinaryForm(f.degree, tuple(out))


def random_form(rng: random.Random, d: int, spread: int = 20) -> BinaryForm:
    while True:
        coeffs = tuple(
            Fraction(rng.randint(-spread, spread), rng.randint(1, 6))
            for _ in range(d + 1)
        )
        f = BinaryForm(d, coeffs)
        if not f.is_zero:
            return f


# ---------------------------------------------------------------------------
# partition counts, partitions as weakly decreasing tuples


def aut(parts) -> int:
    """Product of factorials of the part-value multiplicities."""
    out = 1
    for value in set(parts):
        out *= factorial(parts.count(value))
    return out


def padded_aut(parts, n: int) -> int:
    """aut of the partition padded with zero parts up to length n."""
    if n < len(parts):
        raise ValueError("cannot pad to a shorter length")
    return aut(parts) * factorial(n - len(parts))


def _subtract(lam, positions) -> tuple[int, ...]:
    """lam with 1 taken from each given position, zero parts dropped."""
    reduced = (p - 1 if i in positions else p for i, p in enumerate(lam))
    return tuple(sorted((p for p in reduced if p > 0), reverse=True))


def descendants(lam, j: int) -> list[tuple[int, ...]]:
    """Subtract 1 from exactly j distinct positions of lam; drop zero parts.

    Returns the distinct nonempty results in descending lexicographic order.
    """
    if not 0 <= j <= len(lam):
        raise ValueError("j must lie between 0 and the number of parts")
    seen = {_subtract(lam, positions) for positions in combinations(range(len(lam)), j)}
    seen.discard(())
    return sorted(seen, reverse=True)


def subtraction_count(child, lam) -> int:
    """How many j-subsets of lam's positions reduce lam to this child.

    Summed over all j-th descendants it gives C(len(lam), j), less one
    when every part dies, and it differs from the library's multiplicity
    by the ratio of padded automorphism factors.
    """
    n = len(lam)
    j = sum(lam) - sum(child)
    if not 0 <= j <= n:
        return 0
    target = tuple(child)
    return sum(
        _subtract(lam, positions) == target
        for positions in combinations(range(n), j)
    )
