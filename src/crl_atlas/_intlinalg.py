"""Fraction-free exact linear algebra for small dense rational matrices.

Bareiss elimination keeps every intermediate entry an integer (each is a
minor of the input), so coefficient swell stays bounded by determinant
size. All matrices here are tiny (catalecticants and Sylvester blocks,
at most a few dozen rows), so no attention is paid to sparsity.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod


def clear_denominators(values) -> tuple[list[int], int]:
    """(ints, den) with ints[i] = den * values[i] and den the lcm of denominators.

    Values may be Fraction or int; no Fraction arithmetic happens here.
    """
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _as_int_rows(rows: list[list]) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row. Returns integer rows and the scale of each."""
    cleared = [clear_denominators(row) for row in rows]
    return [ints for ints, _ in cleared], [den for _, den in cleared]


def _exact_div(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("Bareiss division was not exact")
    return q


def _bareiss(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free row echelon form of the integer matrix a, in place.

    Returns (pivot columns, sign of the row permutation). Row order below
    the pivots is deterministic: the first row with a nonzero entry in the
    current column is promoted. On a square matrix of full rank the last
    pivot entry times the sign is the determinant.
    """
    m = len(a)
    if m == 0:
        return [], 1
    n = len(a[0])
    pivots: list[int] = []
    sign = 1
    prev = 1
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        rr = a[rank]
        p = rr[col]
        # every row below is rescaled each step, zero multiplier or not,
        # otherwise the next division by prev is no longer exact; columns
        # left of col are already zero below the pivot row
        for i in range(rank + 1, m):
            ri = a[i]
            q = ri[col]
            for c in range(col + 1, n):
                ri[c] = _exact_div(p * ri[c] - q * rr[c], prev)
            ri[col] = 0
        prev = p
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return pivots, sign


def matrix_rank(rows: list[list[Fraction]]) -> int:
    int_rows, _ = _as_int_rows(rows)
    return len(_bareiss(int_rows)[0])


def primitive_vector(v: list) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector.

    Deterministic: the first nonzero entry comes out positive.
    """
    ints, _ = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def kernel_basis(rows: list[list], ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel, one vector per free column.

    Basis vectors are ordered by free column index and normalized by
    primitive_vector, so repeated calls give identical output. Back
    substitution stays in the integers: before solving for a pivot entry
    the partial vector is multiplied by the smallest positive factor that
    makes that entry integral.
    """
    if not rows:
        basis = []
        for fc in range(ncols):
            v = [0] * ncols
            v[fc] = 1
            basis.append(tuple(v))
        return basis
    ech, _ = _as_int_rows(rows)
    pivots, _ = _bareiss(ech)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for k in reversed(range(len(pivots))):
            pc = pivots[k]
            row = ech[k]
            s = sum(row[c] * v[c] for c in range(pc + 1, ncols))
            p = row[pc]
            g = gcd(s, p)
            mult = abs(p) // g
            if mult != 1:
                v = [mult * x for x in v]
            v[pc] = -s // g if p > 0 else s // g
        basis.append(primitive_vector(v))
    return basis


def det(rows: list[list]) -> Fraction:
    """Exact determinant via Bareiss with row pivoting; entries Fraction or int."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    a, scales = _as_int_rows(rows)
    pivots, sign = _bareiss(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * a[n - 1][n - 1], prod(scales))


def solve(a_rows: list[list], b: list) -> list[Fraction] | None:
    """Solve the square rational system A x = b through kernel_basis.

    The kernel of [A | -b] is spanned by (x, 1) exactly when A is
    nonsingular. Returns None when A is singular: the kernel is then
    more than one-dimensional (consistent b) or every element has last
    entry 0 (inconsistent b).
    """
    n = len(a_rows)
    rows = [list(row) + [-b[i]] for i, row in enumerate(a_rows)]
    kernel = kernel_basis(rows, n + 1)
    if len(kernel) != 1 or kernel[0][n] == 0:
        return None
    v = kernel[0]
    return [Fraction(x, v[n]) for x in v[:n]]
