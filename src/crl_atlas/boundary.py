"""Rank-region boundaries: candidate components, membership, crossings.

The open region of forms of degree d with real rank exactly r has an
algebraic boundary contained in a union of dual varieties of coincident
root loci.  This module enumerates the candidate duals, tests whether a
given form lies on one numerically, and scans a segment between two
forms for rank changes, identifying the component at each crossing.

Membership on a dual variety is decided through the apolar criterion:
f lies on the dual of the locus with root pattern mu exactly when some
operator q = prod (x - t_i y)^(mu_i - 1) of degree d - len(mu)
annihilates f.  Roots are searched over the real projective line, with
each factor parametrized as (cos(theta) x - sin(theta) y) so the point
at infinity (theta = pi/2) needs no special casing.  The reported
residual is |A b| / |b| where A is the catalecticant of f (scaled
coefficients normalized to unit 2-norm, making the verdict invariant
under rescaling f) and b the coefficient vector of q.  For a single
part, mu = (d), the global minimum over the one root is found in closed
form by a polynomial root solve; several parts run local descents.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .apolarity import catalecticant, is_generic_degrees, scaled_coefficients
from .config import RunConfig
from .partitions import Partition, enumerate_partitions, format_partition
from .poly_core import BinaryForm, is_real_rooted, sturm_counter
from .rank import (
    SearchBudget,
    _derive_seed,
    _disc_poly_in_t,
    _residual_components,
    _residual_jacobian,
    parallel_map,
    real_rank,
    root_chart,
)

__all__ = [
    "BoundaryCandidateSet",
    "MembershipReport",
    "CrossingEvent",
    "candidate_components",
    "dual_membership",
    "crossing_scan",
]

THEOREM_EXACT = "theorem-exact"
THEOREM_SUPERSET = "theorem-superset"
EXPECTED_SHARP = "expected-sharp"

_GRID_VALUES = tuple(range(-3, 4))  # finite start roots per coordinate
_GRID_CAP = 2000
_BISECT_WIDTH = Fraction(1, 10**10)


@dataclass(frozen=True)
class BoundaryCandidateSet:
    """Candidate dual varieties bounding the region of real rank r."""

    d: int
    r: int
    mode: str
    members: tuple[tuple[Partition, str], ...]  # (mu, provenance)

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return tuple(mu for mu, _ in self.members)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "mode": self.mode,
            "candidates": [
                {"mu": format_partition(mu), "provenance": prov}
                for mu, prov in self.members
            ],
        }


def _partitions_of_lengths(d: int, lengths) -> list[Partition]:
    found: list[Partition] = []
    for length in sorted(set(lengths)):
        if length < 1:
            continue
        found.extend(enumerate_partitions(d, min_part=2, length=length))
    return sorted(set(found), reverse=True)


def _lowest_typical_rank(d: int) -> int:
    """The smallest real rank held on an open set of forms of degree d."""
    return d // 2 + 1


def candidate_components(d: int, r: int, mode: str = "expected") -> BoundaryCandidateSet:
    """Candidate components of the boundary between ranks r and r + 1.

    Proven cases carry provenance "theorem-exact" in both modes.  For
    the remaining ranks, theorem mode returns the proven superset and
    expected mode keeps only the two sharp lengths, dropping the
    all-twos partition for even d, which is known not to bound any
    region through degree 8 and conjectured never to.
    """
    if mode not in ("theorem", "expected"):
        raise ValueError("mode must be 'theorem' or 'expected'")
    if d < 3:
        raise ValueError("degree must be at least 3")
    if not _lowest_typical_rank(d) <= r <= d:
        raise ValueError(f"r={r} is not a typical rank for degree {d}")

    if d % 2 == 1:
        k = (d + 1) // 2
        i = r - k
        if i == 0 or i == k - 1:
            lengths = [k - 1] if i == 0 else [1]
            provenance = THEOREM_EXACT
        elif mode == "theorem":
            lengths = list(range(k - 1 - i, k))
            provenance = THEOREM_SUPERSET
        else:
            lengths = [k - i - 1, k - i]
            provenance = EXPECTED_SHARP
    else:
        k = d // 2
        i = r - k
        if i == 1 or i == k:
            lengths = [k - 1] if i == 1 else [1]
            provenance = THEOREM_EXACT
        elif mode == "theorem":
            lengths = list(range(k - i, k + 1))
            provenance = THEOREM_SUPERSET
        else:
            lengths = [k - i, k - i + 1]
            provenance = EXPECTED_SHARP

    partitions = _partitions_of_lengths(d, lengths)
    if mode == "expected" and d % 2 == 0:
        all_twos = Partition((2,) * k)
        partitions = [mu for mu in partitions if mu != all_twos]
    members = tuple((mu, provenance) for mu in partitions)
    return BoundaryCandidateSet(d, r, mode, members)


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the numerical membership test for one dual variety."""

    mu: Partition
    verdict: str  # "on", "off" or "inconclusive"
    residual: float
    witness_roots: tuple[float | None, ...]  # None marks the point at infinity
    witness_form: tuple[float, ...]  # coefficients of q, unit 2-norm
    tol_on: float
    tol_off: float

    def to_json(self) -> dict:
        return {
            "mu": format_partition(self.mu),
            "verdict": self.verdict,
            "residual": self.residual,
            "witness_roots": [
                "inf" if t is None else t for t in self.witness_roots
            ],
            "witness_form": list(self.witness_form),
            "tol_on": self.tol_on,
            "tol_off": self.tol_off,
        }


def _start_angles(n: int, seed: int) -> list[tuple[float, ...]]:
    options = [math.atan(v) for v in _GRID_VALUES] + [math.pi / 2]
    total = len(options) ** n
    if total <= _GRID_CAP:
        return [combo for combo in itertools.product(options, repeat=n)]
    rng = random.Random(_derive_seed(seed, "membership-grid", n))
    picks = rng.sample(range(total), _GRID_CAP)
    base = len(options)
    combos = []
    for index in sorted(picks):
        digits = []
        for _ in range(n):
            index, rem = divmod(index, base)
            digits.append(options[rem])
        combos.append(tuple(digits))
    return combos


def _roots_from_angles(thetas) -> tuple[float | None, ...]:
    roots: list[float | None] = []
    for theta in thetas:
        reduced = (theta + math.pi / 2) % math.pi - math.pi / 2
        if abs(math.cos(reduced)) < 1e-12:
            roots.append(None)
        else:
            roots.append(math.tan(reduced))
    return tuple(roots)


def _single_root_minimum(matrix, e: int) -> tuple[float, tuple[float]]:
    """Global minimum of the residual over one root of multiplicity e.

    With u = tan(theta), root_chart((theta,), (e,)) is cos(theta)^e times
    v(u) = (binom(e, k) (-u)^k)_k, so the squared residual is N(u) / D(u)
    with N = |matrix v(u)|^2 and D = |v(u)|^2, both of degree 2e.  Over
    the projective line its minimum lies at theta = pi/2 (u infinite) or
    at a real critical point, a real root of N' D - N D' (degree at most
    4e - 2).  Every root z gives the real candidate atan(Re z), and each
    candidate is scored by the residual itself, so a root found with a
    small imaginary part costs one more evaluation, never a wrong answer.
    Gauss-Newton steps on the residual then polish the best candidate
    for as long as they lower it, at most three times: the root solve
    places the angle to about 1e-15, which leaves residuals near 1e-15
    up to 2.3 times what a descent reaches.
    """
    import numpy as np

    def antidiagonal_sums(square):
        k = np.arange(len(square))
        return np.bincount(np.add.outer(k, k).ravel(), weights=square.ravel())

    v = np.array([math.comb(e, k) * (-1) ** k for k in range(e + 1)], dtype=float)
    rows = matrix * v  # row j: the coefficients of (matrix v(u))_j in u^0..u^e
    num = antidiagonal_sums(rows.T @ rows)  # N in u^0..u^2e
    den = antidiagonal_sums(np.diag(v**2))  # D in u^0..u^2e
    powers = np.arange(2 * e + 1)
    # N' D - N D' = sum_ij (i - j) n_i d_j u^(i + j - 1): the u^(4e - 1)
    # term has i = j and comes out exactly 0, which np.roots strips
    wronskian = antidiagonal_sums(
        np.subtract.outer(powers, powers) * np.outer(num, den)
    )[1:]
    angles = [math.pi / 2] + [math.atan(z.real) for z in np.roots(wronskian[::-1])]

    def residual(t):
        return float(np.linalg.norm(_residual_components((t,), matrix, (e,))))

    best_res, t = min(((residual(t), t) for t in angles), key=lambda item: item[0])
    for _ in range(3):
        r = _residual_components((t,), matrix, (e,))
        j = _residual_jacobian((t,), matrix, (e,))[:, 0]
        if not j @ j:
            break
        moved = t - (j @ r) / (j @ j)
        res = residual(moved)
        if not res < best_res:
            break
        best_res, t = res, moved
    return best_res, (t,)


def _swept_minimum(matrix, exponents, config: RunConfig) -> tuple[float, tuple]:
    """Least residual of local descents from the start grid, best start first."""
    import numpy as np
    # scipy.optimize costs about 0.5 s and 49 MB to import; only the
    # descent needs it, so callers that never test multi-part membership
    # skip it
    from scipy.optimize import least_squares

    starts = _start_angles(len(exponents), config.seed)
    scored = []
    for combo in starts:
        res = float(np.linalg.norm(_residual_components(combo, matrix, exponents)))
        scored.append((res, combo))
    scored.sort(key=lambda item: item[0])

    def _descend(combo):
        fit = least_squares(
            _residual_components,
            np.array(combo),
            jac=_residual_jacobian,
            args=(matrix, exponents),
            method="lm",
            max_nfev=400,
        )
        return float(np.linalg.norm(fit.fun)), tuple(fit.x)

    best_res, best_thetas = scored[0]
    # The grid residual is a weak basin predictor: descents from the
    # top-ranked starts can all stall in wrong basins while a start
    # further down converges.  So the sweep may run through the whole
    # grid before settling on a non-on verdict.
    for _, combo in scored:
        if best_res < config.tol_on:
            break
        res, thetas = _descend(combo)
        if res < best_res:
            best_res, best_thetas = res, thetas
    return best_res, best_thetas


def dual_membership(
    f: BinaryForm, mu, config: RunConfig | None = None
) -> MembershipReport:
    """Test whether f lies on the dual variety with root pattern mu.

    A single part, mu = (d), has one root to place, and the residual's
    global minimum over it is found in closed form by one polynomial
    root solve (``_single_root_minimum``).  Several parts run local
    descents over the root angles, with the residual's Jacobian in
    closed form, from the start grid in order of grid residual, until
    one ends below tol_on.  The verdict is "on" below tol_on, "off" when
    the least residual found is above tol_off, "inconclusive" otherwise.
    Only real roots are searched, so a form whose nearest witness has
    complex roots comes back off or inconclusive.
    """
    import numpy as np

    if config is None:
        config = RunConfig()
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    if f.is_zero:
        raise ValueError("membership of the zero form is undefined")
    if any(p < 2 for p in mu):
        raise ValueError("malformed dual partition: every part must be at least 2")
    if mu.weight != f.degree:
        raise ValueError(
            "malformed dual partition: parts must sum to the degree of f"
        )
    n = len(mu)
    s = f.degree - n
    exponents = tuple(m - 1 for m in mu)
    norm = np.linalg.norm(np.array(scaled_coefficients(f), dtype=float))
    matrix = np.array(catalecticant(f, s).entries, dtype=float) / norm

    if n == 1:
        best_res, best_thetas = _single_root_minimum(matrix, exponents[0])
    else:
        best_res, best_thetas = _swept_minimum(matrix, exponents, config)

    if best_res < config.tol_on:
        verdict = "on"
    elif best_res > config.tol_off:
        verdict = "off"
    else:
        verdict = "inconclusive"
    b = root_chart(best_thetas, exponents)
    b = b / np.linalg.norm(b)
    return MembershipReport(
        mu,
        verdict,
        best_res,
        _roots_from_angles(best_thetas),
        tuple(float(c) for c in b),
        config.tol_on,
        config.tol_off,
    )


@dataclass(frozen=True)
class CrossingEvent:
    """A localized rank change along the scanned segment."""

    eps_lo: Fraction
    eps_hi: Fraction
    r_left: int
    r_right: int
    memberships: tuple[MembershipReport, ...]
    anomaly: bool  # a wall between typical ranks with no candidate "on"

    @property
    def eps_mid(self) -> Fraction:
        return (self.eps_lo + self.eps_hi) / 2

    def to_json(self) -> dict:
        return {
            "eps_lo": str(self.eps_lo),
            "eps_hi": str(self.eps_hi),
            "eps_mid": float(self.eps_mid),
            "r_left": self.r_left,
            "r_right": self.r_right,
            "anomaly": self.anomaly,
            "memberships": [m.to_json() for m in self.memberships],
        }


def _path_form(f_from: BinaryForm, f_to: BinaryForm, eps: Fraction) -> BinaryForm:
    return f_from.scale(1 - eps) + f_to.scale(eps)


def _grid_rank(args) -> int:
    f_from, f_to, eps, budget, seed = args
    return real_rank(_path_form(f_from, f_to, eps), budget=budget, seed=seed).value


def _segment_hyperbolicity(f_from: BinaryForm, f_to: BinaryForm):
    """eps -> is_real_rooted(f_eps) on one segment, decided from disc(f_eps).

    p(eps) = disc((1 - eps) f_from + eps f_to) is a single integer
    polynomial of degree at most 2d - 2.  f_eps has a repeated root
    exactly where p vanishes, and its number of real roots changes only
    there, so hyperbolicity is constant between consecutive real roots
    of p.  The Sturm variations of p's chain number those intervals, and
    ``is_real_rooted`` runs once per interval that is asked about.
    """
    p = _disc_poly_in_t(f_from, f_to - f_from)
    if not p:  # every f_eps has a repeated root
        return lambda eps: False
    # away from the roots of p, the variations of its own chain count
    # distinct roots as those of its squarefree part's chain do
    at = sturm_counter(p)
    by_interval: dict[int, bool] = {}

    def hyperbolic(eps: Fraction) -> bool:
        sign, interval = at(eps)
        if not sign:  # on the discriminant, f_eps has a repeated root
            return False
        if interval not in by_interval:
            by_interval[interval] = is_real_rooted(_path_form(f_from, f_to, eps))
        return by_interval[interval]

    return hyperbolic


def crossing_scan(
    f_from: BinaryForm,
    f_to: BinaryForm,
    steps: int,
    config: RunConfig | None = None,
    threads: int = 1,
) -> list[CrossingEvent]:
    """Scan (1 - eps) f_from + eps f_to for real rank changes.

    Ranks are evaluated on an exact rational grid, each change is
    bisected to an interval of width 1e-10, and the form at the
    interval midpoint is tested against the expected candidate duals
    for the smaller of the two ranks when that rank is typical; a wall
    down to a smaller rank has no candidates and is never an anomaly.
    A squarefree form has real rank d exactly when it is hyperbolic, so
    one predicate decides hyperbolicity for the whole scan: it builds
    the integer polynomial p(eps) = disc(f_eps) once, counts a point on
    the discriminant as not hyperbolic, and runs ``is_real_rooted`` once
    per interval between consecutive roots of p.  The grid gives its
    hyperbolic points rank d without a witness and ranks only the others
    with ``real_rank``; a change between ranks d - 1 and d is bisected
    on the same predicate, and every other change on ``real_rank``.
    Every rank depends only on its form, the budget and the seed, so
    the grid ranks are the same for any number of worker processes.
    """
    if config is None:
        config = RunConfig()
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if f_from.degree != f_to.degree:
        raise ValueError("degree mismatch between the segment endpoints")
    for endpoint, name in ((f_from, "f_from"), (f_to, "f_to")):
        if not is_generic_degrees(endpoint):
            raise ValueError(
                f"{name}: annihilator is not generated in generic degrees"
            )
    d = f_from.degree
    budget = SearchBudget(samples=config.rank_samples, restarts=config.multistarts)
    hyperbolic = _segment_hyperbolicity(f_from, f_to)

    grid = [d if hyperbolic(Fraction(i, steps)) else None for i in range(steps + 1)]
    jobs = [
        (f_from, f_to, Fraction(i, steps), budget, config.seed)
        for i, r in enumerate(grid)
        if r is None
    ]
    ranks = iter(parallel_map(_grid_rank, jobs, threads))
    grid = [next(ranks) if r is None else r for r in grid]

    events: list[CrossingEvent] = []
    for i in range(steps):
        r_left, r_right = grid[i], grid[i + 1]
        if r_left == r_right:
            continue
        lo, hi = Fraction(i, steps), Fraction(i + 1, steps)
        on_hyperbolicity_wall = {r_left, r_right} == {d - 1, d}
        while hi - lo > _BISECT_WIDTH:
            mid = (lo + hi) / 2
            if on_hyperbolicity_wall:
                left = hyperbolic(mid) == (r_left == d)
            else:
                f = _path_form(f_from, f_to, mid)
                left = real_rank(f, budget=budget, seed=config.seed).value == r_left
            if left:
                lo = mid
            else:
                hi = mid
        memberships, anomaly = (), False
        r_low = min(r_left, r_right)
        if r_low >= _lowest_typical_rank(d):
            f_mid = _path_form(f_from, f_to, (lo + hi) / 2)
            memberships = tuple(
                dual_membership(f_mid, mu, config)
                for mu in candidate_components(d, r_low, "expected").partitions
            )
            anomaly = not any(m.verdict == "on" for m in memberships)
        events.append(
            CrossingEvent(lo, hi, r_left, r_right, memberships, anomaly)
        )
    return events
