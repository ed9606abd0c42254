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
under rescaling f) and b the coefficient vector of q.
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
from .poly_core import (
    BinaryForm,
    _sturm_signs_at,
    _variations,
    is_real_rooted,
    sturm_chain,
)
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
    minimal = (d + 2) // 2 if d % 2 == 0 else (d + 1) // 2
    if not minimal <= r <= d:
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


def dual_membership(
    f: BinaryForm, mu, config: RunConfig | None = None
) -> MembershipReport:
    """Test whether f lies on the dual variety with root pattern mu.

    Local descents over the root angles, with the residual's Jacobian in
    closed form, from the start grid in order of grid residual, until
    one ends below tol_on; verdict "on" below tol_on, "off" when every
    start ends above tol_off, "inconclusive" otherwise.  Only real roots
    are searched, so a form whose nearest witness has complex roots
    comes back off or inconclusive.
    """
    # scipy.optimize costs about 0.5 s and 49 MB to import; only the
    # descent needs it, so callers that never test membership skip it
    import numpy as np
    from scipy.optimize import least_squares

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

    starts = _start_angles(n, config.seed)
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
    anomaly: bool  # no candidate came back "on"

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
    f = _path_form(f_from, f_to, eps)
    if is_real_rooted(f):
        # real_rank's own first branch, without the witness nobody reads
        return f.degree
    return real_rank(f, budget=budget, seed=seed).value


class _SegmentHyperbolicity:
    """is_real_rooted(f_eps) on one segment, decided from disc(f_eps).

    p(eps) = disc((1 - eps) f_from + eps f_to) is a single integer
    polynomial of degree at most 2d - 2.  f_eps has a repeated root
    exactly where p vanishes, and its number of real roots changes only
    there, so hyperbolicity is constant on every interval free of roots
    of p.  A point whose interval to a known end holds no root of p (the
    Sturm variations agree) takes that end's hyperbolicity; only a point
    with roots of p on both sides runs is_real_rooted.
    """

    def __init__(self, f_from: BinaryForm, f_to: BinaryForm) -> None:
        self.f_from, self.f_to = f_from, f_to
        p = _disc_poly_in_t(f_from, f_to - f_from)
        # away from the roots of p, the variations of its own chain count
        # distinct roots as those of its squarefree part's chain do
        self.chain = sturm_chain(p) if p else None
        # (numerator, denominator) of eps -> [sign of p, variations, hyperbolic]
        self.seen: dict[tuple[int, int], list] = {}

    def _at(self, eps: Fraction) -> list:
        key = (eps.numerator, eps.denominator)
        state = self.seen.get(key)
        if state is None:
            if self.chain is None:  # p is identically zero
                state = [0, 0, False]
            else:
                signs = _sturm_signs_at(self.chain, eps)
                # on the discriminant, f_eps has a repeated root
                state = [signs[0], _variations(signs), None if signs[0] else False]
            self.seen[key] = state
        return state

    def _decide(self, eps: Fraction, state: list) -> bool:
        if state[2] is None:
            state[2] = is_real_rooted(_path_form(self.f_from, self.f_to, eps))
        return state[2]

    def __call__(self, lo: Fraction, mid: Fraction, hi: Fraction) -> bool:
        """is_real_rooted(f_mid) for lo < mid < hi."""
        state = self._at(mid)
        if state[2] is None:
            for end in (lo, hi):
                known = self._at(end)
                if known[0] and known[1] == state[1]:
                    state[2] = self._decide(end, known)
                    break
            else:
                self._decide(mid, state)
        return state[2]


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
    for the smaller of the two ranks.  A hyperbolic grid point has rank
    d without further work.  A change between ranks d - 1 and d is
    bisected on exact hyperbolicity, since a squarefree form has real
    rank d exactly when it is hyperbolic; a midpoint that lies on the
    discriminant counts as not hyperbolic.  That predicate is memoized
    on the one integer polynomial disc(f_eps), built at the first such
    change: a midpoint with no root of it between itself and one end of
    the bracket shares that end's hyperbolicity, and only the others run
    ``is_real_rooted``, so the brackets are those of an ``is_real_rooted``
    call at every midpoint.  Every other change is bisected on
    ``real_rank``.  Every rank depends only on its form, the budget and
    the seed, so the grid ranks are the same for any number of worker
    processes.
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

    jobs = [
        (f_from, f_to, Fraction(i, steps), budget, config.seed)
        for i in range(steps + 1)
    ]
    grid = parallel_map(_grid_rank, jobs, threads)

    events: list[CrossingEvent] = []
    hyperbolic = None  # built on the first d - 1 <-> d change, then shared
    for i in range(steps):
        r_left, r_right = grid[i], grid[i + 1]
        if r_left == r_right:
            continue
        lo, hi = Fraction(i, steps), Fraction(i + 1, steps)
        on_hyperbolicity_wall = {r_left, r_right} == {d - 1, d}
        if on_hyperbolicity_wall and hyperbolic is None:
            hyperbolic = _SegmentHyperbolicity(f_from, f_to)
        while hi - lo > _BISECT_WIDTH:
            mid = (lo + hi) / 2
            if on_hyperbolicity_wall:
                left = hyperbolic(lo, mid, hi) == (r_left == d)
            else:
                f = _path_form(f_from, f_to, mid)
                left = real_rank(f, budget=budget, seed=config.seed).value == r_left
            if left:
                lo = mid
            else:
                hi = mid
        f_mid = _path_form(f_from, f_to, (lo + hi) / 2)
        candidates = candidate_components(d, min(r_left, r_right), "expected")
        memberships = tuple(
            dual_membership(f_mid, mu, config) for mu in candidates.partitions
        )
        anomaly = not any(m.verdict == "on" for m in memberships)
        events.append(
            CrossingEvent(lo, hi, r_left, r_right, memberships, anomaly)
        )
    return events
