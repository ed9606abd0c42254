"""Seeded inputs for the five benchmark workloads and the calls they time.

Every input is built here from the workload seed; the library only ever
receives the generated forms.  Item ``i`` of a workload depends on
``(workload, seed, i)`` alone, so a run that completes more items in its
time window sees the same first items as a slower run.

Constructed dual members are drawn from kernels computed by the test
suite's independent oracle (``tests/oracles.py``), not by the library.

Each workload exposes ``make(seed, count)`` returning the item inputs,
``digest_items``, the fixed prefix that the digest and the traced run
cover, ``rate_cap``, items per second the input pool is sized for (several
times today's rate; a faster program cycles through the pool),
``run(item)`` performing the timed public-API calls, and
``canonical(item, out)`` returning the output with no timings, for the
digest.  Verification lives in ``verify.py``.  Library functions are
called through the ``crl_atlas`` package attribute so that a traced run
sees them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import numpy

import crl_atlas
from crl_atlas import BinaryForm, RunConfig
from crl_atlas.apolarity import is_generic_degrees
from crl_atlas.partitions import Partition, enumerate_partitions
from oracles import annihilated_forms

_SNAP = 1 << 40  # the snapping grid rank_histogram uses


def _rng(name: str, seed: int, index: int) -> random.Random:
    # str seeds hash through sha512, so items are stable across platforms
    return random.Random(f"perfbench:{name}:{seed}:{index}")


def gaussian_form(rng: random.Random, d: int) -> BinaryForm:
    """Gaussian form in the scaled basis, snapped to 2**-40."""
    coeffs = [
        comb(d, i) * Fraction(round(rng.gauss(0.0, 1.0) * _SNAP), _SNAP)
        for i in range(d + 1)
    ]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    return BinaryForm(d, tuple(coeffs))


def _cert_json(cert) -> list:
    return [cert.value, [str(c) for c in cert.witness.coeffs], cert.lower_bound_kind]


# --- hist-exact: degree-4 forms, every rank decided by an exact route ------


class HistExact:
    name = "hist-exact"
    digest_items = 200
    rate_cap = 300

    @staticmethod
    def make(seed: int, count: int) -> list[BinaryForm]:
        return [gaussian_form(_rng("hist-exact", seed, i), 4) for i in range(count)]

    @staticmethod
    def run(f: BinaryForm):
        return crl_atlas.real_rank(f), crl_atlas.complex_rank(f)

    @staticmethod
    def canonical(f: BinaryForm, out) -> list:
        real, cplx = out
        return [_cert_json(real), _cert_json(cplx)]


# --- hist-search: degree-5 forms, most reach the randomized search --------


class HistSearch:
    name = "hist-search"
    digest_items = 60
    rate_cap = 150

    @staticmethod
    def make(seed: int, count: int) -> list[BinaryForm]:
        return [gaussian_form(_rng("hist-search", seed, i), 5) for i in range(count)]

    @staticmethod
    def run(f: BinaryForm):
        return crl_atlas.real_rank(f)

    @staticmethod
    def canonical(f: BinaryForm, out) -> list:
        return _cert_json(out)


# --- scan: crossing scans across the hyperbolicity wall -------------------

# the criterion-7 quintic: x^5 + (x+2y)^5 + y^5 to (x-y)(x-2y)...(x-5y)
QUINTIC = (
    BinaryForm(5, tuple(Fraction(c) for c in (2, 10, 40, 80, 80, 33))),
    BinaryForm.from_roots([Fraction(i) for i in range(1, 6)]),
    200,
    RunConfig(),
)
SEGMENT_STEPS = 60
# A quarter of the default search budget: a segment then takes about 2 s
# instead of 6 s, so a run averages over about 17 of them.  The quintic
# keeps the default budget, so a change to the default still shows.
SEGMENT_CONFIG = RunConfig(rank_samples=500, multistarts=12)
WALL_EPS = Fraction(9995, 10000)


def _power_sum(pairs, d: int) -> BinaryForm:
    f = BinaryForm.zero(d)
    for a, b in pairs:
        # (a x + b y)^d expanded by the binomial theorem
        f = f + BinaryForm(
            d, tuple(Fraction(comb(d, i) * a ** (d - i) * b**i) for i in range(d + 1))
        )
    return f


def _float_real_rooted(coeffs) -> bool:
    roots = numpy.roots([float(c) for c in coeffs])
    return bool(numpy.all(numpy.abs(roots.imag) < 1e-9 * (1 + numpy.abs(roots.real))))


def _hyperbolic_threshold(f_from: BinaryForm, f_to: BinaryForm) -> float:
    """About the smallest t beyond which f_from + t f_to stays hyperbolic."""
    def hyperbolic(t: float) -> bool:
        return _float_real_rooted([a + t * float(b) for a, b in zip(f_from.coeffs, f_to.coeffs)])

    t = 1e9
    while hyperbolic(t):
        t /= 2
    lo, hi = t, 2 * t
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if hyperbolic(mid) else (mid, hi)
    return hi


def _float_rank_three(f: BinaryForm) -> bool:
    """A generic quintic has real rank 3 iff its one apolar cubic is real-rooted."""
    a = [float(c) / comb(5, i) for i, c in enumerate(f.coeffs)]
    hankel = numpy.array([[a[i + j] for j in range(4)] for i in range(3)])
    return _float_real_rooted(numpy.linalg.svd(hankel)[2][-1])


def _three_powers(rng: random.Random, d: int) -> BinaryForm:
    """Sum of three d-th powers of distinct real linear forms."""
    dirs: set[tuple[int, int]] = set()
    while len(dirs) < 3:
        a, b = rng.randint(1, 2), rng.randint(-3, 3)
        if b and Fraction(b, a) not in {Fraction(y, x) for x, y in dirs}:
            dirs.add((a, b))
    return _power_sum(sorted(dirs), d)


def random_segment(rng: random.Random) -> tuple[BinaryForm, BinaryForm, int, RunConfig]:
    """Sum of three fifth powers to five distinct rational linear factors.

    f_to is scaled so the hyperbolicity wall, where the rank becomes 5,
    sits near eps = 0.9995, as in the quintic (0.99975).  Scaling only
    reparametrizes the same projective path, but the width-1e-10
    bisection in eps costs more near-wall searches the further the wall
    sits from eps = 1, so a fixed position makes segments comparable.
    Segments still at rank 3 on the last grid point before the wall are
    redrawn: the grid would see one 3->5 jump there and skip the 4->5
    bisection, an item fifteen times cheaper than the rest.
    """
    while True:
        f_from = _three_powers(rng, 5)
        roots = sorted(rng.sample(range(-4, 5), 5))
        f_to = BinaryForm.from_roots([Fraction(t) for t in roots])
        t_wall = Fraction(_hyperbolic_threshold(f_from, f_to))
        scale = (t_wall * (1 - WALL_EPS) / WALL_EPS).limit_denominator(1000)
        f_to = f_to.scale(scale)
        last = Fraction(SEGMENT_STEPS - 1, SEGMENT_STEPS)
        if (
            scale
            and not _float_rank_three(f_from.scale(1 - last) + f_to.scale(last))
            and is_generic_degrees(f_from)
            and is_generic_degrees(f_to)
        ):
            return f_from, f_to, SEGMENT_STEPS, SEGMENT_CONFIG


class Scan:
    name = "scan"
    digest_items = 4
    rate_cap = 2

    @staticmethod
    def make(seed: int, count: int) -> list[tuple[BinaryForm, BinaryForm, int, RunConfig]]:
        # item 0 is the criterion-7 quintic under every seed
        return [QUINTIC] + [
            random_segment(_rng("scan", seed, i)) for i in range(1, count)
        ]

    @staticmethod
    def run(item):
        f_from, f_to, steps, config = item
        return crl_atlas.crossing_scan(f_from, f_to, steps, config, threads=1)

    @staticmethod
    def canonical(item, events) -> list:
        return [
            [
                str(e.eps_lo), str(e.eps_hi), e.r_left, e.r_right, e.anomaly,
                [[list(m.mu), m.verdict] for m in e.memberships],
            ]
            for e in events
        ]


# --- scan-quartic: crossing scans whose ranks are all decided exactly ------

# A coarse grid: the 3-4 wall is still bisected to width 1e-10, and at 60
# steps the rank-3 grid points, some certified from a neighbour's witness
# and some by the pencil decision, made item costs vary twice as much.
QUARTIC_STEPS = 12


def quartic_segment(rng: random.Random) -> tuple[BinaryForm, BinaryForm, int, RunConfig]:
    """Sum of three fourth powers to four distinct rational linear factors.

    A squarefree real quartic has real rank 4 exactly when it is
    hyperbolic, and ranks 2 and 3 are decided by the exact routes, so
    every rank on the segment, the bisected 3-4 wall included, is exact.
    f_to is scaled so the wall sits near eps = 6/13, with grid points on
    both sides.  A wall threshold that is a small rational would
    otherwise land exactly on a grid or bisection point, where the form
    has a double root and the hyperbolicity check does not apply.
    """
    while True:
        f_from = _three_powers(rng, 4)
        roots = sorted(rng.sample(range(-4, 5), 4))
        f_to = BinaryForm.from_roots([Fraction(t) for t in roots])
        t_wall = _hyperbolic_threshold(f_from, f_to)
        scale = Fraction(t_wall * 7 / 6).limit_denominator(1000)
        f_to = f_to.scale(scale)
        if scale and is_generic_degrees(f_from) and is_generic_degrees(f_to):
            return f_from, f_to, QUARTIC_STEPS, RunConfig()


class ScanQuartic(Scan):
    """The scan layer on quartics, where no rank rests on the search.

    ``scan`` keeps the quintic walls that the search misplaces (ROADMAP
    item 1); here every wall is checked against exact hyperbolicity and
    a wrong one is a wrong exact output.
    """

    name = "scan-quartic"
    digest_items = 20
    rate_cap = 4

    @staticmethod
    def make(seed: int, count: int) -> list[tuple[BinaryForm, BinaryForm, int, RunConfig]]:
        return [quartic_segment(_rng("scan-quartic", seed, i)) for i in range(count)]


# --- membership: constructed dual members and random off forms ------------

ON_SHAPES = tuple(Partition(mu) for mu in ((3, 2), (4, 3), (3, 3), (4, 2, 2), (3, 3, 2)))
OFF_SHAPES = tuple(enumerate_partitions(6, min_part=2))


def constructed_member(rng: random.Random, mu: Partition) -> BinaryForm:
    """A form on the dual of the coincident root locus mu.

    f is killed by q = prod (Dx - t_i Dy)^(mu_i - 1) for distinct
    rational t_i, which is the apolar criterion for membership.
    """
    d = mu.weight
    roots = rng.sample([Fraction(n, 2) for n in range(-6, 7)], len(mu))
    q = BinaryForm.from_roots([t for t, m in zip(roots, mu) for _ in range(m - 1)])
    basis = annihilated_forms(q, d)
    while True:
        f = BinaryForm.zero(d)
        for b in basis:
            f = f + b.scale(rng.randint(-4, 4))
        if not f.is_zero:
            return f


def random_int_form(rng: random.Random, d: int) -> BinaryForm:
    while True:
        f = BinaryForm(d, tuple(Fraction(rng.randint(-20, 20)) for _ in range(d + 1)))
        if not f.is_zero:
            return f


class Membership:
    name = "membership"
    digest_items = 24
    rate_cap = 20

    @staticmethod
    def make(seed: int, count: int) -> list[tuple[BinaryForm, Partition, bool]]:
        # two constructed members per random form, so the median item is
        # an early-stopping "on" test and the tail is the full "off" sweep
        items = []
        for i in range(count):
            rng = _rng("membership", seed, i)
            k, kind = divmod(i, 3)
            if kind < 2:
                mu = ON_SHAPES[(2 * k + kind) % len(ON_SHAPES)]
                items.append((constructed_member(rng, mu), mu, True))
            else:
                mu = OFF_SHAPES[k % len(OFF_SHAPES)]
                items.append((random_int_form(rng, 6), mu, False))
        return items

    @staticmethod
    def run(item):
        f, mu, _ = item
        return crl_atlas.dual_membership(f, mu)

    @staticmethod
    def canonical(item, report) -> list:
        return [list(item[1]), report.verdict]


WORKLOADS = {
    w.name: w for w in (HistExact, HistSearch, Scan, ScanQuartic, Membership)
}
