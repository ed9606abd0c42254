"""Waring rank certificates for binary forms over the reals and complexes.

A rank witness is an annihilating operator q of degree r, written as a
binary form in the dual variables.  Over the complexes q must be
squarefree; over the reals it must split into distinct real linear
factors.  Every certificate carries the witness that proves the upper
bound and a ``lower_bound_kind`` flag that is honest about how the
smaller ranks were ruled out:

* ``"exact"``: every r below the reported value was refuted by a
  certified argument (empty kernel, a single non-real-rooted kernel
  element, a full pencil decision through the discriminant, or a common
  factor with a non-real root shared by the whole kernel).
* ``"probabilistic"``: at least one smaller r was only refuted by a
  randomized search that failed to find a real-rooted element.

Complex certificates are always exact.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from . import _intlinalg
from .apolarity import ApolarSpace, apolar_kernel, first_kernel, scaled_coefficients
from .poly_core import (
    BinaryForm,
    discriminant,
    gcd_poly,
    is_real_rooted,
    is_squarefree,
    isolate_real_roots,
)

__all__ = [
    "SearchBudget",
    "RankCertificate",
    "complex_rank",
    "real_rank",
    "rank_histogram",
    "parallel_map",
]


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the randomized real-rooted element search."""

    samples: int = 2000
    restarts: int = 50
    moves_per_restart: int = 40

    def __post_init__(self) -> None:
        if self.samples < 0 or self.restarts < 0 or self.moves_per_restart < 0:
            raise ValueError("budget values must be nonnegative")


@dataclass(frozen=True, slots=True)
class RankCertificate:
    """Rank value together with the evidence that produced it."""

    value: int
    field: str  # "real" or "complex"
    witness: BinaryForm
    lower_bound_kind: str  # "exact" or "probabilistic"
    budget_used: int = 0
    refutations: tuple[tuple[int, str], ...] = field(default=(), repr=False)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "field": self.field,
            "witness": self.witness.to_json(dual=True),
            "lower_bound_kind": self.lower_bound_kind,
            "budget_used": self.budget_used,
        }


def _pairing_value(f_scaled: list[Fraction], q: BinaryForm) -> Fraction:
    # q of full degree d annihilates f iff sum_j a_j b_j = 0.
    return sum(a * b for a, b in zip(f_scaled, q.coeffs))


def _disc_poly_in_t(q0: BinaryForm, q1: BinaryForm) -> list:
    """Coefficients of disc(q0 + t*q1) as an exact polynomial in t.

    The discriminant of a degree-r form is homogeneous of degree 2r - 2 in
    its coefficients, so after scaling both forms by one common
    denominator D the pencil has integer coefficients and disc(D*q) =
    D^(2r-2) disc(q).  It is evaluated at the 2r - 1 consecutive integers
    centred on 0 that determine a polynomial of degree 2r - 2; Newton
    forward differences turn the values into coefficients without leaving
    the integers, because the divided differences of an integer polynomial
    at consecutive integers are integers.  The coefficients are ints when
    q0 and q1 are integral, Fractions otherwise.
    """
    r = q0.degree
    ints, den = _intlinalg.clear_denominators(q0.coeffs + q1.coeffs)
    a, b = ints[: r + 1], ints[r + 1 :]
    n = max(2 * r - 1, 1)
    lo = -(n // 2)
    diffs = [
        discriminant(BinaryForm(r, tuple(x + t * y for x, y in zip(a, b)))).numerator
        for t in range(lo, lo + n)
    ]
    # diffs[j] becomes the divided difference over the nodes lo .. lo + j
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            diffs[i], rem = divmod(diffs[i] - diffs[i - 1], j)
            if rem:
                raise ArithmeticError("divided difference was not an integer")
    # Newton form sum_j diffs[j] prod_{i<j} (t - lo - i), expanded by Horner
    poly = [diffs[-1]]
    for j in range(n - 2, -1, -1):
        node = lo + j
        nxt = [0] + poly
        for m, c in enumerate(poly):
            nxt[m] -= c * node
        nxt[0] += diffs[j]
        poly = nxt
    while poly and poly[-1] == 0:
        poly.pop()
    scale = den ** max(2 * r - 2, 0)
    return poly if scale == 1 else [Fraction(c, scale) for c in poly]


def _pencil_samples(disc_t: list[Fraction]) -> list[Fraction]:
    """One rational t inside each region where disc(q0 + t*q1) != 0."""
    intervals = isolate_real_roots(disc_t)
    if not intervals:
        return [Fraction(0)]
    samples = [intervals[0][0]]
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        samples.append((hi + lo) / 2 if hi < lo else hi)
    samples.append(intervals[-1][1])
    return samples


def _pencil_real_rooted_element(q0: BinaryForm, q1: BinaryForm) -> BinaryForm | None:
    """Exact decision: a real-rooted member of span{q0, q1}, or None.

    The number of distinct real roots of q0 + t*q1 is constant between
    real roots of disc(q0 + t*q1), so one sample per region decides the
    whole pencil.  The t^(2r-2) coefficient of that discriminant equals
    disc(q1), so an identically zero discriminant rules out q1 too.
    """
    disc_t = _disc_poly_in_t(q0, q1)
    if not disc_t:
        return None
    for t in _pencil_samples(disc_t):
        q = q0 + q1.scale(t)
        if is_real_rooted(q):
            return q.primitive()
    if is_real_rooted(q1):
        return q1.primitive()
    return None


def _pencil_squarefree_element(q0: BinaryForm, q1: BinaryForm) -> BinaryForm | None:
    """A squarefree member of span{q0, q1}, or None (exact decision)."""
    disc_t = _disc_poly_in_t(q0, q1)
    if not disc_t:
        return None
    k = 0
    while True:
        for t in (Fraction(k), Fraction(-k)) if k else (Fraction(0),):
            val = sum(c * t**m for m, c in enumerate(disc_t))
            if val != 0:
                return (q0 + q1.scale(t)).primitive()
        k += 1


def _height_vectors(dim: int, max_height: int):
    """Integer vectors ordered by height, first nonzero entry positive."""
    for h in range(1, max_height + 1):
        stack: list[tuple[int, ...]] = [()]
        while stack:
            prefix = stack.pop()
            if len(prefix) == dim:
                if max(abs(c) for c in prefix) == h:
                    yield prefix
                continue
            lead_seen = any(prefix)
            lo = -h if lead_seen else 0
            for c in range(lo, h + 1):
                stack.append(prefix + (c,))


def _combine(basis: list[BinaryForm], vec) -> BinaryForm:
    q = BinaryForm.zero(basis[0].degree)
    for c, b in zip(vec, basis):
        if c:
            q = q + b.scale(Fraction(c))
    return q


def _first_squarefree_element(space: ApolarSpace) -> BinaryForm | None:
    """Deterministic search for a squarefree element of the kernel.

    Pairs of basis vectors are decided exactly through the pencil
    discriminant; only if every pair fails does a height-ordered sweep
    over larger integer combinations run.
    """
    basis = list(space.basis)
    if len(basis) == 1:
        return basis[0] if is_squarefree(basis[0]) else None
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            got = _pencil_squarefree_element(basis[i], basis[j])
            if got is not None:
                return got
    for vec in _height_vectors(len(basis), 3):
        q = _combine(basis, vec)
        if not q.is_zero and is_squarefree(q):
            return q.primitive()
    return None


def complex_rank(f: BinaryForm) -> RankCertificate:
    """Waring rank of f over the complex numbers, with witness.

    The first degree e1 with a nonzero apolar kernel either contains a
    squarefree operator (rank e1) or does not, in which case the rank
    is d + 2 - e1 and a squarefree operator of that degree exists.
    Both branches are decided exactly.
    """
    if f.is_zero:
        raise ValueError("rank of the zero form is undefined")
    d = f.degree
    if d < 1:
        raise ValueError("rank needs degree at least 1")
    space = first_kernel(f)
    e1 = space.r
    witness = _first_squarefree_element(space)
    if witness is not None:
        return RankCertificate(e1, "complex", witness, "exact")
    e2 = d + 2 - e1
    witness = _first_squarefree_element(apolar_kernel(f, e2))
    if witness is None:
        raise ArithmeticError("no squarefree annihilator at either candidate degree")
    return RankCertificate(e2, "complex", witness, "exact")


def _top_degree_witness(f: BinaryForm) -> BinaryForm:
    """Real-rooted annihilator of degree d, built constructively.

    Fix d - 1 distinct rational roots, then solve the single linear
    condition <a, q> = 0 for the remaining linear factor.  The result
    is real-rooted unless the forced root collides with a chosen one,
    in which case a shifted root set is tried.
    """
    d = f.degree
    a = scaled_coefficients(f)
    stream = [Fraction(0)]
    for k in range(1, d + 40):
        stream.extend((Fraction(k), Fraction(-k)))
    for start in range(40):
        roots = stream[start : start + d - 1]
        base = BinaryForm.from_roots(roots) if roots else BinaryForm(0, (Fraction(1),))
        qx = BinaryForm(d, base.coeffs + (Fraction(0),))
        qy = BinaryForm(d, (Fraction(0),) + base.coeffs)
        vx = _pairing_value(a, qx)
        vy = _pairing_value(a, qy)
        if vx == 0 and vy == 0:
            fresh = next(t for t in stream if t not in roots)
            q = qx + qy.scale(-fresh)
        elif vy == 0:
            # alpha must vanish, leaving base * Dy (root at infinity)
            q = qy
        else:
            q = qx.scale(vy) + qy.scale(-vx)
        if is_real_rooted(q):
            return q.primitive()
    raise ArithmeticError("could not build a top-degree real-rooted annihilator")


def _derive_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _project_onto_kernel(space: ApolarSpace, target: BinaryForm) -> BinaryForm | None:
    """Orthogonal projection of target onto the kernel span, done exactly."""
    basis = [[Fraction(c) for c in b.coeffs] for b in space.basis]
    v = [Fraction(c) for c in target.coeffs]
    gram = [[sum(x * y for x, y in zip(bi, bj)) for bj in basis] for bi in basis]
    rhs = [sum(x * y for x, y in zip(bi, v)) for bi in basis]
    coeffs = _intlinalg.solve(gram, rhs)
    if coeffs is None:
        return None
    q = _combine(space.basis, coeffs)
    return None if q.is_zero else q.primitive()


def _imag_defect(coeffs) -> float:
    """Float score: 0 exactly when the polynomial splits over the reals.

    Sum of squared imaginary parts of the roots (capped per root), with
    leading coefficients near zero stripped: a root escaping to
    infinity along the real line is still real.
    """
    import numpy as np

    c = np.asarray(coeffs, dtype=float)
    scale = np.max(np.abs(c))
    if not np.isfinite(scale) or scale == 0:
        return float("inf")
    c = c / scale
    nz = np.flatnonzero(np.abs(c) > 1e-13)
    if len(nz) == 0:
        return float("inf")
    c = c[nz[0] :]
    if len(c) < 2:
        return 0.0
    roots = np.roots(c)
    return float(np.sum(np.minimum(roots.imag**2, 1.0)))


def _random_real_rooted_search(
    space: ApolarSpace,
    budget: SearchBudget,
    seed: int,
) -> tuple[BinaryForm | None, int]:
    """Randomized hunt for a real-rooted kernel element.

    Candidates are generated in float and certified exactly before
    being returned.  Two generators run in sequence: integer
    combinations of a norm-balanced basis, then multistart least
    squares over root space.  The root chart q(t) = prod (x - t_i y)
    covers every real-rooted form, so minimizing the defect of q(t)
    against the kernel span finds witnesses even when the real-rooted
    cone is a thin sliver in coefficient space.  Failure is evidence,
    not proof.
    """
    import numpy as np
    from scipy.optimize import least_squares

    rng = random.Random(seed)
    basis = list(space.basis)
    k = len(basis)
    used = 0

    bmat = np.array([[float(c) for c in b.coeffs] for b in basis])
    qmat, _ = np.linalg.qr(bmat.T)  # orthonormal basis of the kernel span

    # integer combos are taken on a norm-balanced copy of the basis so
    # that one unit means roughly the same coefficient size everywhere
    scale_pows = [max(int(np.log2(np.linalg.norm(row))), 0) for row in bmat]
    balanced = [b.scale(Fraction(1, 2**p)) for b, p in zip(basis, scale_pows)]

    def certify(q: BinaryForm) -> BinaryForm | None:
        nonlocal used
        used += 1
        if not q.is_zero and is_real_rooted(q):
            return q.primitive()
        return None

    def snap_and_project(coeffs) -> BinaryForm | None:
        # snap a float coefficient vector to rationals, then project it
        # exactly onto the kernel; the projection of a near-member is a
        # true member a hair away from the float candidate.  Witnesses
        # with clustered roots sit in a thin cone, so failed snaps are
        # retried at higher precision before giving up.
        top = np.max(np.abs(coeffs))
        if not np.isfinite(top) or top == 0:
            return None
        for bits in (40, 80, 120):
            fracs = [Fraction(round(c * 2**bits / top), 2**bits) for c in coeffs]
            snapped = BinaryForm(basis[0].degree, tuple(fracs))
            q = _project_onto_kernel(space, snapped)
            if q is not None:
                got = certify(q)
                if got is not None:
                    return got
        return None

    # phase 1: integer combos, scored in float, certified exactly when
    # the score is plausible; best scorers seed the descent phase
    balanced_f = np.array(
        [[float(c) / 2**p for c in b.coeffs] for b, p in zip(basis, scale_pows)]
    )

    scored: list[tuple[float, tuple[int, ...]]] = []
    for _ in range(budget.samples):
        used += 1
        vec = tuple(rng.randint(-9, 9) for _ in range(k))
        if not any(vec):
            continue
        score = _imag_defect(np.array(vec) @ balanced_f)
        scored.append((score, vec))
        if score < 1e-9:
            got = certify(_combine(balanced, vec))
            if got is not None:
                return got, used
    scored.sort(key=lambda item: item[0])
    for _, vec in scored[:20]:
        got = certify(_combine(balanced, vec))
        if got is not None:
            return got, used

    # phase 2: least squares over root space.  theta parametrizes a
    # product of factors (cos t x - sin t y); the residual is the part
    # of that product sticking out of the kernel span.
    r = basis[0].degree

    def root_chart(thetas) -> np.ndarray:
        vec = np.array([1.0])
        for t in thetas:
            vec = np.convolve(vec, [math.cos(t), -math.sin(t)])
        return vec

    def defect(thetas) -> np.ndarray:
        nonlocal used
        used += 1
        vec = root_chart(thetas)
        vec = vec / np.linalg.norm(vec)
        return vec - qmat @ (qmat.T @ vec)

    # seed from the roots of the best integer combos, then at random
    seeds_t: list[np.ndarray] = []
    for _, vec in scored[: budget.restarts // 2]:
        roots = np.roots(np.array(vec) @ balanced_f)
        thetas = np.arctan(roots.real)
        if len(thetas) < r:
            thetas = np.concatenate([thetas, np.full(r - len(thetas), math.pi / 2)])
        seeds_t.append(thetas)
    nprng = np.random.default_rng(seed % 2**32)
    while len(seeds_t) < budget.restarts:
        seeds_t.append(nprng.uniform(-math.pi / 2, math.pi / 2, size=r))

    for t0 in seeds_t[: budget.restarts]:
        fit = least_squares(
            defect, t0, method="trf",
            max_nfev=20 * budget.moves_per_restart,
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
        if np.linalg.norm(fit.fun) < 1e-10:
            got = snap_and_project(root_chart(fit.x))
            if got is not None:
                return got, used
    return None, used


def real_rank(
    f: BinaryForm,
    budget: SearchBudget | None = None,
    seed: int = 0,
) -> RankCertificate:
    """Waring rank of f over the reals, scanning r upward with witnesses.

    Ranks are refuted exactly whenever the kernel has dimension at most
    two or a common factor that is itself not real-rooted; only kernels
    of dimension three or more with a real-rooted (or trivial) gcd fall
    back to randomized search.  Termination at r = d is guaranteed
    because a real-rooted degree-d annihilator always exists and is
    built directly.
    """
    if f.is_zero:
        raise ValueError("rank of the zero form is undefined")
    d = f.degree
    if d < 1:
        raise ValueError("rank needs degree at least 1")
    if budget is None:
        budget = SearchBudget()

    refutations: list[tuple[int, str]] = []
    used_total = 0

    if is_real_rooted(f):
        # d distinct real roots force rank exactly d; witness built directly.
        witness = _top_degree_witness(f)
        return RankCertificate(d, "real", witness, "exact", 0, ())

    for r in range(1, d):
        space = apolar_kernel(f, r)
        if space.dim == 0:
            refutations.append((r, "empty kernel"))
            continue

        if space.dim == 1:
            q = space.basis[0]
            if is_real_rooted(q):
                return RankCertificate(
                    r, "real", q.primitive(), _kind(refutations), used_total,
                    tuple(refutations),
                )
            refutations.append((r, "single kernel element not real-rooted"))
            continue

        if space.dim == 2:
            got = _pencil_real_rooted_element(space.basis[0], space.basis[1])
            if got is not None:
                return RankCertificate(
                    r, "real", got, _kind(refutations), used_total,
                    tuple(refutations),
                )
            refutations.append((r, "pencil decision: no real-rooted element"))
            continue

        common = reduce(gcd_poly, space.basis)
        if common.degree >= 1 and not is_real_rooted(common):
            # every kernel element is a multiple of the gcd, so a non-real
            # or repeated root of the gcd rules out real-rooted elements
            refutations.append((r, "common kernel factor is not real-rooted"))
            continue

        run_seed = _derive_seed(seed, "real-rank", f.coeffs, r)
        got, used = _random_real_rooted_search(space, budget, run_seed)
        used_total += used
        if got is not None:
            return RankCertificate(
                r, "real", got, _kind(refutations), used_total,
                tuple(refutations),
            )
        refutations.append((r, "randomized search exhausted"))

    witness = _top_degree_witness(f)
    return RankCertificate(
        d, "real", witness, _kind(refutations), used_total, tuple(refutations)
    )


def _kind(refutations: list[tuple[int, str]]) -> str:
    for _, why in refutations:
        if why == "randomized search exhausted":
            return "probabilistic"
    return "exact"


_SNAP = 1 << 40


def _sample_form(d: int, rng: random.Random, distribution: str) -> BinaryForm:
    # draws live in the scaled basis (plain coefficient divided by the
    # binomial), the rotation-invariant gaussian ensemble on forms; a
    # plain-basis draw would make the top typical rank vanishingly rare
    from math import comb

    coeffs = []
    for i in range(d + 1):
        v = rng.gauss(0.0, 1.0) if distribution == "gaussian" else rng.uniform(-1.0, 1.0)
        coeffs.append(comb(d, i) * Fraction(round(v * _SNAP), _SNAP))
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    return BinaryForm(d, tuple(coeffs))


def parallel_map(fn, jobs: list, threads: int = 1) -> list:
    """[fn(job) for job in jobs], on up to ``threads`` worker processes.

    Results come back in job order.  fn must be a module-level function
    so that the pool can pickle it, and each job must carry everything
    fn depends on (seeds included), so the result never depends on the
    worker count.  Each worker takes about four chunks, which balances
    uneven jobs without paying a round trip per job.
    """
    if threads <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(jobs) // (4 * threads))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs, chunksize=chunksize))


def _histogram_sample(args) -> int:
    d, index, seed, distribution, budget = args
    rng = random.Random(_derive_seed(seed, "histogram", d, index))
    f = _sample_form(d, rng, distribution)
    cert = real_rank(f, budget=budget, seed=_derive_seed(seed, "hist-rank", d, index))
    return cert.value


def rank_histogram(
    d: int,
    n_samples: int,
    seed: int = 0,
    distribution: str = "gaussian",
    budget: SearchBudget | None = None,
    threads: int = 1,
) -> dict[int, int]:
    """Histogram of real ranks over random forms of degree d.

    Coefficients are drawn per sample from a seed derived with sha256,
    so results do not depend on thread count or evaluation order, and
    are snapped to denominator 2**40 to keep arithmetic exact.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if n_samples < 0:
        raise ValueError("sample count must be nonnegative")
    if distribution not in ("gaussian", "uniform"):
        raise ValueError("distribution must be 'gaussian' or 'uniform'")
    jobs = [(d, i, seed, distribution, budget) for i in range(n_samples)]
    counts: dict[int, int] = {}
    for value in parallel_map(_histogram_sample, jobs, threads):
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))
