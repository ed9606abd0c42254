"""Acceptance gate: one test per shipped guarantee, with stated budgets.

Each test prints a single "[acceptance] criterion k: PASS/FAIL" line and
then asserts, so the verdicts are visible in the runner output even when
everything is green.
"""
import os
import random
import time
from fractions import Fraction as F
from math import comb

import pytest

import crl_atlas.reference_tables as reference_tables
from crl_atlas.boundary import crossing_scan, dual_membership
from crl_atlas.crl import (
    dual_degree,
    polar_degree,
    pullback_decomposition,
    regenerate_table1,
)
from crl_atlas.partitions import Partition, count_table, enumerate_partitions
from crl_atlas.poly_core import BinaryForm
from crl_atlas.rank import complex_rank, rank_histogram, real_rank

from oracles import (
    gauss_kernel,
    oracle_apply,
    oracle_is_real_rooted,
    oracle_is_squarefree,
    random_form,
)


def report(k: int, failures: list, elapsed: float | None = None,
           budget: float | None = None) -> None:
    if budget is not None and elapsed is not None and elapsed >= budget:
        failures = failures + [f"runtime {elapsed:.1f}s exceeded {budget:.0f}s budget"]
    print(f"[acceptance] criterion {k}: {'FAIL' if failures else 'PASS'}")
    assert not failures, "; ".join(str(item) for item in failures[:5])


def monomial(d: int) -> BinaryForm:
    coeffs = [F(0)] * (d + 1)
    coeffs[1] = F(1)
    return BinaryForm(d, tuple(coeffs))  # x^(d-1) y


def hankel_kernel(f: BinaryForm, r: int) -> list[list[F]]:
    d = f.degree
    a = [c / comb(d, i) for i, c in enumerate(f.coeffs)]
    rows = [[a[i + j] for j in range(r + 1)] for i in range(d - r + 1)]
    return gauss_kernel(rows)


def test_criterion_1_decomposition_table_regenerates_exactly():
    start = time.perf_counter()
    rows = regenerate_table1(7)
    elapsed = time.perf_counter() - start
    failures = []
    got = {
        (tuple(lam), dec.j): (dec.d, dec.r, tuple((m, tuple(mu)) for m, mu in dec.terms))
        for lam, dec in rows
    }
    want = {
        (lam, j): (d, r, terms)
        for lam, j, d, r, terms in reference_tables.DECOMPOSITIONS
    }
    if got != want:
        missing = set(want) - set(got)
        extra = set(got) - set(want)
        wrong = [k for k in set(got) & set(want) if got[k] != want[k]]
        failures.append(
            f"table mismatch: {len(missing)} missing, {len(extra)} extra, "
            f"{len(wrong)} differing rows"
        )
    if len(rows) != 91:
        failures.append(f"formula count {len(rows)} != 91")
    report(1, failures, elapsed, 1.0)


def test_criterion_2_count_tables_regenerate_exactly():
    start = time.perf_counter()
    failures = []
    for parity, fixture in (
        ("odd", reference_tables.COUNTS_ODD),
        ("even", reference_tables.COUNTS_EVEN),
    ):
        rows = count_table(parity, 13)
        for k, row in zip(range(3, 14), rows):
            d_fix, counts_fix = fixture[k]
            d_live = 2 * k - 1 if parity == "odd" else 2 * k
            if d_live != d_fix or row != counts_fix:
                failures.append(f"{parity} k={k}: {row} != {counts_fix}")
    report(2, failures, time.perf_counter() - start, 1.0)


def test_criterion_3_worked_example_values():
    failures = []
    for mu, want in (((5, 4, 3, 2), 2880), ((5, 3, 3, 3), 640), ((4, 4, 3, 3), 1080)):
        got = dual_degree(Partition(mu))
        if got != want:
            failures.append(f"dual degree of {mu}: {got} != {want}")
    delta = polar_degree(Partition((4, 3, 2, 2)), 1)
    if delta != 1740:
        failures.append(f"polar degree: {delta} != 1740")
    if 1 * 2880 + 3 * 640 + 2 * 1080 != 4 * 1740:
        failures.append("weighted degree identity fails on the worked values")
    report(3, failures)


def test_criterion_4_degree_sum_identity_through_weight_9():
    start = time.perf_counter()
    failures = []
    checked = 0
    for r in range(3, 10):
        for lam in enumerate_partitions(r):
            n = len(lam)
            for j in range(0, n - lam.m1() + 1):
                delta = polar_degree(lam, j)
                dec = pullback_decomposition(lam, j)
                rhs = sum(m * dual_degree(mu) for m, mu in dec.terms)
                if (n - j + 1) * delta != rhs:
                    failures.append(f"lam={tuple(lam)} j={j}")
                checked += 1
    if checked < 100:
        failures.append(f"only {checked} cases checked")
    report(4, failures, time.perf_counter() - start, 10.0)


def test_criterion_5_generic_and_monomial_ranks():
    start = time.perf_counter()
    failures = []
    for d in range(3, 9):
        rng = random.Random(f"acceptance5:{d}")
        want = (d + 2) // 2
        bad = sum(
            1 for _ in range(100) if complex_rank(random_form(rng, d)).value != want
        )
        if bad:
            failures.append(f"d={d}: {bad}/100 random forms missed rank {want}")
    for d in range(3, 7):
        f = monomial(d)
        for kind, cert in (("complex", complex_rank(f)), ("real", real_rank(f))):
            if cert.value != d:
                failures.append(f"{kind} rank of x^{d - 1}y: {cert.value} != {d}")
            if cert.lower_bound_kind != "exact":
                failures.append(f"{kind} lower bound for x^{d - 1}y not exact")
        # independent refutation of every r < d: each annihilator of
        # degree r is divisible by Dy^2, so none is squarefree and none
        # is real-rooted
        for r in range(1, d):
            for vec in hankel_kernel(f, r):
                if vec[0] != 0 or vec[1] != 0:
                    failures.append(f"x^{d - 1}y kernel at degree {r} not Dy^2-divisible")
    report(5, failures, time.perf_counter() - start, 30.0)


def test_criterion_6_typical_rank_histograms():
    start = time.perf_counter()
    failures = []
    for d, support in ((4, {3, 4}), (5, {3, 4, 5})):
        counts = rank_histogram(d, 500, seed=0)
        if set(counts) != support:
            failures.append(f"d={d} support {sorted(counts)} != {sorted(support)}")
        thin = {r: c for r, c in counts.items() if c < 10}
        if thin:
            failures.append(f"d={d} ranks seen fewer than 10 times: {thin}")
        if sum(counts.values()) != 500:
            failures.append(f"d={d} sample count {sum(counts.values())} != 500")
    report(6, failures, time.perf_counter() - start, 120.0)


def segment_form(f_from, f_to, eps):
    return f_from.scale(1 - eps) + f_to.scale(eps)


def test_criterion_7_boundary_identification():
    start = time.perf_counter()
    failures = []

    # degree 5: rank-3 endpoint (three fifth powers) to a rank-5 endpoint
    quintic_from = BinaryForm(5, (F(2), F(10), F(40), F(80), F(80), F(33)))
    quintic_to = BinaryForm.from_roots([F(i) for i in range(1, 6)])
    events = crossing_scan(quintic_from, quintic_to, 200)
    ev34 = [e for e in events if {e.r_left, e.r_right} == {3, 4}]
    if not ev34:
        failures.append("no 3-4 crossing detected for degree 5")
    for event in ev34:
        verdicts = {tuple(m.mu): m for m in event.memberships}
        on = verdicts.get((3, 2))
        if on is None or on.verdict != "on" or on.residual >= 1e-8:
            failures.append("3-4 crossing without a (3,2) on verdict below 1e-8")
        f_mid = segment_form(quintic_from, quintic_to, event.eps_mid)
        for mu in enumerate_partitions(5, min_part=2):
            if tuple(mu) == (3, 2):
                continue
            other = dual_membership(f_mid, mu)
            if other.verdict != "off":
                failures.append(f"3-4 crossing: {tuple(mu)} came back {other.verdict}")
    for event in (e for e in events if {e.r_left, e.r_right} == {4, 5}):
        verdicts = {tuple(m.mu): m.verdict for m in event.memberships}
        if verdicts.get((5,)) != "on":
            failures.append("degree-5 4-5 crossing without a (5) on verdict")

    # degree 6: rank-4 endpoint (four sixth powers) to a rank-6 endpoint
    sextic_from = BinaryForm(
        6, (F(3), F(-6), F(195), F(-380), F(1455), F(-1266), F(794))
    )
    sextic_to = BinaryForm.from_roots([F(i) for i in range(1, 7)])
    events6 = crossing_scan(sextic_from, sextic_to, 200)
    ev45 = [e for e in events6 if {e.r_left, e.r_right} == {4, 5}]
    if not ev45:
        failures.append("no 4-5 crossing detected for degree 6")
    for event in ev45:
        verdicts = {tuple(m.mu): m.verdict for m in event.memberships}
        if verdicts.get((4, 2)) != "on" and verdicts.get((3, 3)) != "on":
            failures.append("degree-6 4-5 crossing with neither (4,2) nor (3,3) on")
    report(7, failures, time.perf_counter() - start, 300.0)


@pytest.mark.skipif(
    not os.environ.get("CRL_ATLAS_SLOW_TESTS"),
    reason="evidence-grade degree 7/8 scans; set CRL_ATLAS_SLOW_TESTS=1",
)
@pytest.mark.parametrize(
    "d,powers",
    [
        (7, ((1, 0), (0, 1), (1, 2), (1, -3))),
        (8, ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))),
    ],
)
def test_higher_degree_spot_checks(d, powers):
    """Degree 7 and 8 scans, held to evidence-grade rather than exact-match.

    At these degrees the residual floor at a width-1e-10 bracket can sit
    above the strict on-tolerance (a 6-to-8 rank jump near the hyperbolic
    endpoint bisects to a point where the best candidate residual is a
    few 1e-8), so crossings are required to show a candidate residual far
    below the off-tolerance instead of a certified on verdict.
    """
    f_from = BinaryForm.zero(d)
    for a, b in powers:
        if a == 0:
            coeffs = [F(0)] * d + [F(b) ** d]
            f_from = f_from + BinaryForm(d, tuple(coeffs))
        else:
            f_from = f_from + BinaryForm.from_roots([F(-b, a)] * d).scale(F(a) ** d)
    f_to = BinaryForm.from_roots([F(i) for i in range(1, d + 1)])
    assert real_rank(f_from).value == len(powers)
    events = crossing_scan(f_from, f_to, 80)
    assert events
    assert any(not event.anomaly for event in events)
    for event in events:
        best = min(m.residual for m in event.memberships)
        assert best < 1e-6, (event.r_left, event.r_right, best)


def test_criterion_8_every_witness_revalidates():
    failures = []
    certificates = 0
    for d in range(3, 9):
        rng = random.Random(f"acceptance8:{d}")
        forms = [monomial(d), BinaryForm.from_roots([F(i) for i in range(1, d + 1)])]
        forms += [random_form(rng, d) for _ in range(10)]
        for f in forms:
            for kind, cert in (("complex", complex_rank(f)), ("real", real_rank(f))):
                certificates += 1
                label = f"{kind} certificate for degree-{d} form {tuple(f.coeffs)}"
                q = cert.witness
                if q.degree != cert.value:
                    failures.append(f"{label}: witness degree mismatch")
                if not oracle_apply(q, f).is_zero:
                    failures.append(f"{label}: witness does not annihilate")
                if not oracle_is_squarefree(q):
                    failures.append(f"{label}: witness not squarefree")
                if kind == "real" and not oracle_is_real_rooted(q):
                    failures.append(f"{label}: witness not real-rooted")
    if certificates != 144:
        failures.append(f"expected 144 certificates, validated {certificates}")
    report(8, failures)
