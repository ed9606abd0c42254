"""Built-in invariant suite: fixtures, identities, witnesses, round-trips.

Each suite reruns a live code path against an independent reference (a
frozen fixture, a second formula for the same number, or an exact
re-verification of an emitted witness) and reports pass/fail counts.
The CLI exposes this as `crl-atlas selfcheck`; a fresh build passes
every suite.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from . import reference_tables
from .apolarity import apply_operator
from .config import RunConfig
from .crl import (
    DualComponentSum,
    dual_degree,
    polar_degree,
    pullback_decomposition,
    regenerate_table1,
)
from .partitions import (
    Partition,
    count_table,
    enumerate_partitions,
    format_partition,
    parse_partition,
)
from .poly_core import BinaryForm, is_real_rooted, is_squarefree
from .rank import complex_rank, real_rank

__all__ = ["SuiteResult", "SelfCheckReport", "run_selfcheck"]

MAX_FAILURES_KEPT = 8


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one check suite: counts plus the first few failures."""

    name: str
    passed: int
    failed: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class SelfCheckReport:
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(suite.ok for suite in self.suites)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "suites": [suite.to_json() for suite in self.suites],
        }

    def to_text(self) -> str:
        lines = []
        for suite in self.suites:
            mark = "PASS" if suite.ok else "FAIL"
            lines.append(f"[{mark}] {suite.name}: {suite.passed} passed, "
                         f"{suite.failed} failed")
            for msg in suite.failures:
                lines.append(f"    {msg}")
        lines.append("selfcheck: " + ("all suites passed" if self.ok
                                      else "FAILURES PRESENT"))
        return "\n".join(lines)


class _Tally:
    def __init__(self, name: str) -> None:
        self.name = name
        self.passed = 0
        self.failures: list[str] = []

    def check(self, condition: bool, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failures.append(message)

    def result(self) -> SuiteResult:
        return SuiteResult(
            self.name,
            self.passed,
            len(self.failures),
            tuple(self.failures[:MAX_FAILURES_KEPT]),
        )


def _suite_table1() -> SuiteResult:
    t = _Tally("table1-fixture")
    fixture = reference_tables.DECOMPOSITIONS
    live = regenerate_table1(7)
    t.check(
        len(live) == len(fixture),
        f"row count: regenerated {len(live)}, fixture has {len(fixture)}",
    )
    by_key = {(tuple(lam), dec.j): dec for lam, dec in live}
    for lam, j, d, r, terms in fixture:
        dec = by_key.get((lam, j))
        if dec is None:
            t.check(False, f"missing row lam={lam} j={j}")
            continue
        got = (dec.d, dec.r, tuple((m, tuple(mu)) for m, mu in dec.terms))
        t.check(
            got == (d, r, terms),
            f"row lam={lam} j={j}: regenerated {got}, fixture {(d, r, terms)}",
        )
    return t.result()


def _suite_tables23() -> SuiteResult:
    t = _Tally("tables23-fixture")
    for parity, fixture in (
        ("odd", reference_tables.COUNTS_ODD),
        ("even", reference_tables.COUNTS_EVEN),
    ):
        max_k = max(fixture)
        rows = count_table(parity, max_k)
        for k, row in zip(range(3, max_k + 1), rows):
            d_fix, counts_fix = fixture[k]
            d_live = 2 * k - 1 if parity == "odd" else 2 * k
            t.check(
                d_live == d_fix and row == counts_fix,
                f"{parity} k={k}: regenerated (d={d_live}, {row}), "
                f"fixture (d={d_fix}, {counts_fix})",
            )
    return t.result()


def _suite_degree_sum(max_r: int = 9) -> SuiteResult:
    """(n-j+1) * polar_degree(lam, j) against the decomposition's dual degrees.

    The two sides come from different formulas (child degrees on one side,
    dual hypersurface degrees on the other), so agreement is a genuine
    cross-check.  A non-integral polar degree surfaces here as a failure
    carrying the "conjecture inconsistency" message.
    """
    t = _Tally("degree-sum-identity")
    for r in range(3, max_r + 1):
        for lam in enumerate_partitions(r):
            n = len(lam)
            for j in range(0, n - lam.m1() + 1):
                label = f"lam={format_partition(lam)} j={j}"
                try:
                    delta = polar_degree(lam, j)
                    dec = pullback_decomposition(lam, j)
                except ValueError as err:
                    t.check(False, f"{label}: {err}")
                    continue
                rhs = sum(m * dual_degree(mu) for m, mu in dec.terms)
                lhs = (n - j + 1) * delta
                t.check(lhs == rhs, f"{label}: {lhs} != {rhs}")
    return t.result()


def _suite_worked_example() -> SuiteResult:
    t = _Tally("worked-example")
    values = {
        (5, 4, 3, 2): 2880,
        (5, 3, 3, 3): 640,
        (4, 4, 3, 3): 1080,
    }
    for mu, want in values.items():
        got = dual_degree(Partition(mu))
        t.check(got == want, f"dual_degree{mu}: {got} != {want}")
    delta = polar_degree(Partition((4, 3, 2, 2)), 1)
    t.check(delta == 1740, f"polar_degree((4,3,2,2), 1): {delta} != 1740")
    t.check(
        1 * 2880 + 3 * 640 + 2 * 1080 == 4 * 1740,
        "degree-sum identity fails on the worked example",
    )
    return t.result()


def _witness_forms() -> list[BinaryForm]:
    forms: list[BinaryForm] = []
    for d in range(3, 7):
        coeffs = [Fraction(0)] * (d + 1)
        coeffs[1] = Fraction(1)
        forms.append(BinaryForm(d, tuple(coeffs)))  # x^(d-1) y
        forms.append(BinaryForm.from_roots([Fraction(i) for i in range(1, d + 1)]))
        for i in range(5):
            rng = random.Random(f"selfcheck:{d}:{i}")
            forms.append(
                BinaryForm(
                    d,
                    tuple(
                        Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                        for _ in range(d + 1)
                    ),
                )
            )
    return [f for f in forms if not f.is_zero]


def _suite_witnesses() -> SuiteResult:
    t = _Tally("rank-witnesses")
    for f in _witness_forms():
        for kind, cert in (("complex", complex_rank(f)), ("real", real_rank(f))):
            label = f"{kind} rank of degree-{f.degree} form {tuple(f.coeffs)}"
            q = cert.witness
            t.check(
                apply_operator(q, f).is_zero, f"{label}: witness does not annihilate"
            )
            t.check(is_squarefree(q), f"{label}: witness is not squarefree")
            t.check(
                q.degree == cert.value,
                f"{label}: witness degree {q.degree} != value {cert.value}",
            )
            if kind == "real":
                t.check(
                    is_real_rooted(q), f"{label}: witness is not real-rooted"
                )
        t.check(
            real_rank(f).value >= complex_rank(f).value,
            f"degree-{f.degree} form {tuple(f.coeffs)}: real rank below complex",
        )
    return t.result()


def _suite_roundtrips() -> SuiteResult:
    t = _Tally("json-round-trips")
    forms = [
        BinaryForm.from_coeffs([1, 0, -2, Fraction(7, 3)]),
        BinaryForm.from_roots([Fraction(1, 2), -3], infinity=1),
        BinaryForm.zero(4),
    ]
    for f in forms:
        back = BinaryForm.from_json(json.loads(json.dumps(f.to_json())))
        t.check(back == f, f"BinaryForm round-trip failed for {tuple(f.coeffs)}")
    for lam, j in (((3, 2), 1), ((4, 3, 2, 2), 1), ((2, 2, 1), 2)):
        dec = pullback_decomposition(Partition(lam), j)
        back = DualComponentSum.from_json(json.loads(json.dumps(dec.to_json())))
        t.check(back == dec, f"DualComponentSum round-trip failed for {lam} j={j}")
    for text in ("3,2", "5", "2,2,2,1"):
        lam = parse_partition(text)
        t.check(
            parse_partition(format_partition(lam)) == lam,
            f"Partition round-trip failed for {text}",
        )
    config = RunConfig(seed=7, tol_on=1e-9, tol_off=1e-2, rank_samples=11,
                       multistarts=3, output_format="csv")
    back = RunConfig(**json.loads(json.dumps(config.to_json())))
    t.check(back == config, "RunConfig round-trip failed")
    return t.result()


def run_selfcheck(max_r: int = 9) -> SelfCheckReport:
    """Run every suite and collect a report; all suites run even after
    a failure so the report is complete."""
    suites = (
        _suite_table1(),
        _suite_tables23(),
        _suite_worked_example(),
        _suite_degree_sum(max_r),
        _suite_witnesses(),
        _suite_roundtrips(),
    )
    return SelfCheckReport(suites)
