"""Re-verification of every workload output with the test suite's oracles.

Runs outside the timed region.  ``CHECKS[workload](item, out)`` returns
``(failures, unproven, fatal)``: the reasons the output is wrong, whether
the program labelled it unproven, and whether a wrong output is one the
program certifies exactly (a rank witness), which makes a run incorrect.

The oracles in ``tests/oracles.py`` share no code path with the library:
Descartes bisection instead of Sturm chains, raw monomial derivatives
instead of the Hankel pairing.
"""

from __future__ import annotations

from fractions import Fraction

from oracles import oracle_apply, oracle_is_real_rooted, squarefree_part


def _is_squarefree(q) -> bool:
    coeffs = list(q.coeffs)
    lead = 0
    while lead < len(coeffs) and coeffs[lead] == 0:
        lead += 1
    if lead > 1:
        return False  # repeated root at [1:0]
    p = coeffs[lead:]
    return len(p) <= 1 or len(squarefree_part(p)) == len(p)


def certificate_failures(f, cert) -> list[str]:
    """Witness degree, annihilation, squarefreeness and, if real, real-rootedness."""
    q = cert.witness
    bad = []
    if q.degree != cert.value:
        bad.append(f"{cert.field} witness degree {q.degree} != rank {cert.value}")
    if not oracle_apply(q, f).is_zero:
        bad.append(f"{cert.field} witness does not annihilate f")
    if not _is_squarefree(q):
        bad.append(f"{cert.field} witness is not squarefree")
    if cert.field == "real" and not oracle_is_real_rooted(q):
        bad.append("real witness is not real-rooted")
    return bad


def _check_ranks(f, certs):
    bad = [why for cert in certs for why in certificate_failures(f, cert)]
    unproven = any(c.lower_bound_kind == "probabilistic" for c in certs)
    return bad, unproven, bool(bad)


def _segment_form(f_from, f_to, eps: Fraction):
    return f_from.scale(1 - eps) + f_to.scale(eps)


def _check_scan(item, events):
    """Every event touching rank d must bracket the hyperbolicity wall.

    Real rank d holds exactly for hyperbolic forms (d distinct real
    roots), so the bracket end on the rank-d side must be hyperbolic and
    the other end must not be.  Decided exactly by the oracle.
    """
    f_from, f_to, *_ = item
    d = f_from.degree
    bad = []
    for e in events:
        if d not in (e.r_left, e.r_right):
            continue
        lo_hyp = oracle_is_real_rooted(_segment_form(f_from, f_to, e.eps_lo))
        hi_hyp = oracle_is_real_rooted(_segment_form(f_from, f_to, e.eps_hi))
        want_lo, want_hi = e.r_left == d, e.r_right == d
        if (lo_hyp, hi_hyp) != (want_lo, want_hi):
            bad.append(
                f"{e.r_left}->{e.r_right} event [{float(e.eps_lo):.12f}, "
                f"{float(e.eps_hi):.12f}] does not bracket the hyperbolicity wall"
            )
    unproven = any(e.anomaly for e in events)
    return bad, unproven, False


def _check_exact_scan(item, events):
    """As ``_check_scan``, on segments whose ranks are all exact (d = 4)."""
    bad, unproven, _ = _check_scan(item, events)
    return bad, unproven, bool(bad)


def _check_membership(item, report):
    _, mu, constructed = item
    bad = []
    if constructed and report.verdict != "on":
        bad.append(f"constructed member of {tuple(mu)} came back {report.verdict}")
    return bad, report.verdict == "inconclusive", False


CHECKS = {
    "hist-exact": _check_ranks,  # out is (real, complex)
    "hist-search": lambda f, cert: _check_ranks(f, (cert,)),
    "scan": _check_scan,
    "scan-quartic": _check_exact_scan,
    "membership": _check_membership,
}
