"""Spans around the library's public functions, recorded from outside.

``Tracer.install()`` replaces each traced function with a wrapper in
every ``crl_atlas`` module that holds a reference to it (modules bind
``from .poly_core import is_real_rooted`` by name), plus ``numpy.roots``
and ``scipy.optimize.least_squares``, which the rank search and the
membership descent call.  ``uninstall()`` restores the originals.  An
untraced run never installs anything.

A span is ``[name, parent, start, end, value]``: ``parent`` is the index
of the enclosing span or -1, and ``value`` is the one output field a
metric needs (nfev, a verdict, a certificate kind).  Spans stay in memory
until ``dump``.  ``layer_metrics`` derives call counts, inclusive
seconds and self seconds (duration minus direct children) from them.
"""

from __future__ import annotations

import json
import sys
import time

import numpy
import scipy.optimize

import crl_atlas.boundary
import crl_atlas.poly_core
import crl_atlas.rank
from crl_atlas import _intlinalg, apolarity

# span name -> (owner object, attribute, value kept from the result)
TARGETS = {
    "poly_core.is_real_rooted": (crl_atlas.poly_core, "is_real_rooted", bool),
    "poly_core.discriminant": (crl_atlas.poly_core, "discriminant", None),
    "poly_core.isolate_real_roots": (crl_atlas.poly_core, "isolate_real_roots", None),
    "poly_core.gcd_poly": (crl_atlas.poly_core, "gcd_poly", None),
    "intlinalg.kernel_basis": (_intlinalg, "kernel_basis", None),
    "intlinalg.det": (_intlinalg, "det", None),
    "intlinalg.solve": (_intlinalg, "solve", None),
    "apolarity.apolar_kernel": (apolarity, "apolar_kernel", None),
    "rank.real_rank": (
        crl_atlas.rank, "real_rank", lambda c: [c.lower_bound_kind, c.budget_used]
    ),
    "rank.complex_rank": (crl_atlas.rank, "complex_rank", None),
    "boundary.crossing_scan": (crl_atlas.boundary, "crossing_scan", len),
    "boundary.dual_membership": (
        crl_atlas.boundary, "dual_membership", lambda r: r.verdict
    ),
    "numpy.roots": (numpy, "roots", None),
    "scipy.least_squares": (scipy.optimize, "least_squares", lambda fit: int(fit.nfev)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, keep):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if keep is not None:
                span[4] = keep(out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("crl_atlas")]
        for name, (owner, attr, keep) in TARGETS.items():
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, keep)
            holders = {id(m): m for m in [owner, *modules]}
            for holder in holders.values():
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for i, (name, parent, start, end, value) in enumerate(self.spans):
                out.write(json.dumps([i, name, parent, start, end, value]) + "\n")


def _ancestor_names(spans: list[list]) -> list[frozenset]:
    # parents always precede children, so one forward pass suffices
    above: list[frozenset] = []
    for name, parent, *_ in spans:
        if parent < 0:
            above.append(frozenset())
        else:
            above.append(above[parent] | {spans[parent][0]})
    return above


def layer_metrics(spans: list[list]) -> dict[str, float]:
    above = _ancestor_names(spans)
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def select(name, under=None):
        return [
            i for i, s in enumerate(spans)
            if s[0] == name and (under is None or under in above[i])
        ]

    def inclusive(idx):
        # a span nested in one of the same name is already inside it
        return sum(spans[i][3] - spans[i][2] for i in idx if spans[i][0] not in above[i])

    def self_time(idx):
        return sum(spans[i][3] - spans[i][2] - child_time[i] for i in idx)

    out: dict[str, float] = {}
    for name in (
        "poly_core.is_real_rooted", "poly_core.discriminant",
        "poly_core.isolate_real_roots", "poly_core.gcd_poly",
        "intlinalg.kernel_basis", "intlinalg.det", "intlinalg.solve",
        "apolarity.apolar_kernel", "rank.real_rank",
        "boundary.crossing_scan", "boundary.dual_membership",
    ):
        idx = select(name)
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.s"] = inclusive(idx)
        out[f"{name}.self_s"] = self_time(idx)
    idx = select("rank.complex_rank")
    out["rank.complex_rank.calls"] = len(idx)
    out["rank.complex_rank.s"] = inclusive(idx)

    real = select("rank.real_rank")
    out["rank.real_rank.probabilistic"] = sum(
        spans[i][4][0] == "probabilistic" for i in real
    )
    out["rank.real_rank.budget_used"] = sum(spans[i][4][1] for i in real)

    idx = select("numpy.roots", under="rank.real_rank")
    out["rank.search.roots_calls"] = len(idx)
    out["rank.search.roots_s"] = inclusive(idx)
    for prefix, under in (
        ("rank.search", "rank.real_rank"),
        ("boundary.membership", "boundary.dual_membership"),
    ):
        idx = select("scipy.least_squares", under=under)
        out[f"{prefix}.lsq_calls"] = len(idx)
        out[f"{prefix}.lsq_nfev"] = sum(spans[i][4] for i in idx)
        out[f"{prefix}.lsq_s"] = inclusive(idx)

    idx = select("poly_core.is_real_rooted", under="rank.real_rank")
    out["rank.certify.calls"] = len(idx)
    out["rank.certify.hit_ratio"] = (
        sum(bool(spans[i][4]) for i in idx) / len(idx) if idx else 0.0
    )

    idx = select("rank.real_rank", under="boundary.crossing_scan")
    out["boundary.scan.rank_calls"] = len(idx)
    out["boundary.scan.rank_s"] = inclusive(idx)
    out["boundary.scan.events"] = sum(spans[i][4] for i in select("boundary.crossing_scan"))
    out["boundary.scan.membership_s"] = inclusive(
        select("boundary.dual_membership", under="boundary.crossing_scan")
    )
    out["boundary.membership.inconclusive"] = sum(
        spans[i][4] == "inconclusive" for i in select("boundary.dual_membership")
    )
    return out


def unit(name: str) -> str:
    # work counters, which must repeat exactly on a seed, end in these
    if name.endswith(("calls", "nfev", "probabilistic", "budget_used", "events", "inconclusive")):
        return "count"
    return "ratio" if name.endswith(("hit_ratio", "overhead_frac")) else "s"
