"""crl-atlas benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload hist-exact --seed 1 --seconds 45 --trace 0

The library is imported from the ``src/`` directory beside this one and
the verification oracles from ``tests/oracles.py``; nothing is installed
or built.  Without them the run exits 1 and prints no result.

``--trace 0`` measures set-up (the median of five fresh interpreters
that import ``crl_atlas`` and build the inputs), then runs items in a
closed loop, one at a time with ``threads=1``, for ``--seconds`` and at
least the workload's digest prefix, then re-verifies every output with
the oracles outside the timed region.  ``--trace 1`` runs each item of
the digest prefix twice, untraced and traced, and reports per-layer
counts and times from the spans; spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.

The last stdout line is the result object, whose metrics are
``items_per_s``, ``peak_rss_mb`` and ``setup_s`` untraced and the
per-layer metrics traced.  The line before it, prefixed ``perfbench``,
carries the full report: ``item_p50_ms``, ``item_p95_ms`` where at least
ten samples lie above it, ``fail_frac``, ``unproven_frac`` and the sha256
digest of the canonical outputs of the digest prefix.  ``failed`` counts
items that raised or whose output failed re-verification.  ``correct``
is false only when an item raised or an exactly certified output (a rank
witness, or a wall on the exact quartic scan) failed; the quintic scan's
wall brackets rest on the randomized search, which ROADMAP item 1
records as misplacing the rank 4-5 wall, so their failures count in
``failed`` only.

BENCHMARK.json lists hist-exact and scan-quartic, which between them
reach every layer and on which no item fails.  The other three run here
and in ``report.py`` but are not gated: on ``scan`` nearly every segment
fails the wall check (ROADMAP item 1), and in hist-search and membership
heavy tails make throughput vary too much between seeds: in hist-search
5% of the forms take half the time, and about one (2,2,2) test in a
hundred on a random sextic takes 15-30 s instead of 1-2 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("hist-exact", "hist-search", "scan", "scan-quartic", "membership")
SETUP_PROBES = 5


def _load_library() -> None:
    # one BLAS thread: every workload is a single-threaded process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "crl_atlas" / "__init__.py").is_file():
        sys.exit(f"perfbench: no crl_atlas sources under {src}")
    if not (tests / "oracles.py").is_file():
        sys.exit(f"perfbench: no verification oracles at {tests / 'oracles.py'}")
    sys.path[:0] = [str(src), str(tests)]


def _parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _pool(w, args) -> list:
    count = max(w.digest_items, int(w.rate_cap * args.seconds))
    return w.make(args.seed, count)


def _measure_setup(args) -> float:
    """Median seconds from spawning a fresh interpreter to inputs ready."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                sys.exit("perfbench: set-up probe failed")
        times.append(ready)
    return statistics.median(times)


def _run_items(w, items, seconds: float, min_items: int):
    """Closed loop: next item starts when the previous one returns."""
    outs, lat = [], []
    start = time.perf_counter()
    while len(outs) < min_items or time.perf_counter() - start < seconds:
        item = items[len(outs) % len(items)]
        t0 = time.perf_counter()
        try:
            out = w.run(item)
        except Exception as exc:  # a raising item is a failed item
            out = exc
        lat.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, lat, time.perf_counter() - start


def _canonical(w, item, out):
    if isinstance(out, Exception):
        return ["raised", type(out).__name__]
    return w.canonical(item, out)


def _digest(w, items, outs) -> str:
    canon = [_canonical(w, i, o) for i, o in zip(items, outs)]
    text = json.dumps(canon, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _verify(name, items, outs):
    """(failed items, unproven items, fatal items, first reasons)."""
    from verify import CHECKS

    failed = unproven = fatal = 0
    reasons: list[str] = []
    for i, out in enumerate(outs):
        if isinstance(out, Exception):
            bad, unp, fat = [f"raised {type(out).__name__}: {out}"], False, True
        else:
            bad, unp, fat = CHECKS[name](items[i % len(items)], out)
        failed += bool(bad)
        unproven += unp
        fatal += fat
        if bad and len(reasons) < 5:
            reasons.append(f"item {i}: {bad[0]}")
    return failed, unproven, fatal, reasons


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_run(w, args) -> tuple[dict, dict]:
    setup_s = _measure_setup(args)
    items = _pool(w, args)
    outs, lat, wall = _run_items(w, items, args.seconds, w.digest_items)
    peak = _peak_rss_mb()
    n = len(outs)
    t0 = time.perf_counter()
    failed, unproven, fatal, reasons = _verify(args.workload, items, outs)
    verify_s = time.perf_counter() - t0
    p50_ms = 1000.0 * statistics.median(lat)
    # p95 only where at least ten samples lie above it
    p95_ms = 1000.0 * statistics.quantiles(lat, n=20)[18] if n >= 200 else None
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": n / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "items": n, "wall_s": wall, "cycled": n > len(items),
        "setup_s": setup_s, "items_per_s": n / wall,
        "item_p50_ms": p50_ms, "item_p95_ms": p95_ms, "latency_samples": n,
        "fail_frac": failed / n, "unproven_frac": unproven / n,
        "peak_rss_mb": peak,
        "digest": _digest(w, items[: w.digest_items], outs[: w.digest_items]),
        "digest_items": w.digest_items, "verify_s": verify_s, "failures": reasons,
    }
    result = {"correct": fatal == 0, "attempted": n, "failed": failed,
              "metrics": metrics}
    return report, result


def _traced_run(w, args) -> tuple[dict, dict]:
    from spans import Tracer, layer_metrics, unit

    items = w.make(args.seed, w.digest_items)
    tracer = Tracer()
    plain, outs = [], []
    walls = {False: 0.0, True: 0.0}
    for i, item in enumerate(items):
        # each item runs untraced and traced, in alternating order, so
        # machine drift and warm-up do not land on one side
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                tracer.install()
            try:
                (out,), _, wall = _run_items(w, [item], 0.0, 1)
            finally:
                tracer.uninstall()
            walls[traced] += wall
            (outs if traced else plain).append(out)
    plain_wall, traced_wall = walls[False], walls[True]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.dump(span_file)

    failed, unproven, fatal, reasons = _verify(args.workload, items, outs)
    digest = _digest(w, items, outs)
    same = digest == _digest(w, items, plain)
    layers = layer_metrics(tracer.spans)
    layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in layers.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "items": len(items),
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "spans": len(tracer.spans), "span_file": str(span_file.relative_to(ROOT)),
        "fail_frac": failed / len(items), "unproven_frac": unproven / len(items),
        "digest": digest, "digest_items": len(items),
        "traced_output_identical": same, "failures": reasons,
    }
    result = {"correct": fatal == 0 and same, "attempted": len(items),
              "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    args = _parse(argv)
    _load_library()
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    if args.probe:
        _pool(w, args)
        print("ready", flush=True)
        return 0
    report, result = (_traced_run if args.trace else _timed_run)(w, args)
    print("perfbench " + json.dumps(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
