"""Run every workload and print its metrics as one table.

    python3 perfbench/report.py --seed 0 --seconds 45
    python3 perfbench/report.py --seed 0 --trace

The first form runs ``run.py --trace 0`` once per workload and prints
every end-to-end metric with its unit, the failure and unproven shares
and the output digest.  The second runs ``run.py --trace 1`` twice per
workload on the same seed, prints every per-layer metric and flags any
work counter that differs between the two runs; it exits 1 if one does,
because later changes cite these counts as evidence.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import NAMES


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    report_line, result_line = lines.strip().splitlines()[-2:]
    return json.loads(report_line.split(" ", 1)[1]), json.loads(result_line)


def _timed(args) -> int:
    cols = [
        ("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
        ("item_p95_ms", "ms"), ("fail_frac", "ratio"), ("unproven_frac", "ratio"),
        ("peak_rss_mb", "MB"),
    ]
    print(f"{'workload':12s} " + " ".join(f"{n + ' [' + u + ']':>20s}" for n, u in cols)
          + "  items  digest")
    for name in NAMES:
        report, result = _run(name, args.seed, args.seconds, 0)
        cells = []
        for key, _ in cols:
            value = report[key]
            cells.append(f"{'n/a':>20s}" if value is None else f"{value:20.4f}")
        print(f"{name:12s} " + " ".join(cells)
              + f"  {report['items']:5d}  {report['digest'][:16]} "
              f"(first {report['digest_items']})")
        for reason in report["failures"]:
            print(f"{'':12s} failure: {reason}")
    return 0


def _traced(args) -> int:
    differ = 0
    for name in NAMES:
        (rep_a, res_a), (_, res_b) = (_run(name, args.seed, args.seconds, 1) for _ in range(2))
        print(f"== {name} (seed {args.seed}, {rep_a['items']} items, "
              f"digest {rep_a['digest'][:16]})")
        for key, metric in res_a["metrics"].items():
            other = res_b["metrics"][key]["value"]
            flag = ""
            if metric["unit"] == "count" and other != metric["value"]:
                flag = f"  DIFFERS: second run {other}"
                differ += 1
            print(f"  {key:40s} {metric['value']:14.6g} {metric['unit']}{flag}")
    if differ:
        print(f"{differ} work counters differ between two runs on one seed")
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    return _traced(args) if args.trace else _timed(args)


if __name__ == "__main__":
    sys.exit(main())
