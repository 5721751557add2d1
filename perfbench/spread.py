#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs ``perfbench/run.py`` once per seed for each workload and reports,
per metric, the median and the spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median. Run from the repository root::

    python3 perfbench/spread.py --workloads infer-warm cold-load \\
        --seeds 1 2 3 4 5 --seconds 10 --trace 0 [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)``."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()
    report = {}
    for workload in args.workloads:
        runs = [one_run(workload, s, args.seconds, args.trace) for s in args.seeds]
        report[workload] = runs
        walls = [r["wall_s"] for r in runs]
        print(f"{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}, "
              f"all correct {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:34s} median {median:>12.6g} {unit:6s} spread {share:6.1%}  "
                  + " ".join(f"{v:.4g}" for v in values))
        sys.stdout.flush()
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
