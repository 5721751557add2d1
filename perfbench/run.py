#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, every check.

Run from the repository root::

    python3 perfbench/run.py --workload infer-warm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's default
telemetry; ``--trace 1`` is the separate traced run that reports the
per-layer metrics and the tracing overhead. Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Workloads,
metrics and the layer-to-metric predictions are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Scratch space inside the checkout: the saved models, and ``TMPDIR``
#: (multiprocessing puts the replica forkserver's socket there).
TMP = ROOT / ".perfbench_tmp"

#: End-to-end metrics (``--trace 0``) with their units. ``serve_ms_p99``
#: is measured too but only printed, not reported in the result line: on
#: the bench host its run-to-run spread exceeds any bound the benchmark
#: may set (README, "Why serve_ms_p99 is not reported").
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "infer_samples_per_s": "1/s",
    "load_ms_p50": "ms",
    "load_ms_p90": "ms",
    "train_samples_per_s": "1/s",
    "serve_ms_p50": "ms",
    "serve_slo_share": "share",
    "serve_top_tier_share": "share",
}

#: Per-layer metrics (``--trace 1``) with their units.
LAYER_UNITS = {
    "sc.sng.busy_s": "s",
    "sc.sng.bits_per_s": "1/s",
    "scnn.table_cache.hit_ratio": "share",
    "scnn.table_cache.bytes": "B",
    **{f"scnn.layer{i}.busy_s": "s" for i in range(4)},
    "scnn.overhead_s": "s",
    "sc.kernels.busy_s": "s",
    "sc.kernels.calls": "count",
    "sc.kernels.words_per_s": "1/s",
    "sc.kernels.ceiling_words_per_s": "1/s",
    "sc.kernels.ceiling_share": "share",
    "sc.kernels.skipped_word_share": "share",
    **{f"sc.kernels.{m}.busy_s": "s" for m in ("sc", "pbw", "pbhw", "fxp", "apc")},
    "nn.im2col.busy_s": "s",
    "nn.conv2d_fp.busy_s": "s",
    "nn.backward.busy_s": "s",
    "nn.optim.busy_s": "s",
    "nn.data.busy_s": "s",
    "nn.serialize.load_s": "s",
    "serve.warm_s": "s",
    "serve.queue_ms_p50": "ms",
    "serve.batch_forward_ms_mean": "ms",
    "serve.batch_size_mean": "count",
    "serve.failed": "count",
    "serve.solo_mismatches": "count",
    "serve.solo_mismatch_share": "share",
    "cluster.spawn_s": "s",
    "cluster.hop_ms_p50": "ms",
    "cluster.failovers": "count",
    "loadgen.lag_ms_p50": "ms",
    "loadgen.lag_ms_p99": "ms",
    "trace.overhead_ratio": "ratio",
}

#: The end-to-end metric each workload's layer table sits next to.
HEADLINE = {
    "infer-warm": ("infer_samples_per_s", "sc.kernels.busy_s"),
    "cold-load": ("load_ms_p50", "sc.sng.busy_s"),
    "train-step": ("train_samples_per_s", "sc.kernels.busy_s"),
    "serve-cluster": ("serve_ms_p50", "serve.batch_forward_ms_mean"),
}

#: Layers whose self time the traced run ranks (busy seconds per op).
RANKED = (
    "sc.sng.busy_s",
    "sc.kernels.busy_s",
    "scnn.overhead_s",
    "nn.im2col.busy_s",
    "nn.conv2d_fp.busy_s",
    "nn.backward.busy_s",
    "nn.optim.busy_s",
    "nn.data.busy_s",
    "nn.serialize.load_s",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("infer-warm", "cold-load", "train-step", "serve-cluster"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_helpers() -> None:
    """Stop the forkserver and resource tracker multiprocessing started
    for the replica, and wait for both to exit."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(TMP)
    sys.path[:0] = [str(SRC), str(HERE)]
    from layers import Tracer, kernel_ceiling_words_per_s
    from workloads import WORKLOADS, Run

    run = Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    run.tracer = Tracer() if run.trace else None
    run.tmp = Path(tempfile.mkdtemp(prefix="models-", dir=TMP))
    try:
        WORKLOADS[args.workload](run)
    finally:
        stop_helpers()
        shutil.rmtree(run.tmp, ignore_errors=True)

    if run.trace:
        metrics = {**run.tracer.metrics(kernel_ceiling_words_per_s()), **run.layer}
        units = LAYER_UNITS
    else:
        metrics = run.e2e
        units = E2E_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing and not run.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # Layers a workload does not reach report zero (e.g. ``serve.*`` on
    # the offline workloads, in-process layers on ``serve-cluster``).
    metrics.update({name: 0.0 for name in missing})
    report(args.workload, run, metrics, units)
    correct = run.tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def report(workload: str, run, metrics: dict, units: dict) -> None:
    print(f"workload {workload}  seed {run.seed}  seconds {run.seconds:g}  "
          f"trace {int(run.trace)}")
    print(f"operations attempted {run.tally.attempted}  failed {run.tally.failed}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    if "serve_ms_p99" in run.e2e and not run.trace:
        print(f"  {'serve_ms_p99 (not reported)':34s} {run.e2e['serve_ms_p99']:>16.6g} ms")
    if run.trace:
        headline, layer = HEADLINE[workload]
        ranked = sorted(RANKED, key=lambda n: metrics[n], reverse=True)
        print(f"{headline} {run.e2e[headline]:.6g} {E2E_UNITS[headline]} on the untraced "
              f"operations of this run; traced overhead "
              f"{metrics['trace.overhead_ratio']:+.1%}; {layer} {metrics[layer]:.6g}")
        print("layer busy time per traced operation, largest first:")
        for name in ranked:
            print(f"  {name:34s} {metrics[name]:>12.6f} s")


if __name__ == "__main__":
    raise SystemExit(main())
