"""Benchmark: the SC simulation hot path — fused engine vs reference.

Times the CNN-4 forward pass (batch 8, 16x16 inputs, 64-bit streams) in
every accumulation mode under five arms:

* ``seed``      — ``engine="reference"`` with the byte-LUT popcount:
  the hot path exactly as it existed before the fused engine landed
  (the pre-PR baseline the speedup target is measured against).
* ``reference`` — ``engine="reference"`` with the native
  ``np.bitwise_count`` popcount (isolates the popcount switch).
* ``fused``     — the fused bit-kernel engine, single worker.
* ``fused_mt``  — the fused engine with one worker per available CPU
  (on a single-CPU machine this arm documents, rather than shows,
  thread scaling).
* ``numpy``     — the fused engine's numpy fallback, single worker: what
  a host without a C compiler runs.

The fused arms run the native kernel of :mod:`repro.sc.kernels` when it
can be built (``machine.native_kernel`` records whether it was).

A kernel-level **density sweep** then times the fused kernel on one
representative conv shape at 0%/50%/90% activation-value sparsity per
accumulation mode — the kernel skips zero activations, a win only
visible on sparse operands, and the CNN-4 forward above does not let us
pin activation density. Every cell is checked against the numpy
fallback.

Each arm is warmed first (stream tables are built and cached on the
warm-up call) and the best of ``reps`` runs is kept — the interesting
quantity is the achievable per-forward cost, not scheduler noise.
Results, speedups, their geometric mean across modes, and the stream
table cache counters are written to ``BENCH_hot_path.json`` at the
repository root so future PRs can track the hot path.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_hot_path.py [--reps N] \
        [--profile PATH]

or through pytest (``pytest benchmarks/bench_hot_path.py``).
``--profile`` exports the run's telemetry (``PATH.jsonl`` +
``PATH.trace.json``, see :mod:`repro.obs`) and prints the span/counter
summary tree, so a bench run records *where* the time goes, not just
how much of it there is.
"""

import argparse
import json
import math
import platform
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np

from repro import obs
from repro.models.cnn4 import cnn4_sc
from repro.sc import native as native_kernel
from repro.sc.kernels import fused_conv_counts
from repro.scnn.config import SCConfig
from repro.scnn.sim import clear_table_cache, stream_table, table_cache_stats
from repro.sc.rng import LFSRSource
from repro.utils import bitops
from repro.utils.parallel import cpu_count

MODES = ("sc", "pbw", "pbhw", "fxp", "apc")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_hot_path.json"

#: CNN-4 forward the arms are timed on.
BATCH, IN_CHANNELS, INPUT_SIZE, STREAM_LENGTH = 8, 1, 16, 64

#: Activation-value zero fractions of the kernel-level density sweep.
DENSITIES = (0.0, 0.5, 0.9)

#: Density-sweep operand shape: a mid-size conv layer with 64-bit
#: streams.
SWEEP_SHAPE = dict(n=4, cin=16, cout=32, k=5, p=196, bits=6)


def _no_native_kernel():
    """Context in which the native kernel loader reports no library."""
    return mock.patch.object(native_kernel, "load", lambda: None)


def _forward_time(engine: str, mode: str, native: bool, workers: int,
                  reps: int, fallback: bool = False) -> float:
    """Best-of-``reps`` seconds for one warm CNN-4 forward pass."""
    saved = bitops.USE_NATIVE_POPCOUNT
    bitops.USE_NATIVE_POPCOUNT = native and bitops.HAS_NATIVE_POPCOUNT
    try:
        cfg = SCConfig(
            stream_length=STREAM_LENGTH,
            stream_length_pooling=STREAM_LENGTH,
            accumulation=mode,
            engine=engine,
            num_workers=workers,
        )
        model = cnn4_sc(
            cfg,
            num_classes=10,
            in_channels=IN_CHANNELS,
            input_size=INPUT_SIZE,
            seed=7,
        )
        x = (
            np.random.default_rng(3)
            .uniform(0, 1, size=(BATCH, IN_CHANNELS, INPUT_SIZE, INPUT_SIZE))
            .astype(np.float32)
        )
        model(x)  # warm-up: builds and caches the stream tables
        best = math.inf
        with _no_native_kernel() if fallback else nullcontext():
            for _ in range(reps):
                t0 = time.perf_counter()
                model(x)
                best = min(best, time.perf_counter() - t0)
        return best
    finally:
        bitops.USE_NATIVE_POPCOUNT = saved


def _sweep_operands(mode: str, density: float):
    """Synthetic fused-call operands at a pinned activation density."""
    n, cin, cout, k, p, bits = (
        SWEEP_SHAPE[key] for key in ("n", "cin", "cout", "k", "p", "bits")
    )
    rng = np.random.default_rng(int(density * 100) + 17)
    source = LFSRSource(bits)
    seeds = np.arange(1, 1 + cin * k * k + cout)
    table, unique = stream_table(source, bits, STREAM_LENGTH, seeds, False)
    act_rows = np.searchsorted(unique, seeds[: cin * k * k].reshape(cin, k, k))
    cols = rng.integers(1, 1 << bits, size=(n, cin, k, k, p))
    cols[rng.random(cols.shape) < density] = 0
    wq = rng.integers(0, 1 << bits, size=(cout, cin, k, k))
    wrow = np.searchsorted(unique, seeds[cin * k * k:])
    wp = table[wrow[:, None, None, None] % table.shape[0], wq]
    wn = table[
        wrow[:, None, None, None] % table.shape[0], (wq + 3) % (1 << bits)
    ]
    return table, act_rows, cols, wp, wn


def run_density_sweep(reps: int = 3) -> dict:
    """Time the fused kernel across modes and activation densities.

    ``vs_dense_input`` is the cell's speedup over the same mode at 0%
    sparsity: the zero skip's win. Every cell must equal the numpy
    fallback bit for bit.
    """
    sweep: dict[str, dict] = {}
    for mode in MODES:
        sweep[mode] = {}
        for density in DENSITIES:
            operands = _sweep_operands(mode, density)
            got = fused_conv_counts(*operands, mode)
            with _no_native_kernel():
                want = fused_conv_counts(*operands, mode)
            if not np.array_equal(got, want):
                raise AssertionError(
                    f"native/numpy mismatch: mode={mode} density={density}"
                )
            best = math.inf
            for _ in range(reps):
                t0 = time.perf_counter()
                fused_conv_counts(*operands, mode)
                best = min(best, time.perf_counter() - t0)
            sweep[mode][f"{density:.2f}"] = {"fused_s": best}
        dense_s = sweep[mode][f"{DENSITIES[0]:.2f}"]["fused_s"]
        for cell in sweep[mode].values():
            cell["vs_dense_input"] = dense_s / cell["fused_s"]
    return sweep


def run_hot_path(reps: int = 5) -> dict:
    """Time every (mode, arm) pair and assemble the report dict."""
    clear_table_cache()
    ncpu = cpu_count()
    arms = {
        "seed": dict(engine="reference", native=False, workers=1),
        "reference": dict(engine="reference", native=True, workers=1),
        "fused": dict(engine="fused", native=True, workers=1),
        "fused_mt": dict(engine="fused", native=True, workers=ncpu),
        "numpy": dict(engine="fused", native=True, workers=1, fallback=True),
    }
    times: dict[str, dict[str, float]] = {
        mode: {
            arm: _forward_time(mode=mode, reps=reps, **knobs)
            for arm, knobs in arms.items()
        }
        for mode in MODES
    }

    speedups = {
        mode: {
            "fused_vs_seed": times[mode]["seed"] / times[mode]["fused"],
            "fused_vs_reference": (
                times[mode]["reference"] / times[mode]["fused"]
            ),
            "fused_mt_vs_fused": (
                times[mode]["fused"] / times[mode]["fused_mt"]
            ),
            "fused_vs_numpy": times[mode]["numpy"] / times[mode]["fused"],
        }
        for mode in MODES
    }

    def geomean(key: str) -> float:
        return math.exp(
            sum(math.log(speedups[m][key]) for m in MODES) / len(MODES)
        )

    machine = {
        "cpus": ncpu,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "native_popcount": bool(bitops.HAS_NATIVE_POPCOUNT),
        "native_kernel": native_kernel.load() is not None,
    }
    if ncpu <= 1:
        machine["multicore_note"] = (
            "bench host exposes a single vCPU: the fused_mt arm measures "
            "sharding overhead, not scaling."
        )

    return {
        "benchmark": "cnn4_forward",
        "config": {
            "batch": BATCH,
            "in_channels": IN_CHANNELS,
            "input_size": INPUT_SIZE,
            "stream_length": STREAM_LENGTH,
            "reps_best_of": reps,
        },
        "machine": machine,
        "seconds_per_forward": times,
        "speedups": speedups,
        "geomean": {
            key: geomean(key)
            for key in (
                "fused_vs_seed", "fused_vs_reference", "fused_mt_vs_fused",
                "fused_vs_numpy",
            )
        },
        "density_sweep": {
            "shape": dict(SWEEP_SHAPE, stream_length=STREAM_LENGTH),
            "results": run_density_sweep(),
        },
        "table_cache": table_cache_stats(),
        "telemetry": {
            "enabled": obs.enabled(),
            "counters": obs.get_registry().counters(),
        },
        "notes": (
            "'seed' is the pre-fused hot path (reference engine + byte-LUT "
            "popcount). 'fused' and 'fused_mt' run the native kernel when "
            "machine.native_kernel is true; 'numpy' is the fallback a host "
            "without a C compiler runs. fused_mt uses one worker per CPU; "
            "on a single-CPU machine it measures sharding overhead. "
            "density_sweep times the fused kernel on synthetic operands at "
            "pinned activation sparsity."
        ),
    }


def render(report: dict) -> str:
    rows = [
        f"{'mode':6s} {'seed':>8s} {'refnat':>8s} {'fused':>8s} "
        f"{'fused_mt':>8s} {'numpy':>8s} {'vs seed':>8s} {'vs ref':>8s}"
    ]
    for mode in MODES:
        t = report["seconds_per_forward"][mode]
        s = report["speedups"][mode]
        rows.append(
            f"{mode:6s} {t['seed'] * 1e3:7.1f}ms {t['reference'] * 1e3:7.1f}ms "
            f"{t['fused'] * 1e3:7.1f}ms {t['fused_mt'] * 1e3:7.1f}ms "
            f"{t['numpy'] * 1e3:7.1f}ms "
            f"{s['fused_vs_seed']:7.2f}x {s['fused_vs_reference']:7.2f}x"
        )
    g = report["geomean"]
    rows.append(
        f"geomean fused vs seed: {g['fused_vs_seed']:.2f}x, "
        f"vs reference(native): {g['fused_vs_reference']:.2f}x, "
        f"vs numpy fallback: {g['fused_vs_numpy']:.2f}x, "
        f"fused_mt vs fused: {g['fused_mt_vs_fused']:.2f}x "
        f"({report['machine']['cpus']} CPU(s), native kernel: "
        f"{report['machine']['native_kernel']})"
    )
    rows.append("density sweep (speedup over the same mode at 0% zeros):")
    for mode in MODES:
        cells = report["density_sweep"]["results"][mode]
        line = "  ".join(
            f"zf={density}: {cell['vs_dense_input']:5.2f}x"
            for density, cell in cells.items()
        )
        rows.append(f"  {mode:6s} {line}")
    cache = report["table_cache"]
    rows.append(
        f"table cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['size']}/{cache['capacity']} entries)"
    )
    return "\n".join(rows)


def _write(report: dict) -> None:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")


def test_hot_path(once):
    report = once(run_hot_path)
    print()
    print(render(report))
    _write(report)
    # The fused engine must beat the pre-PR hot path decisively on the
    # popcount-bound modes and never lose overall. (The hard paper-target
    # of >=3x geomean is recorded in the JSON; asserting a softer bound
    # keeps the suite robust to noisy shared-CPU boxes.)
    assert report["geomean"]["fused_vs_seed"] > 1.5
    for mode in ("fxp", "apc"):
        assert report["speedups"][mode]["fused_vs_seed"] > 3.0
    cache = report["table_cache"]
    assert cache["hits"] > 0  # warmed tables were reused across arms
    # The zero skip must pull its weight: at 90% activation sparsity at
    # least one mode runs >= 1.5x its own dense-input time.
    at_90 = [
        cells["0.90"]["vs_dense_input"]
        for cells in report["density_sweep"]["results"].values()
    ]
    assert max(at_90) >= 1.5


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reps", type=int, default=5,
        help="best-of repetitions per (mode, arm) pair",
    )
    parser.add_argument(
        "--profile", default=None, metavar="PATH",
        help="export telemetry as PATH.jsonl + PATH.trace.json and "
        "print the span/counter summary tree",
    )
    cli_args = parser.parse_args()
    if cli_args.profile:
        obs.reset()
    result = run_hot_path(reps=cli_args.reps)
    print(render(result))
    _write(result)
    print(f"wrote {OUTPUT}")
    if cli_args.profile:
        jsonl, trace = obs.export_profile(cli_args.profile)
        print()
        print(obs.summary_tree())
        print(f"wrote {jsonl} and {trace}")
