"""Shared pieces of the benchmark: inputs, model scenarios, accounting.

Everything here is benchmark-side. The program under test is the
``repro`` package in ``src/``; this module only builds its inputs from
the workload seed and keeps the books (operations attempted and failed,
latency quantiles, peak memory).
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets.synthetic import SyntheticImages, downscale
from repro.models.cnn4 import cnn4_sc
from repro.nn.data import ArrayDataset
from repro.nn.serialize import save_model
from repro.scnn.config import SCConfig

#: Accumulation modes ``infer-warm`` rotates through, round-robin.
MODES = ("sc", "pbw", "pbhw", "fxp", "apc")

#: Set-up repetitions before the first timed operation. ``setup_s`` is
#: the median of these and of :data:`SETUP_PER_ROUND` more after every
#: round of the closed-loop workloads: most set-ups take 5-80 ms, and
#: fifteen in a row at the start all fell in one phase of the host's
#: speed, which moved the median by up to 40% from run to run.
SETUP_REPEATS = 5
SETUP_PER_ROUND = 2

#: Set-up repetitions of ``serve-cluster``: a replica spawn takes about
#: 0.3 s, and stopping one another 0.5 s.
SPAWN_REPEATS = 7

#: Latency limit of the serving objective (the default ``SLOPolicy``).
SLO_MS = 250.0


class Tally:
    """Operations attempted and failed. A failed check is a failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


def now() -> float:
    return time.perf_counter()


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1); NaN on no values."""
    if len(values) == 0:
        return float("nan")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass(frozen=True)
class Scenario:
    """One CNN-4 configuration a workload runs: stream config, width and
    input shape. ``build`` gives the same weights for the same seed, so a
    fused model and its ``engine="reference"`` twin are comparable."""

    cfg: SCConfig
    width: float
    channels: int
    size: int = 16

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.size, self.size)

    def kwargs(self, seed: int) -> dict:
        return {
            "in_channels": self.channels,
            "input_size": self.size,
            "width_mult": self.width,
            "seed": seed,
        }

    def build(self, seed: int, **cfg_changes):
        return cnn4_sc(self.cfg.with_(**cfg_changes), **self.kwargs(seed))

    def save(self, model, path: Path, seed: int) -> Path:
        return save_model(
            model, path, "cnn4_sc", self.kwargs(seed), sc_config=self.cfg
        )


def streams(bits_len: int) -> SCConfig:
    """Default ``SCConfig`` with every layer kind at one stream length."""
    return SCConfig(
        stream_length=bits_len,
        stream_length_pooling=bits_len,
        output_stream_length=bits_len,
    )


#: Workload scenarios, as the benchmark README describes them.
INFER = Scenario(streams(64), width=1.0, channels=1)
COLD = Scenario(SCConfig(), width=1.0, channels=1)  # paper default, 128-bit
TRAIN = Scenario(streams(32), width=0.5, channels=3)
SERVE = Scenario(streams(64), width=0.5, channels=1)


def images(seed: int, count: int, channels: int, split: str = "train") -> ArrayDataset:
    """``count`` synthetic SVHN-like images at 16x16 in [0, 1].

    The 32x32 generator output is average-pooled by 2; one-channel
    inputs are the channel mean (a grey-scale view of the same images).
    """
    data = downscale(SyntheticImages("svhn", seed=seed).dataset(count, split), 2)
    if channels == 1:
        data = ArrayDataset(
            data.images.mean(axis=1, keepdims=True).astype(np.float32),
            data.labels,
        )
    return data


def model_seed(seed: int, salt: int) -> int:
    """Model weight seed derived from the workload seed."""
    return int(np.random.default_rng((seed, salt)).integers(0, 2**31 - 1))
