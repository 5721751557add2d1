"""Per-layer tracing for the traced run, from the benchmark's own files.

:class:`Tracer` wraps the public entry point of each layer of the
program — stream generation, the fused kernels, each SC layer's
simulator, the FP surrogate convolution, autograd, the optimizer, model
deserialisation and registry warm-up — and accumulates busy seconds
while it is installed. Nothing in ``src/`` changes; uninstalling puts
the original functions back, so untraced operations of the same run
pay nothing.

:func:`kernel_ceiling_words_per_s` calibrates the kernel ceiling: plain
numpy AND, OR-merge and popcount over packed ``uint64`` words.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import repro.nn.functional as nn_functional
import repro.scnn.sim as sim
import repro.serve.registry as registry
from repro import obs
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.sc.accumulate import AccumulationMode
from repro.sc.sng import SNG
from repro.scnn.sim import SCConvSimulator, table_cache_stats
from repro.serve.registry import ModelRegistry

#: SC layers of CNN-4: three SC convolutions and the SC classifier.
SC_LAYERS = 4


class Tracer:
    """Busy-time accumulator over patched layer entry points."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.sng_bits = 0
        self.kernel_calls = 0
        self.dense_words = 0
        self.kernel_words = 0.0
        self.ops = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_bytes = 0
        self._patches: list[tuple[object, str, object]] = []
        self._before: dict = {}

    # -- patching -------------------------------------------------------

    def _patch(self, owner, name: str, key: str, account=None) -> None:
        """Replace ``owner.name`` with a wrapper adding its busy time to
        ``key``; ``account`` sees the call's arguments."""
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.busy[key] += time.perf_counter() - start
                if account is not None:
                    account(*args, **kwargs)

        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        if self._patches:
            return

        def sng_bits(_sng, targets, seeds, length):
            self.sng_bits += np.broadcast(np.asarray(targets), np.asarray(seeds)).size * length

        self._patch(SNG, "generate", "sng", sng_bits)
        self._patch(sim, "im2col", "im2col")
        self._patch(nn_functional, "conv2d", "conv2d_fp")
        self._patch(Tensor, "backward", "backward")
        self._patch(Adam, "step", "optim")
        self._patch(registry, "load_model", "serialize")
        self._patch(ModelRegistry, "warm", "warm")
        self._patch_kernels()
        self._patch_layers()

    def _patch_kernels(self) -> None:
        """Time ``fused_conv_counts`` as ``repro.scnn.sim`` calls it, per
        accumulation mode, and take the kernels' own op counts from the
        ``repro.obs`` registry around each call: ``sc.kernels.calls``,
        the dense-equivalent ``sc.kernels.and_words``, and the share of
        them the sparse path actually processed (its ``nnz_words`` /
        ``skipped_words`` counters, in activation words)."""
        original = sim.fused_conv_counts
        reg = obs.get_registry()
        counters = [
            reg.counter("sc.kernels.calls"),
            reg.counter("sc.kernels.and_words", unit="words"),
            reg.counter("sc.kernels.nnz_words", unit="words"),
            reg.counter("sc.kernels.skipped_words", unit="words"),
        ]

        def fused(table, act_rows, cols, wp, wn, mode, **kwargs):
            before = [c.value for c in counters]
            start = time.perf_counter()
            try:
                return original(table, act_rows, cols, wp, wn, mode, **kwargs)
            finally:
                busy = time.perf_counter() - start
                key = "kernels." + AccumulationMode.parse(mode).value
                self.busy["kernels"] += busy
                self.busy[key] += busy
                calls, dense, done, skipped = (
                    c.value - b for c, b in zip(counters, before)
                )
                seen = done + skipped
                self.kernel_calls += calls
                self.dense_words += dense
                self.kernel_words += dense * done / seen if seen else dense

        self._patches.append((sim, "fused_conv_counts", original))
        sim.fused_conv_counts = fused

    def _patch_layers(self) -> None:
        """Busy time of each SC layer's simulator (the classifier's
        ``SCLinearSimulator`` runs a folded ``SCConvSimulator``)."""
        original = SCConvSimulator.__call__

        def layer_call(simulator, x, weight):
            start = time.perf_counter()
            try:
                return original(simulator, x, weight)
            finally:
                self.busy[f"layer{simulator.layer_index}"] += time.perf_counter() - start

        self._patches.append((SCConvSimulator, "__call__", original))
        SCConvSimulator.__call__ = layer_call

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- operation brackets -----------------------------------------------

    def begin(self) -> None:
        """Start one traced operation: patch, snapshot the cache counters."""
        self.install()
        self._before = table_cache_stats()

    def end(self) -> None:
        """Close the operation opened by :meth:`begin` and unpatch."""
        after = table_cache_stats()
        self.cache_hits += after["hits"] - self._before["hits"]
        self.cache_misses += after["misses"] - self._before["misses"]
        self.cache_bytes = after["bytes"]
        self.ops += 1
        self.uninstall()

    # -- report -------------------------------------------------------------

    def metrics(self, ceiling_words_per_s: float) -> dict[str, float]:
        """Per-layer metrics, busy times per traced operation."""
        ops = max(self.ops, 1)
        busy = self.busy
        kernels = busy["kernels"]
        layers = sum(busy[f"layer{i}"] for i in range(SC_LAYERS))
        words_per_s = self.kernel_words / kernels if kernels else 0.0
        lookups = self.cache_hits + self.cache_misses
        out = {
            "sc.sng.busy_s": busy["sng"] / ops,
            "sc.sng.bits_per_s": self.sng_bits / busy["sng"] if busy["sng"] else 0.0,
            "scnn.table_cache.hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "scnn.table_cache.bytes": float(self.cache_bytes),
            "scnn.overhead_s": max(
                0.0, layers - kernels - busy["sng"] - busy["im2col"]
            ) / ops,
            "sc.kernels.busy_s": kernels / ops,
            "sc.kernels.calls": self.kernel_calls / ops,
            "sc.kernels.words_per_s": words_per_s,
            "sc.kernels.ceiling_words_per_s": ceiling_words_per_s,
            "sc.kernels.ceiling_share": words_per_s / ceiling_words_per_s,
            "sc.kernels.skipped_word_share": (
                1.0 - self.kernel_words / self.dense_words if self.dense_words else 0.0
            ),
            "nn.im2col.busy_s": busy["im2col"] / ops,
            "nn.conv2d_fp.busy_s": busy["conv2d_fp"] / ops,
            "nn.backward.busy_s": busy["backward"] / ops,
            "nn.optim.busy_s": busy["optim"] / ops,
            "nn.data.busy_s": busy["data"] / ops,
            "nn.serialize.load_s": busy["serialize"] / ops,
            "serve.warm_s": busy["warm"] / ops,
        }
        for i in range(SC_LAYERS):
            out[f"scnn.layer{i}.busy_s"] = busy[f"layer{i}"] / ops
        for mode in AccumulationMode:
            out[f"sc.kernels.{mode.value}.busy_s"] = busy["kernels." + mode.value] / ops
        return out


def kernel_ceiling_words_per_s(repeats: int = 9, seed: int = 0) -> float:
    """Best-of-``repeats`` words/s of plain numpy AND → OR → popcount.

    One word is one 64-bit product word: ANDed with its weight word,
    OR-merged into a group of 64 (a reduction over the leading axis,
    numpy's fastest layout) and popcounted after the merge — the work
    one product word costs the fused kernels, at the best rate numpy
    reaches for it. Operands are 2 MiB each.
    """
    rng = np.random.default_rng(seed)
    shape = (64, 4096)
    a = rng.integers(0, 2**63, size=shape, dtype=np.uint64)
    b = rng.integers(0, 2**63, size=shape, dtype=np.uint64)
    prod = np.empty_like(a)
    merged = np.empty(shape[1], dtype=np.uint64)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.bitwise_and(a, b, out=prod)
        np.bitwise_or.reduce(prod, axis=0, out=merged)
        int(np.bitwise_count(merged).sum())
        best = min(best, time.perf_counter() - start)
    return a.size / best
