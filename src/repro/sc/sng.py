"""Stochastic number generators (SNGs), normal and progressive.

An SNG holds an n-bit target value in a buffer and compares it against an
n-bit random value every cycle; the comparator output is the stream bit
(paper Fig. 3a). The library convention is:

* targets are quantized integers in ``[0, 2**n - 1]``
  (:func:`repro.sc.formats.quantize_unipolar` with ``levels = 2**n - 1``),
* random values are integers in ``[1, 2**n - 1]`` (LFSR states never reach
  zero; the other sources are mapped into the same range),
* the stream bit is ``rand <= target``,

so over a full LFSR period of ``2**n - 1`` cycles a target ``q`` produces
exactly ``q`` ones — the "almost accurate generation" the paper relies on,
and the estimated value ``ones/period`` equals ``q / (2**n - 1)`` exactly.

Generation is a *level sweep*, the software analogue of a parallel
bitstream generator: a stream depends only on its seed and its target
level, so streams are built once per (unique seed, distinct level) and
gathered. For each unique seed, every cycle ``t`` sets bit ``t`` in the
packed word of the lowest level its random value does not exceed; an OR
prefix-scan over the ascending levels then turns those one-hot bits into
the streams of every level. With ``U`` unique seeds, stream length ``L``,
``k`` distinct levels and ``W`` packed words per stream, that costs
``O(U·L + U·k·W)`` instead of one comparison per output bit; the gather
adds one ``W``-word copy per target. The bit-level definition above stays
the oracle the tests compare against.

:class:`ProgressiveSNG` implements Sec. II-B: generation starts once the
2 most-significant bits of the target are in the buffer, with the lower
bits arriving in groups of 2 every 2 cycles (the unloaded tail reads as 0).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.sc.rng import RandomSource
from repro.sc.streams import StreamBatch
from repro.utils.bitops import packed_words


def _validate_targets(targets: np.ndarray, bits: int) -> np.ndarray:
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise ConfigurationError(
            "SNG targets must be quantized integers; use quantize_unipolar"
        )
    limit = (1 << bits) - 1
    if targets.size and (targets.min() < 0 or targets.max() > limit):
        raise ConfigurationError(
            f"targets out of range [0, {limit}] for {bits}-bit SNG"
        )
    return targets.astype(np.int64, copy=False)


def _sweep(
    rand: np.ndarray,
    cycles: np.ndarray,
    rows: np.ndarray,
    targets: np.ndarray,
    words: int,
) -> np.ndarray:
    """Packed streams ``rand[rows] <= targets`` over ``cycles``.

    ``rand`` holds each unique seed's random values at ``cycles``, shape
    ``(U, len(cycles))``. ``rows`` (bank row per stream) and ``targets``
    broadcast together to the stream shape ``S``. Returns ``S + (words,)``
    packed words; the bits of cycles not in ``cycles`` are zero.
    """
    levels, level_of = np.unique(targets, return_inverse=True)
    slots = levels.size + 1  # the last slot takes values above every level
    seed_base = np.arange(rand.shape[0])[:, None] * slots
    # One-hot scatter: bit ``t`` goes to the first level ``rand[u, t]``
    # does not exceed. Distinct cycles own distinct bits, so adding them
    # is an exact OR (and ``add.at`` is the faster of the two).
    word = (seed_base + np.searchsorted(levels, rand)) * words + (cycles >> 6)
    bit = np.left_shift(np.uint64(1), (cycles & 63).astype(np.uint64))
    plain = np.zeros((rand.shape[0], slots, words), dtype=np.uint64)
    np.add.at(plain.reshape(-1), word.ravel(), np.broadcast_to(bit, word.shape).ravel())
    # A stream at level j holds every cycle scattered to a level <= j.
    np.bitwise_or.accumulate(plain, axis=1, out=plain)
    index = rows * slots + level_of.reshape(targets.shape)
    return np.take(plain.reshape(-1, words), index, axis=0)


class SNG:
    """Comparator-based stochastic number generator bank.

    Parameters
    ----------
    source:
        The random source shared by this generator bank.
    bits:
        Comparator/target width. Streams of length ``2**bits`` are the
        natural match (paper Sec. II-A), but any length can be generated.
    """

    def __init__(self, source: RandomSource, bits: int):
        if bits != source.width:
            raise ConfigurationError(
                f"SNG width {bits} must match RNG width {source.width}"
            )
        self.source = source
        self.bits = bits

    def _draw(self, targets, seeds, length: int):
        """Validated targets, the bank row of each stream (broadcasting
        against the targets) and the random bank, drawn once for the
        sorted unique seeds of the broadcast seed array."""
        targets = _validate_targets(targets, self.bits)
        seeds = np.asarray(seeds, dtype=np.int64)
        shape = np.broadcast_shapes(targets.shape, seeds.shape)
        if 0 in shape:  # no streams: draw for no seeds
            seeds = np.broadcast_to(seeds, shape)
        unique, rows = np.unique(seeds, return_inverse=True)
        bank = self.source.bank(unique, length)  # (U, L)
        return targets, rows.reshape(seeds.shape), bank

    def generate(
        self,
        targets: np.ndarray,
        seeds: np.ndarray,
        length: int,
    ) -> StreamBatch:
        """Generate one stream per target.

        Parameters
        ----------
        targets:
            Quantized integer targets.
        seeds:
            Integer seed per target. ``targets`` and ``seeds`` broadcast
            together to the stream shape ``S``, so a ``(U, 1)`` seed
            column against a ``(1, K)`` target row gives every seed's
            stream at every target. Equal seeds mean a *shared* RNG:
            those comparators see identical random values every cycle.
        length:
            Stream length in bits.
        """
        targets, rows, bank = self._draw(targets, seeds, length)
        packed = _sweep(bank, np.arange(length), rows, targets, packed_words(length))
        return StreamBatch(packed, length)


class ProgressiveSNG(SNG):
    """Progressive stream generation (paper Sec. II-B, Fig. 3b).

    Generation begins as soon as ``initial_bits`` most-significant bits of
    each target are loaded; every ``cycles_per_group`` cycles another
    ``bits_per_group`` bits arrive. Unloaded low bits read as zero, so the
    effective target value ramps up toward the true value, reaching it
    after ``cycles_per_group * ceil((bits - initial_bits) / bits_per_group)``
    cycles (at most 8 cycles for an 8-bit buffer with the default 2/2/2
    schedule, matching Fig. 2).
    """

    def __init__(
        self,
        source: RandomSource,
        bits: int,
        initial_bits: int = 2,
        bits_per_group: int = 2,
        cycles_per_group: int = 2,
    ):
        super().__init__(source, bits)
        if not 1 <= initial_bits <= bits:
            raise ConfigurationError(
                f"initial_bits must be in [1, {bits}], got {initial_bits}"
            )
        if bits_per_group < 1 or cycles_per_group < 1:
            raise ConfigurationError(
                "bits_per_group and cycles_per_group must be >= 1"
            )
        self.initial_bits = initial_bits
        self.bits_per_group = bits_per_group
        self.cycles_per_group = cycles_per_group

    def loaded_bits_schedule(self, length: int) -> np.ndarray:
        """Number of target bits visible at each cycle ``t`` in [0, length)."""
        t = np.arange(length)
        groups = t // self.cycles_per_group
        loaded = self.initial_bits + self.bits_per_group * groups
        return np.minimum(loaded, self.bits)

    def settle_cycles(self) -> int:
        """First cycle index at which the full target value is visible."""
        missing = self.bits - self.initial_bits
        if missing <= 0:
            return 0
        groups = -(-missing // self.bits_per_group)  # ceil division
        return groups * self.cycles_per_group

    def _load_masks(self, loaded: np.ndarray) -> np.ndarray:
        """Buffer mask with only the top ``loaded`` target bits set."""
        low_zeros = self.bits - loaded
        return (~((np.int64(1) << low_zeros) - 1)) & ((1 << self.bits) - 1)

    def effective_targets(self, targets: np.ndarray, length: int) -> np.ndarray:
        """Per-cycle effective target values, shape ``S + (length,)``.

        At cycle ``t`` only the top ``loaded_bits_schedule(length)[t]`` bits
        of the target are in the buffer; the rest are zero-padded.
        """
        targets = _validate_targets(targets, self.bits)
        masks = self._load_masks(self.loaded_bits_schedule(length))
        return targets[..., None] & masks

    def generate(
        self,
        targets: np.ndarray,
        seeds: np.ndarray,
        length: int,
    ) -> StreamBatch:
        """Like :meth:`SNG.generate`, with each cycle compared against the
        effective (partially loaded) target. Cycles that see the same
        loaded-bit count form one level sweep over the masked targets;
        their packed words are ORed together."""
        targets, rows, bank = self._draw(targets, seeds, length)
        words = packed_words(length)
        shape = np.broadcast_shapes(rows.shape, targets.shape)
        packed = np.zeros(shape + (words,), dtype=np.uint64)
        loaded = self.loaded_bits_schedule(length)
        for k in np.unique(loaded):
            cycles = np.flatnonzero(loaded == k)
            packed |= _sweep(
                bank[:, cycles], cycles, rows, targets & self._load_masks(k), words
            )
        return StreamBatch(packed, length)


class ShadowBufferedSNG:
    """Timing model of progressive shadow buffering (paper Sec. III-D).

    Functionally the streams are identical to :class:`ProgressiveSNG`; the
    value of shadow buffers is *latency*: while the current operands
    compute, the first ``initial_bits`` of the next operands are loaded
    into the shadow buffer, so the next generation phase starts immediately
    instead of stalling for a buffer reload. This class exposes the reload
    stall in cycles for the three buffering schemes, which the performance
    simulator consumes.
    """

    def __init__(self, sng: ProgressiveSNG, buffer_entries: int, load_width: int):
        if buffer_entries < 1 or load_width < 1:
            raise ConfigurationError(
                "buffer_entries and load_width must be >= 1"
            )
        self.sng = sng
        self.buffer_entries = buffer_entries
        self.load_width = load_width

    def _cycles_to_load(self, bits_per_entry: int) -> int:
        total_bits = self.buffer_entries * bits_per_entry
        return -(-total_bits // self.load_width)

    def reload_stall_cycles(self, scheme: str) -> int:
        """Stall between compute phases for a buffering ``scheme``.

        * ``"parallel"`` — classic SNG: all target bits load before
          generation starts; the full buffer reload is exposed.
        * ``"progressive"`` — generation starts after ``initial_bits`` are
          in; only that prefix of the reload is exposed (the rest overlaps
          with generation). This is the paper's 4X reload-latency saving
          for the default 2-of-8-bit schedule.
        * ``"shadow"`` — progressive + shadow buffers: the prefix was
          prefetched during the previous phase, so no stall remains.
        """
        if scheme == "parallel":
            return self._cycles_to_load(self.sng.bits)
        if scheme == "progressive":
            return self._cycles_to_load(self.sng.initial_bits)
        if scheme == "shadow":
            return 0
        raise ConfigurationError(f"unknown buffering scheme: {scheme!r}")

    def reload_speedup(self) -> float:
        """Reload-latency ratio of parallel over progressive buffering
        (the paper reports 4X for 2-of-8-bit progressive loading)."""
        progressive = self.reload_stall_cycles("progressive")
        if progressive == 0:
            return float("inf")
        return self.reload_stall_cycles("parallel") / progressive
