"""Fused AND → OR → popcount kernels for the SC convolution hot path.

Every accuracy experiment in the paper funnels through the bit-true SC
convolution. Its naive form materializes, for each output channel, a
full ``(N, Cin, KH, KW, OH, OW, words)`` product tensor and reduces it.
:func:`fused_conv_counts` computes the same signed counts without
materializing the products.

Every partial-binary accumulation mode is the same computation with a
different *OR-group structure* (:func:`group_structure`): partition the
``K = Cin*KH*KW`` kernel positions into ``G`` groups of ``S`` members,
OR the AND-products within each group, popcount the merged words, and
add the ``G`` group counts in fixed point (SC: one group of everything;
PBW: one group per kernel column; PBHW: one group per ``(kh, kw)`` tap;
FXP: every product its own group; APC: pairs, the odd tail padded with
an all-zero sentinel stream). OR is associative and popcount is exact,
so any evaluation order is bit-identical to the reference engine.

One computation, two implementations:

* **Native** (default): one C function (``sc_kernel.c``, compiled on
  first use by :mod:`repro.sc.native`) visits each output position
  once. It gathers pointers to the activation streams of every group
  member whose quantized value is non-zero — value 0 is the all-zero
  stream, so zero activations cost nothing — then, per output channel
  and word, ORs ``a & wp`` and ``a & wn`` over the group in registers
  and adds ``popcount(pos) - popcount(neg)``. Values and table rows are
  bounds-checked in C; a violation raises :class:`IndexError`.
* **Numpy fallback**, run only when no native library could be built
  (no ``cc`` on the host): the positive and negative weight channels
  are stacked, the OR-group permutation is baked into one activation
  gather per spatial chunk (``(N, P, G, S, words)`` layout), and
  AND/OR/popcount run over product slabs of at most
  :data:`DEFAULT_SLAB_BYTES`, so the product tensor stays in cache.

Which one ran is counted on ``sc.kernels.path.native`` /
``sc.kernels.path.numpy`` (:mod:`repro.obs`). Sharding (``num_workers``)
splits the output positions across the shared thread pool of
:mod:`repro.utils.parallel`; ``ctypes`` and numpy release the GIL inside
the kernels, so the shards run in parallel on the same stream tables.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.obs import get_registry
from repro.sc import native
from repro.sc.accumulate import AccumulationMode
from repro.utils.bitops import popcount_packed
from repro.utils.parallel import parallel_map, resolve_workers, shard_slices

#: Peak bytes one product slab of the numpy fallback may occupy.
#: Deliberately cache-sized: the slab is written by the AND and
#: immediately consumed by the OR-reduction and popcount, so keeping it
#: resident in L2/L3 means the product tensor never round-trips through
#: DRAM.
DEFAULT_SLAB_BYTES = 1 << 19

#: Preferred channel-block width of the numpy fallback: each channel
#: block re-reads the same gathered activation chunk, so wider blocks
#: amortize that read; the spatial chunk shrinks to keep the slab under
#: budget.
_CHANNEL_BLOCK = 16

#: Minimum spatial chunk before the channel block starts shrinking:
#: per-block ufunc dispatch is amortized over ``n * pc`` outer
#: iterations, so single-position chunks are pure overhead.
_MIN_SPATIAL_CHUNK = 8

#: OR-group sizes up to this bound merge via explicit sliced ORs;
#: ``ufunc.reduce`` over a short axis pays per-output setup costs that
#: dwarf the actual word operations (measured crossover ≈ 8 members).
_SMALL_GROUP_OR = 8

_VALUE_RANGE = "activation value out of range [0, {levels})"
_ROW_RANGE = "activation table row out of range [0, {rows})"


def group_structure(
    mode: AccumulationMode | str, cin: int, kh: int, kw: int
) -> tuple[np.ndarray, bool]:
    """OR-group structure of an accumulation mode.

    Returns ``(group_k, identity)`` where ``group_k`` has shape
    ``(G, S)``: row ``g`` lists the flat kernel indices (C-order over
    ``(Cin, KH, KW)``) whose AND-products are OR-merged into group ``g``.
    The sentinel index ``cin*kh*kw`` refers to an implicit all-zero
    stream (APC padding for odd product counts — OR-identity, popcount
    zero). ``identity`` is True when ``group_k`` is a plain reshape of
    ``arange(K)`` so callers can skip the gather copy.
    """
    mode = AccumulationMode.parse(mode)
    k = cin * kh * kw
    flat = np.arange(k, dtype=np.int64).reshape(cin, kh, kw)
    if mode is AccumulationMode.SC:
        return flat.reshape(1, k), True
    if mode is AccumulationMode.PBW:
        # OR over (Cin, KH) per kernel column; fixed point across KW.
        return np.ascontiguousarray(
            flat.transpose(2, 0, 1).reshape(kw, cin * kh)
        ), False
    if mode is AccumulationMode.PBHW:
        # OR over Cin per (kh, kw) tap; fixed point across KH*KW.
        return np.ascontiguousarray(
            flat.transpose(1, 2, 0).reshape(kh * kw, cin)
        ), False
    if mode is AccumulationMode.FXP:
        return flat.reshape(k, 1), True
    if mode is AccumulationMode.APC:
        # Pairs (2i, 2i+1) in flat C-order; odd tail pads with the zero
        # stream, matching the reference's separate leftover popcount.
        padded = k + (k % 2)
        idx = np.full(padded, k, dtype=np.int64)
        idx[:k] = np.arange(k)
        return idx.reshape(-1, 2), False
    raise ConfigurationError(f"unhandled accumulation mode {mode}")


def _chunk_sizes(
    n: int, m: int, g: int, s: int, words: int, p: int, slab_bytes: int
) -> tuple[int, int]:
    """Spatial / channel-block chunk sizes keeping slabs under budget.

    The kernel-position block ``(G, S, words)`` is the contiguous inner
    axis, so chunking never shortens the vectorized inner loop; the
    channel block gets priority (it amortizes re-reads of the gathered
    activation chunk) and the spatial chunk absorbs the budget.

    Invariants (property-tested): ``1 <= pc <= p``, ``1 <= mb <= m``,
    the slab stays under ``slab_bytes`` unless a single ``(1, 1)`` unit
    already exceeds it, and ``pc >= min(p, _MIN_SPATIAL_CHUNK)``
    whenever ``mb`` has already been shrunk to 1 and the budget allows.
    """
    per_unit = max(1, n * g * s * words * 8)  # bytes per (m=1, p=1)
    mb = min(m, _CHANNEL_BLOCK)
    pc = slab_bytes // (per_unit * mb)
    while pc < _MIN_SPATIAL_CHUNK and mb > 1:
        # Tiny spatial chunks multiply per-block dispatch overhead;
        # trade channel-block width for spatial extent first.
        mb = max(1, mb // 2)
        pc = slab_bytes // (per_unit * mb)
    pc = max(1, pc)
    if pc >= p:
        # Spare budget: widen the channel block instead (FC shapes).
        pc = p
        mb = min(m, max(1, slab_bytes // (per_unit * pc)))
    return pc, mb


def _grouped_gather_indices(
    rows_flat: np.ndarray,
    cols_flat: np.ndarray,
    group_k: np.ndarray,
    identity: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Bake the OR-group permutation into the activation gather indices.

    Returns ``(rows_g, cols_g, zero_slots)``: table-row indices ``(K',)``
    and value indices ``(N, P, K')`` ordered so a single fancy gather
    produces activations in ``(N, P, G, S, words)`` group layout with no
    second copy. ``zero_slots`` marks sentinel positions (APC padding)
    that must be cleared to the all-zero stream after the gather.
    """
    cols_t = cols_flat.transpose(0, 2, 1)  # (N, P, K) view
    if identity:
        return rows_flat, cols_t, None
    flat = group_k.reshape(-1)
    k = rows_flat.shape[0]
    zero_slots = flat == k
    safe = np.where(zero_slots, 0, flat)
    rows_g = rows_flat[safe]
    cols_g = np.ascontiguousarray(cols_t[:, :, safe])
    return rows_g, cols_g, zero_slots if bool(zero_slots.any()) else None


def _grouped_weights(
    weights: np.ndarray, group_k: np.ndarray, pad: bool
) -> np.ndarray:
    """Rearrange packed weight streams ``(M, K, words)`` to group layout
    ``(M, G, S, words)``, appending the zero pad stream when needed."""
    if pad:
        zero = np.zeros(
            (weights.shape[0], 1, weights.shape[-1]), dtype=weights.dtype
        )
        weights = np.concatenate([weights, zero], axis=1)
    return np.ascontiguousarray(weights[:, group_k])


def _grouped_counts(
    table: np.ndarray,
    rows_g: np.ndarray,
    cols_g: np.ndarray,
    zero_slots: np.ndarray | None,
    w_g: np.ndarray,
    counts: np.ndarray,
    p_span: slice,
    m_span: slice,
) -> None:
    """Fill ``counts[:, m_span, p_span]`` for one shard (numpy fallback).

    The product slab and merged buffers are allocated once per shard and
    reused across every chunk; the slab is cache-sized, so products are
    written, OR-merged, and popcounted without touching DRAM.
    """
    n = cols_g.shape[0]
    words = table.shape[-1]
    g, s = w_g.shape[1:3]
    pc, mb = _chunk_sizes(
        n, m_span.stop - m_span.start, g, s, words,
        p_span.stop - p_span.start, DEFAULT_SLAB_BYTES,
    )
    slab = np.empty((n, mb, pc, g, s, words), dtype=np.uint64)
    merged = (
        np.empty((n, mb, pc, g, words), dtype=np.uint64) if s > 1 else None
    )
    for lo in range(p_span.start, p_span.stop, pc):
        hi = min(lo + pc, p_span.stop)
        width = hi - lo
        act = table[rows_g[None, None, :], cols_g[:, lo:hi]]
        if zero_slots is not None:
            act[:, :, zero_slots] = 0
        # (N, Pc, K', words) -> broadcastable (N, 1, Pc, G, S, words)
        act_b = act.reshape(n, width, g, s, words)[:, None]
        for m_lo in range(m_span.start, m_span.stop, mb):
            m_hi = min(m_lo + mb, m_span.stop)
            m_width = m_hi - m_lo
            slab_view = slab[:, :m_width, :width]
            np.bitwise_and(
                act_b,
                w_g[m_lo:m_hi][None, :, None],
                out=slab_view,
            )
            if s == 1:
                merged_view = slab_view[:, :, :, :, 0]
            elif s <= _SMALL_GROUP_OR:
                # ufunc.reduce over a tiny axis pays per-output setup
                # costs; a handful of sliced ORs is much faster (APC).
                merged_view = merged[:, :m_width, :width]
                np.bitwise_or(
                    slab_view[:, :, :, :, 0],
                    slab_view[:, :, :, :, 1],
                    out=merged_view,
                )
                for i in range(2, s):
                    np.bitwise_or(
                        merged_view, slab_view[:, :, :, :, i], out=merged_view
                    )
            else:
                merged_view = merged[:, :m_width, :width]
                np.bitwise_or.reduce(slab_view, axis=4, out=merged_view)
            group_counts = popcount_packed(merged_view)  # (N, Mb, Pc, G)
            counts[:, m_lo:m_hi, lo:hi] = group_counts.sum(
                axis=3, dtype=np.int64
            )


def _shard_spans(
    p: int, m: int, workers: int
) -> list[tuple[slice, slice]]:
    """Shard the numpy fallback's (spatial, channel) work grid.

    Wide spatial extents shard along P (each worker gathers a disjoint
    activation span — no redundant work); pointwise/FC shapes (tiny P)
    shard along the stacked channel axis instead.
    """
    if workers <= 1:
        return [(slice(0, p), slice(0, m))]
    if p >= workers:
        return [(ps, slice(0, m)) for ps in shard_slices(p, workers)]
    return [(slice(0, p), ms) for ms in shard_slices(m, workers)]


def _numpy_counts(
    table: np.ndarray,
    rows_flat: np.ndarray,
    cols_flat: np.ndarray,
    wstack: np.ndarray,
    group_k: np.ndarray,
    identity: bool,
    workers: int,
) -> np.ndarray:
    """Signed counts by the numpy slab sweep over the stacked
    ``(2 * Cout, K, words)`` positive and negative weight channels.
    Indices are checked like the native kernel checks them: numpy would
    wrap negative ones silently."""
    n, k, p = cols_flat.shape
    rows, levels, words = table.shape
    if rows_flat.size and not 0 <= rows_flat.min() <= rows_flat.max() < rows:
        raise IndexError(_ROW_RANGE.format(rows=rows))
    if cols_flat.size and not 0 <= cols_flat.min() <= cols_flat.max() < levels:
        raise IndexError(_VALUE_RANGE.format(levels=levels))
    m = wstack.shape[0]
    cout = m // 2
    pad = bool((group_k == k).any())
    w_g = _grouped_weights(wstack, group_k, pad)
    rows_g, cols_g, zero_slots = _grouped_gather_indices(
        rows_flat, cols_flat, group_k, identity
    )
    counts = np.empty((n, m, p), dtype=np.int64)

    def run(span: tuple[slice, slice]) -> None:
        p_span, m_span = span
        _grouped_counts(
            table, rows_g, cols_g, zero_slots, w_g, counts, p_span, m_span
        )

    parallel_map(run, _shard_spans(p, m, workers), workers)
    return counts[:, :cout] - counts[:, cout:]


#: Error codes of ``sc_group_counts`` (``sc_kernel.c``).
_NATIVE_ERRORS = {
    1: (IndexError, _VALUE_RANGE),
    2: (IndexError, _ROW_RANGE),
    3: (MemoryError, "native kernel could not allocate its work buffers"),
}


def _native_counts(
    kernel,
    table: np.ndarray,
    rows_flat: np.ndarray,
    cols_flat: np.ndarray,
    wstack: np.ndarray,
    group_k: np.ndarray,
    workers: int,
) -> tuple[np.ndarray, int]:
    """Signed counts by the native kernel, one ``ctypes`` call per
    spatial shard. Returns ``(counts, non-zero activation values)``."""
    n, k, p = cols_flat.shape
    rows, levels, words = table.shape
    cout = wstack.shape[0] // 2
    g, s = group_k.shape
    # Every buffer is C-contiguous with the dtype the C prototype reads,
    # and stays referenced here until the last call returns.
    table = np.ascontiguousarray(table, dtype=np.uint64)
    weights = np.ascontiguousarray(
        wstack.transpose(1, 2, 0), dtype=np.uint64
    )  # (K, words, 2 * Cout)
    group_k = np.ascontiguousarray(group_k, dtype=np.int64)
    counts = np.empty((n, cout, p), dtype=np.int64)
    spans = shard_slices(p, workers)
    nnz = np.zeros(len(spans), dtype=np.int64)

    def run(i: int) -> int:
        return kernel(
            table.ctypes.data, rows, levels, words,
            rows_flat.ctypes.data, cols_flat.ctypes.data,
            weights.ctypes.data, group_k.ctypes.data,
            n, k, p, cout, g, s,
            spans[i].start, spans[i].stop,
            counts.ctypes.data, nnz.ctypes.data + i * nnz.itemsize,
        )

    for code in parallel_map(run, range(len(spans)), workers):
        if code:
            exc, message = _NATIVE_ERRORS[code]
            raise exc(message.format(levels=levels, rows=rows))
    return counts, int(nnz.sum())


def _count_kernel_ops(
    mode: AccumulationMode, n: int, m: int, p: int, g: int, s: int,
    words: int, path: str, nnz: int, values: int,
) -> None:
    """Record the op mix of one fused call on the telemetry registry.

    Word totals are computed arithmetically from the call geometry
    (``AND`` over every ``(N, M, P, G, S)`` product word of the ``M``
    positive and negative channels, ``S - 1`` ORs per group merge, one
    popcount word per merged group word), so the accounting adds nothing
    to the inner loops. These are *dense-equivalent* totals; the
    activation words actually read are ``sc.kernels.nnz_words`` (``nnz``
    non-zero activation values of ``values``, times ``words``) and the
    zero-valued rest is ``sc.kernels.skipped_words``. ``bit_ops`` is the
    64-bit-word total scaled to single bit operations.
    """
    reg = get_registry()
    if not reg.enabled:
        return
    and_words = n * m * p * g * s * words
    or_words = n * m * p * g * (s - 1) * words
    popcount_words = n * m * p * g * words
    reg.counter("sc.kernels.calls").add(1)
    reg.counter(f"sc.kernels.path.{path}").add(1)
    reg.counter(f"sc.kernels.mode.{mode.value}").add(1)
    reg.counter("sc.kernels.and_words", unit="words").add(and_words)
    reg.counter("sc.kernels.or_words", unit="words").add(or_words)
    reg.counter("sc.kernels.popcount_words", unit="words").add(popcount_words)
    reg.counter("sc.kernels.bit_ops", unit="bits").add(
        64 * (and_words + or_words + popcount_words)
    )
    reg.counter("sc.kernels.nnz_words", unit="words").add(nnz * words)
    reg.counter("sc.kernels.skipped_words", unit="words").add(
        (values - nnz) * words
    )


def fused_conv_counts(
    table: np.ndarray,
    act_rows: np.ndarray,
    cols: np.ndarray,
    wp: np.ndarray,
    wn: np.ndarray,
    mode: AccumulationMode | str,
    num_workers: int | None = 1,
) -> np.ndarray:
    """Signed product counts of a packed-stream SC convolution.

    Parameters
    ----------
    table:
        Packed stream table ``(rows, 2**bits, words)``.
    act_rows:
        ``(Cin, KH, KW)`` table-row index of each activation SNG.
    cols:
        ``(N, Cin, KH, KW, P)`` quantized activation value per kernel
        position and output position (``P`` = flattened output extent).
    wp, wn:
        Packed positive/negative weight streams
        ``(Cout, Cin, KH, KW, words)``.
    mode:
        Partial-binary accumulation mode.
    num_workers:
        Worker-pool sharding (see :mod:`repro.utils.parallel`).

    Returns
    -------
    numpy.ndarray
        ``(N, Cout, P)`` int64 counts, positive minus negative channel —
        bit-identical to the reference per-channel reduction on either
        path.

    Raises
    ------
    IndexError
        When a value in ``cols`` lies outside ``[0, 2**bits)`` (a NaN
        activation quantizes to the int64 minimum) or a row in
        ``act_rows`` outside the table.
    """
    mode = AccumulationMode.parse(mode)
    if cols.ndim != 5:
        raise ShapeError(f"cols must be (N, Cin, KH, KW, P), got {cols.shape}")
    n, cin, kh, kw, p = cols.shape
    if act_rows.shape != (cin, kh, kw):
        raise ShapeError(
            f"act_rows shape {act_rows.shape} != kernel {(cin, kh, kw)}"
        )
    words = table.shape[-1]
    if wp.shape != wn.shape or wp.shape[1:] != (cin, kh, kw, words):
        raise ShapeError(
            f"weight shapes {wp.shape}/{wn.shape} incompatible with "
            f"kernel {(cin, kh, kw)} of {words}-word streams"
        )
    cout = wp.shape[0]
    k = cin * kh * kw
    rows_flat = np.ascontiguousarray(act_rows, dtype=np.int64).reshape(k)
    cols_flat = np.ascontiguousarray(cols, dtype=np.int64).reshape(n, k, p)
    workers = resolve_workers(num_workers)
    wstack = np.concatenate(
        [wp.reshape(cout, k, words), wn.reshape(cout, k, words)]
    )  # (2 * Cout, K, words): positive channels, then negative
    group_k, identity = group_structure(mode, cin, kh, kw)
    kernel = native.load()
    if kernel is not None:
        counts, nnz = _native_counts(
            kernel, table, rows_flat, cols_flat, wstack, group_k, workers
        )
    else:
        counts = _numpy_counts(
            table, rows_flat, cols_flat, wstack, group_k, identity, workers
        )
        nnz = int(np.count_nonzero(cols_flat))
    g, s = group_k.shape
    _count_kernel_ops(
        mode, n, 2 * cout, p, g, s, words,
        "native" if kernel is not None else "numpy", nnz, cols_flat.size,
    )
    return counts
