"""Tests for the fused bit-kernel engine (:mod:`repro.sc.kernels`).

The load-bearing guarantee is bit-exactness: for every accumulation
mode, RNG source, and progressive setting, ``engine="fused"`` must
produce *identical* float outputs to the original per-output-channel
reference path — OR is associative and the stream lengths are powers of
two, so any evaluation order yields the same bits.

The fused engine has two implementations, the native C kernel and the
numpy fallback that runs when no library can be built. Every oracle
test runs on both: the ``*Numpy`` subclasses repeat their parent's
tests with the loader reporting no library.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sc import kernels, native
from repro.sc.accumulate import AccumulationMode
from repro.sc.kernels import fused_conv_counts, group_structure
from repro.scnn.config import SCConfig
from repro.scnn.sim import SCConvSimulator, SCLinearSimulator, clear_table_cache

MODES = ("sc", "pbw", "pbhw", "fxp", "apc")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_table_cache()
    yield
    clear_table_cache()


@pytest.fixture
def numpy_path(monkeypatch):
    """Make the native loader report no library: the numpy fallback runs."""
    monkeypatch.setattr(native, "load", lambda: None)


class OnNumpyPath:
    """Mixin: run every test of the class on the numpy fallback."""

    @pytest.fixture(autouse=True)
    def _numpy_path(self, numpy_path):
        yield


def make_inputs(seed=0, n=2, cin=3, size=6, cout=4, k=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, cin, size, size)).astype(np.float32)
    w = rng.uniform(-0.4, 0.4, size=(cout, cin, k, k)).astype(np.float32)
    return x, w


def run_both(cfg: SCConfig, x, w, kernel=(4, 3, 3, 3)):
    outs = {}
    for engine in ("reference", "fused"):
        sim = SCConvSimulator(kernel, cfg.with_(engine=engine))
        outs[engine] = sim(x, w)
    return outs["reference"], outs["fused"]


class TestBitExactness:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rng_kind", ("lfsr", "trng"))
    @pytest.mark.parametrize("progressive", (False, True))
    def test_fused_matches_reference(self, mode, rng_kind, progressive):
        x, w = make_inputs(seed=hash((mode, rng_kind, progressive)) % 1000)
        cfg = SCConfig(
            stream_length=32,
            stream_length_pooling=32,
            accumulation=mode,
            rng_kind=rng_kind,
            progressive=progressive,
            # Frozen TRNG draws make the two engine runs see the same
            # streams; fresh draws would differ by construction.
            trng_eval_freeze=True,
        )
        ref, fused = run_both(cfg, x, w)
        np.testing.assert_array_equal(ref, fused)

    @pytest.mark.parametrize("mode", MODES)
    def test_fused_matches_reference_multiword(self, mode):
        # Stream length > 64 exercises multi-word packed streams.
        x, w = make_inputs(seed=11)
        cfg = SCConfig(
            stream_length=128, stream_length_pooling=128, accumulation=mode
        )
        ref, fused = run_both(cfg, x, w)
        np.testing.assert_array_equal(ref, fused)

    def test_fused_matches_with_workers(self):
        x, w = make_inputs(seed=3, n=3, size=8)
        cfg = SCConfig(stream_length=32, stream_length_pooling=32)
        sim1 = SCConvSimulator((4, 3, 3, 3), cfg.with_(num_workers=1))
        sim2 = SCConvSimulator((4, 3, 3, 3), cfg.with_(num_workers=3))
        np.testing.assert_array_equal(sim1(x, w), sim2(x, w))

    def test_odd_kernel_count_apc_padding(self):
        # Cin*KH*KW odd forces the APC zero-stream pad slot.
        x, w = make_inputs(seed=5, cin=3, k=3)
        assert (3 * 3 * 3) % 2 == 1
        cfg = SCConfig(
            stream_length=32, stream_length_pooling=32, accumulation="apc"
        )
        ref, fused = run_both(cfg, x, w)
        np.testing.assert_array_equal(ref, fused)

    def test_linear_simulator_engines_agree(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(3, 12)).astype(np.float32)
        w = rng.uniform(-0.5, 0.5, size=(5, 12)).astype(np.float32)
        for mode in MODES:
            cfg = SCConfig(
                stream_length=32, stream_length_pooling=32, accumulation=mode
            )
            ref = SCLinearSimulator(12, 5, cfg.with_(engine="reference"))(x, w)
            fused = SCLinearSimulator(12, 5, cfg.with_(engine="fused"))(x, w)
            np.testing.assert_array_equal(ref, fused)


class TestBitExactnessNumpy(OnNumpyPath, TestBitExactness):
    pass


class TestNativeLoader:
    def test_native_library_loads_where_cc_exists(self):
        # CI must not silently run only the fallback.
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        assert native.load() is not None

    def test_path_counters(self, monkeypatch):
        from repro import obs

        if not obs.enabled():
            pytest.skip("telemetry disabled in this environment")
        if native.load() is None:
            pytest.skip("no native library on this host")
        operands = _kernel_operands(seed=2)
        before = obs.get_registry().counters()
        fused_conv_counts(*operands, "pbw")
        monkeypatch.setattr(native, "load", lambda: None)
        fused_conv_counts(*operands, "pbw")
        after = obs.get_registry().counters()
        for path in ("native", "numpy"):
            key = f"sc.kernels.path.{path}"
            assert after.get(key, 0) - before.get(key, 0) == 1


class TestGroupStructure:
    @pytest.mark.parametrize("mode", MODES)
    def test_partition_covers_every_position(self, mode):
        cin, kh, kw = 3, 3, 3
        k = cin * kh * kw
        group_k, _ = group_structure(mode, cin, kh, kw)
        members = group_k.ravel()
        real = members[members < k]  # drop the APC pad sentinel
        assert sorted(real.tolist()) == list(range(k))

    def test_group_shapes(self):
        cin, kh, kw = 4, 3, 5
        k = cin * kh * kw
        assert group_structure("sc", cin, kh, kw)[0].shape == (1, k)
        assert group_structure("pbw", cin, kh, kw)[0].shape == (kw, cin * kh)
        assert group_structure("pbhw", cin, kh, kw)[0].shape == (kh * kw, cin)
        assert group_structure("fxp", cin, kh, kw)[0].shape == (k, 1)
        assert group_structure("apc", cin, kh, kw)[0].shape == (k // 2, 2)

    def test_pbw_groups_are_kernel_columns(self):
        # Group kw holds every (cin, kh) position of kernel column kw.
        cin, kh, kw = 2, 3, 3
        group_k, identity = group_structure("pbw", cin, kh, kw)
        assert not identity
        flat = np.arange(cin * kh * kw).reshape(cin, kh, kw)
        for col in range(kw):
            assert set(group_k[col]) == set(flat[:, :, col].ravel())

    def test_apc_odd_count_pads_with_sentinel(self):
        cin, kh, kw = 1, 3, 3  # 9 positions -> 5 pairs, one padded
        group_k, _ = group_structure("apc", cin, kh, kw)
        assert group_k.shape == (5, 2)
        assert group_k[-1, -1] == 9  # sentinel = all-zero stream

    def test_identity_flags(self):
        assert group_structure("sc", 2, 3, 3)[1]
        assert group_structure("fxp", 2, 3, 3)[1]
        assert not group_structure("pbw", 2, 3, 3)[1]


class TestFusedConvCounts:
    def _operands(self, mode="pbw", n=2, cin=2, cout=3, k=3, p=10, seed=0):
        from repro.sc.rng import LFSRSource
        from repro.scnn.sim import stream_table

        rng = np.random.default_rng(seed)
        bits = 5
        source = LFSRSource(bits)
        seeds = np.arange(1, 1 + cin * k * k + cout)
        table, unique = stream_table(source, bits, 32, seeds, False)
        act_rows = np.searchsorted(
            unique, seeds[: cin * k * k].reshape(cin, k, k)
        )
        cols = rng.integers(0, 1 << bits, size=(n, cin, k, k, p))
        wq = rng.integers(0, 1 << bits, size=(cout, cin, k, k))
        wrow = np.searchsorted(unique, seeds[cin * k * k :])
        wp = table[wrow[:, None, None, None] % table.shape[0], wq]
        wn = table[wrow[:, None, None, None] % table.shape[0], (wq + 3) % 32]
        return table, act_rows, cols, wp, wn

    def test_small_slab_budget_is_exact(self, monkeypatch):
        # The fallback's chunking must not change results: force many
        # tiny slabs and compare with the default geometry.
        table, act_rows, cols, wp, wn = self._operands()
        full = fused_conv_counts(table, act_rows, cols, wp, wn, "pbw")
        monkeypatch.setattr(native, "load", lambda: None)
        monkeypatch.setattr(kernels, "DEFAULT_SLAB_BYTES", 1024)
        tiny = fused_conv_counts(table, act_rows, cols, wp, wn, "pbw")
        np.testing.assert_array_equal(full, tiny)

    def test_counts_shape_and_dtype(self):
        table, act_rows, cols, wp, wn = self._operands(n=2, cout=3, p=10)
        out = fused_conv_counts(table, act_rows, cols, wp, wn, "sc")
        assert out.shape == (2, 3, 10)
        assert out.dtype == np.int64

    def test_bad_cols_rank_rejected(self):
        table, act_rows, cols, wp, wn = self._operands()
        with pytest.raises(ShapeError):
            fused_conv_counts(table, act_rows, cols[0], wp, wn, "sc")

    def test_mismatched_weights_rejected(self):
        table, act_rows, cols, wp, wn = self._operands()
        with pytest.raises(ShapeError):
            fused_conv_counts(table, act_rows, cols, wp[:, :1], wn, "sc")

    def test_mismatched_act_rows_rejected(self):
        table, act_rows, cols, wp, wn = self._operands()
        with pytest.raises(ShapeError):
            fused_conv_counts(table, act_rows[:1], cols, wp, wn, "sc")

    @pytest.mark.parametrize("mode", MODES)
    def test_modes_parse_from_enum(self, mode):
        table, act_rows, cols, wp, wn = self._operands()
        a = fused_conv_counts(table, act_rows, cols, wp, wn, mode)
        b = fused_conv_counts(
            table, act_rows, cols, wp, wn, AccumulationMode.parse(mode)
        )
        np.testing.assert_array_equal(a, b)


class TestFusedConvCountsNumpy(OnNumpyPath, TestFusedConvCounts):
    pass


# ---------------------------------------------------------------------------
# Oracle parity, fallback chunking, the zero skip and bad input
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sc.kernels import _MIN_SPATIAL_CHUNK, _chunk_sizes  # noqa: E402
from repro.sc.rng import LFSRSource  # noqa: E402
from repro.scnn.sim import stream_table  # noqa: E402
from repro.utils.bitops import popcount_packed  # noqa: E402


def _kernel_operands(n=2, cin=2, cout=3, k=3, p=10, bits=5, length=32,
                     seed=0, wn_offset=3):
    """Standalone fused-call operands (module-level twin of
    ``TestFusedConvCounts._operands`` for the new test classes)."""
    rng = np.random.default_rng(seed)
    source = LFSRSource(bits)
    seeds = np.arange(1, 1 + cin * k * k + cout)
    table, unique = stream_table(source, bits, length, seeds, False)
    act_rows = np.searchsorted(unique, seeds[: cin * k * k].reshape(cin, k, k))
    cols = rng.integers(0, 1 << bits, size=(n, cin, k, k, p))
    wq = rng.integers(0, 1 << bits, size=(cout, cin, k, k))
    wrow = np.searchsorted(unique, seeds[cin * k * k:])
    wp = table[wrow[:, None, None, None] % table.shape[0], wq]
    wn = table[
        wrow[:, None, None, None] % table.shape[0],
        (wq + wn_offset) % (1 << bits),
    ]
    return table, act_rows, cols, wp, wn


def _oracle_counts(table, act_rows, cols, wp, wn, mode):
    """Brute-force reference: per-channel, per-group AND → OR → popcount.

    Deliberately the dumbest possible evaluation order — no slabs, no
    chunking, no zero skip — so both fused paths have one fixed oracle.
    """
    n, cin, kh, kw, p = cols.shape
    k = cin * kh * kw
    words = table.shape[-1]
    cout = wp.shape[0]
    group_k, _ = group_structure(mode, cin, kh, kw)
    rows = np.asarray(act_rows).reshape(k)
    cols_f = np.asarray(cols).reshape(n, k, p)
    act = table[rows[None, :, None], cols_f]  # (N, K, P, words)
    out = np.zeros((n, cout, p), dtype=np.int64)
    for co in range(cout):
        for sign, w in ((1, wp), (-1, wn)):
            w_f = w.reshape(cout, k, words)[co]
            for grp in group_k:
                merged = np.zeros((n, p, words), dtype=table.dtype)
                for slot in grp:
                    if slot == k:  # APC zero-pad sentinel
                        continue
                    merged |= act[:, slot] & w_f[slot]
                out[:, co] += sign * popcount_packed(
                    merged[:, None]
                ).reshape(n, p)
    return out


class TestChunkSizesProperties:
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 64),
        g=st.integers(1, 32),
        s=st.integers(1, 32),
        words=st.integers(1, 4),
        p=st.integers(1, 512),
        slab_bytes=st.integers(1, 1 << 22),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants(self, n, m, g, s, words, p, slab_bytes):
        pc, mb = _chunk_sizes(n, m, g, s, words, p, slab_bytes)
        per_unit = max(1, n * g * s * words * 8)
        # Bounds.
        assert 1 <= pc <= p
        assert 1 <= mb <= m
        # Budget: the slab fits unless the block is already minimal.
        assert mb == 1 or per_unit * mb * pc <= slab_bytes
        # Never a pathologically thin spatial chunk when the budget (at
        # mb == 1) would allow a wider one.
        if mb == 1:
            achievable = max(1, min(p, slab_bytes // per_unit))
            assert pc >= min(achievable, _MIN_SPATIAL_CHUNK)
        # Exact coverage: chunk stepping tiles the (m, p) grid.
        covered_p = sum(
            min(lo + pc, p) - lo for lo in range(0, p, pc)
        )
        covered_m = sum(
            min(lo + mb, m) - lo for lo in range(0, m, mb)
        )
        assert covered_p == p
        assert covered_m == m


class TestOracleParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_fused_matches_oracle(self, mode):
        operands = _kernel_operands(seed=11)
        want = _oracle_counts(*operands, mode)
        got = fused_conv_counts(*operands, mode)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", (1, 10))
    def test_two_workers_match_oracle(self, mode, p):
        # p=1 leaves the second worker idle on the native path and
        # shards channels on the fallback.
        operands = _kernel_operands(seed=19, p=p, length=128)
        np.testing.assert_array_equal(
            fused_conv_counts(*operands, mode, num_workers=2),
            _oracle_counts(*operands, mode),
        )

    def test_fxp_overlapping_polarities_match_oracle(self):
        # wn offset 3 makes wp and wn simultaneously non-zero at most
        # positions: both polarities of one position must count.
        operands = _kernel_operands(seed=13, wn_offset=3)
        np.testing.assert_array_equal(
            fused_conv_counts(*operands, "fxp"),
            _oracle_counts(*operands, "fxp"),
        )

    def test_fxp_disjoint_polarities_match_oracle(self):
        # Split-unipolar weights: value 0 encodes the all-zero stream,
        # so zeroing wn wherever wp is non-zero gives disjoint
        # polarities.
        table, act_rows, cols, wp, wn = _kernel_operands(seed=17)
        wn = wn.copy()
        wn[wp.any(axis=-1)] = 0
        operands = (table, act_rows, cols, wp, wn)
        np.testing.assert_array_equal(
            fused_conv_counts(*operands, "fxp"),
            _oracle_counts(*operands, "fxp"),
        )


class TestOracleParityNumpy(OnNumpyPath, TestOracleParity):
    pass


class TestExecutionPlans:
    """The ways a call can execute must agree bit for bit with each
    other: the native kernel, the numpy fallback at its default and at a
    tiny slab budget, each on one and on two workers."""

    @pytest.mark.parametrize("mode", MODES)
    def test_explicit_plan_layouts_bit_identical(self, mode, monkeypatch):
        operands = _kernel_operands(seed=3, p=13)
        base = fused_conv_counts(*operands, mode)
        runs = {"default/2": fused_conv_counts(*operands, mode, num_workers=2)}
        monkeypatch.setattr(native, "load", lambda: None)
        for slab in (kernels.DEFAULT_SLAB_BYTES, 1024):
            monkeypatch.setattr(kernels, "DEFAULT_SLAB_BYTES", slab)
            for workers in (1, 2):
                runs[f"numpy/{slab}/{workers}"] = fused_conv_counts(
                    *operands, mode, num_workers=workers
                )
        for name, got in runs.items():
            np.testing.assert_array_equal(got, base, err_msg=name)


class _SparseDenseCase:
    """Shared operand pool for the hypothesis density tests (built once:
    stream-table construction dominates per-example cost otherwise)."""

    _cache = None

    @classmethod
    def operands(cls):
        if cls._cache is None:
            cls._cache = _kernel_operands(
                n=2, cin=2, cout=2, k=2, p=8, bits=4, length=16, seed=23
            )
        return cls._cache


def both_paths():
    """Yield once on the native kernel (where it loads), then once with
    the loader reporting no library (the numpy fallback)."""
    if native.load() is not None:
        yield "native"
    with mock.patch.object(native, "load", lambda: None):
        yield "numpy"


class TestSparseDenseIdentity:
    """Zero activations are skipped: no density pattern may change a
    count, on either path."""

    @given(
        mode=st.sampled_from(MODES),
        density=st.floats(0.0, 1.0),
        pattern_seed=st.integers(0, 2**16),
        zero_chunk=st.sampled_from((None, "positions", "channels", "all")),
        ones=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identity_under_density_patterns(
        self, mode, density, pattern_seed, zero_chunk, ones
    ):
        table, act_rows, cols, wp, wn = _SparseDenseCase.operands()
        rng = np.random.default_rng(pattern_seed)
        cols = cols.copy()
        if ones:
            cols[:] = table.shape[1] - 1  # all-ones value chunk
        cols[rng.random(cols.shape) < density] = 0
        if zero_chunk == "positions":
            cols[..., : cols.shape[-1] // 2] = 0  # all-zero spatial chunk
        elif zero_chunk == "channels":
            cols[:, 0] = 0  # one input channel entirely dead
        elif zero_chunk == "all":
            cols[:] = 0
        operands = (table, act_rows, cols, wp, wn)
        want = _oracle_counts(*operands, mode)
        for path in both_paths():
            np.testing.assert_array_equal(
                fused_conv_counts(*operands, mode), want, err_msg=path
            )

    def test_sparsity_counters_exported(self):
        from repro import obs

        if not obs.enabled():
            pytest.skip("telemetry disabled in this environment")
        table, act_rows, cols, wp, wn = _kernel_operands(seed=29)
        cols = cols.copy()
        cols[..., ::2] = 0
        words = table.shape[-1]
        nonzero = int(np.count_nonzero(cols))
        for path in both_paths():
            before = obs.get_registry().counters()
            fused_conv_counts(table, act_rows, cols, wp, wn, "fxp")
            after = obs.get_registry().counters()

            def delta(name):
                return after.get(name, 0) - before.get(name, 0)

            assert delta("sc.kernels.nnz_words") == nonzero * words, path
            assert delta("sc.kernels.skipped_words") == (
                (cols.size - nonzero) * words
            ), path


def check_bad_input(expect_native: bool) -> None:
    """A NaN activation (quantized to the int64 minimum) and
    out-of-range values or table rows raise ``IndexError``; ±inf clips
    to the ends of [0, 1] like any out-of-range value."""
    assert (native.load() is not None) is expect_native
    cfg = SCConfig(stream_length=32, stream_length_pooling=32)
    x, w = make_inputs(seed=31)
    for mode in MODES:
        fused = SCConvSimulator((4, 3, 3, 3), cfg.with_(accumulation=mode))
        bad = x.copy()
        bad[1, 2, 3, 3] = np.nan
        with pytest.raises(IndexError), np.errstate(invalid="ignore"):
            fused(bad, w)
        reference = SCConvSimulator(
            (4, 3, 3, 3), cfg.with_(accumulation=mode, engine="reference")
        )
        for value in (np.inf, -np.inf):
            clipped = x.copy()
            clipped[1, 2, 3, 3] = value
            np.testing.assert_array_equal(
                fused(clipped, w), reference(clipped, w)
            )
    table, act_rows, cols, wp, wn = _kernel_operands(seed=37)
    rows, levels = table.shape[:2]
    for row in (rows, -1):
        bad_rows = act_rows.copy()
        bad_rows[1, 2, 0] = row
        with pytest.raises(IndexError, match="row"):
            fused_conv_counts(table, bad_rows, cols, wp, wn, "pbw")
    for value in (levels, -1, np.iinfo(np.int64).min):
        bad_cols = cols.copy()
        bad_cols[1, 0, 1, 1, 4] = value
        with pytest.raises(IndexError, match="value"):
            fused_conv_counts(table, act_rows, bad_cols, wp, wn, "apc")


class TestBadInput:
    def test_native_raises_without_crashing(self):
        # A subprocess, so a wild read that kills the interpreter fails
        # this test instead of the whole session.
        if native.load() is None:
            pytest.skip("no native library on this host")
        root = Path(__file__).resolve().parents[1]
        script = textwrap.dedent("""
            from tests.test_kernels import check_bad_input
            check_bad_input(expect_native=True)
            print("bad input rejected")
        """)
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr[-3000:]
        assert "bad input rejected" in done.stdout

    def test_numpy_fallback_raises(self, numpy_path):
        check_bad_input(expect_native=False)
