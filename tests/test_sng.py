"""Tests for normal, progressive, and shadow-buffered SNGs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sc.formats import quantize_unipolar
from repro.sc.rng import LFSRSource, SobolSource, TRNGSource
from repro.sc.sng import SNG, ProgressiveSNG, ShadowBufferedSNG
from repro.sc.streams import scc
from repro.utils.bitops import pack_bits


def compare_oracle(sng, targets, seeds, length):
    """The comparator definition, one compare per output bit: the bank row
    of each stream's seed against its (effective) target, then packed."""
    targets = np.asarray(targets, dtype=np.int64)
    shape = np.broadcast_shapes(targets.shape, np.shape(seeds))
    targets = np.broadcast_to(targets, shape)
    seeds = np.broadcast_to(np.asarray(seeds, dtype=np.int64), shape)
    unique, inverse = np.unique(seeds.ravel(), return_inverse=True)
    bank = sng.source.bank(unique, length)
    rand = bank[inverse].reshape(shape + (length,))
    if isinstance(sng, ProgressiveSNG):
        return pack_bits(rand <= sng.effective_targets(targets, length))
    return pack_bits(rand <= targets[..., None])


SOURCES = {
    "lfsr": LFSRSource,
    "sobol": SobolSource,
    "trng": lambda bits: TRNGSource(bits, root_seed=5, fresh_draws=False),
}


class TestSNG:
    def test_full_period_exact_counts(self):
        # Over one full LFSR period a target q produces exactly q ones.
        bits = 6
        src = LFSRSource(bits)
        sng = SNG(src, bits)
        targets = np.arange(0, 64, dtype=np.int64).clip(0, 63)
        streams = sng.generate(targets, np.zeros(64, dtype=int), 63)
        np.testing.assert_array_equal(streams.counts(), targets)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SNG(LFSRSource(7), 8)

    def test_float_targets_rejected(self):
        sng = SNG(LFSRSource(7), 7)
        with pytest.raises(ConfigurationError):
            sng.generate(np.array([0.5]), np.array([0]), 64)

    def test_out_of_range_targets_rejected(self):
        sng = SNG(LFSRSource(7), 7)
        with pytest.raises(ConfigurationError):
            sng.generate(np.array([128]), np.array([0]), 64)

    def test_shared_seed_full_correlation(self):
        # Two SNGs sharing a seed produce maximally correlated streams —
        # the mechanism behind the extreme-sharing accuracy collapse.
        sng = SNG(LFSRSource(7), 7)
        q = quantize_unipolar(np.array([0.5, 0.7]), 7)
        shared = sng.generate(q, np.array([3, 3]), 128)
        assert float(scc(shared[0], shared[1])) == pytest.approx(1.0)

    def test_distinct_seeds_low_correlation(self):
        sng = SNG(LFSRSource(7), 7)
        q = quantize_unipolar(np.array([0.5, 0.5]), 7)
        streams = sng.generate(q, np.array([3, 60]), 128)
        assert abs(float(scc(streams[0], streams[1]))) < 0.35

    def test_shared_seed_and_computes_min(self):
        # AND of fully correlated streams yields min(a, b), not a*b.
        sng = SNG(LFSRSource(7), 7)
        q = quantize_unipolar(np.array([0.4, 0.8]), 7)
        s = sng.generate(q, np.array([5, 5]), 127)
        product = (s[0] & s[1]).mean()
        assert float(product) == pytest.approx(0.4, abs=0.02)

    def test_trng_streams_have_binomial_noise(self):
        sng = SNG(TRNGSource(7, root_seed=0), 7)
        q = quantize_unipolar(np.full(200, 0.5), 7)
        streams = sng.generate(q, np.arange(200), 128)
        std = streams.mean().std()
        # Binomial std at p=0.5, L=128 is ~0.044.
        assert 0.02 < std < 0.08

    def test_deterministic_lfsr_repeats_exactly(self):
        sng = SNG(LFSRSource(7), 7)
        q = quantize_unipolar(np.array([0.3]), 7)
        a = sng.generate(q, np.array([9]), 64)
        b = sng.generate(q, np.array([9]), 64)
        np.testing.assert_array_equal(a.packed, b.packed)

    @given(
        st.integers(min_value=0, max_value=127),
        st.integers(min_value=1, max_value=126),
    )
    @settings(max_examples=40, deadline=None)
    def test_value_estimate_property(self, target, seed):
        sng = SNG(LFSRSource(7), 7)
        stream = sng.generate(
            np.array([target]), np.array([seed]), 127
        )
        assert stream.counts()[0] == target


class TestProgressiveSNG:
    def test_schedule_default(self):
        sng = ProgressiveSNG(LFSRSource(8), 8)
        loaded = sng.loaded_bits_schedule(10)
        np.testing.assert_array_equal(loaded, [2, 2, 4, 4, 6, 6, 8, 8, 8, 8])
        assert sng.settle_cycles() == 6

    def test_settles_within_eight_cycles_for_7bit(self):
        sng = ProgressiveSNG(LFSRSource(7), 7)
        assert sng.settle_cycles() <= 8

    def test_effective_targets_ramp(self):
        sng = ProgressiveSNG(LFSRSource(8), 8)
        eff = sng.effective_targets(np.array([0b10110111]), 8)[0]
        assert eff[0] == 0b10000000
        assert eff[2] == 0b10110000
        assert eff[4] == 0b10110100
        assert eff[6] == 0b10110111

    def test_matches_normal_after_settling(self):
        src = LFSRSource(8)
        normal = SNG(src, 8)
        prog = ProgressiveSNG(src, 8)
        q = quantize_unipolar(np.array([0.3, 0.77]), 8)
        seeds = np.array([11, 47])
        nb = normal.generate(q, seeds, 64).bits()
        pb = prog.generate(q, seeds, 64).bits()
        settle = prog.settle_cycles()
        np.testing.assert_array_equal(nb[:, settle:], pb[:, settle:])

    def test_progressive_never_overshoots(self):
        # Zero-padded low bits mean the effective value only ramps *up*.
        sng = ProgressiveSNG(LFSRSource(8), 8)
        eff = sng.effective_targets(np.array([201]), 16)[0]
        assert np.all(np.diff(eff) >= 0)
        assert eff[-1] == 201

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            ProgressiveSNG(LFSRSource(8), 8, initial_bits=0)
        with pytest.raises(ConfigurationError):
            ProgressiveSNG(LFSRSource(8), 8, bits_per_group=0)
        with pytest.raises(ConfigurationError):
            ProgressiveSNG(LFSRSource(8), 8, initial_bits=9)


class TestShadowBuffering:
    def make(self, bits=8, entries=64, load_width=32):
        sng = ProgressiveSNG(LFSRSource(bits), bits)
        return ShadowBufferedSNG(sng, buffer_entries=entries, load_width=load_width)

    def test_reload_latency_4x(self):
        # The headline Sec. II-B claim: progressive loading cuts reload
        # latency 4X vs waiting for all 8 bits (2 of 8 bits up front).
        shadow = self.make()
        assert shadow.reload_speedup() == pytest.approx(4.0)

    def test_shadow_scheme_hides_everything(self):
        assert self.make().reload_stall_cycles("shadow") == 0

    def test_parallel_scheme_full_cost(self):
        shadow = self.make(entries=64, load_width=32)
        assert shadow.reload_stall_cycles("parallel") == 64 * 8 // 32

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().reload_stall_cycles("magic")

    def test_invalid_geometry_rejected(self):
        sng = ProgressiveSNG(LFSRSource(8), 8)
        with pytest.raises(ConfigurationError):
            ShadowBufferedSNG(sng, buffer_entries=0, load_width=8)


class TestLevelSweepMatchesOracle:
    """Both generators are bit-identical to the one-compare-per-bit
    definition across sources, widths, lengths and target/seed layouts."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_compare_oracle(self, data):
        kind = data.draw(st.sampled_from(sorted(SOURCES)))
        bits = data.draw(st.integers(3, 8))
        period = (1 << bits) - 1
        length = data.draw(
            st.one_of(
                st.integers(1, period - 1),  # shorter than the period
                st.just(period),
                st.integers(2 * period + 1, 2 * period + 70),  # values repeat
                st.integers(1, 200).filter(lambda n: n % 64),
            )
        )
        cls = data.draw(st.sampled_from([SNG, ProgressiveSNG]))
        layout = data.draw(st.sampled_from(["subset", "alphabet", "broadcast"]))
        seed_pool = st.integers(0, data.draw(st.sampled_from([3, 40, 1000])))
        if layout == "alphabet":  # every seed at every level, as tables do
            n = data.draw(st.integers(1, 6))
            targets = np.arange(period + 1)[None, :]
            seeds = np.array(data.draw(st.lists(seed_pool, min_size=n, max_size=n)))
            seeds = seeds[:, None]
        else:
            shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
            size = int(np.prod(shape))
            targets = np.array(
                data.draw(st.lists(st.integers(0, period), min_size=size, max_size=size))
            ).reshape(shape)
            if layout == "broadcast":  # one seed per leading row
                seeds = np.array(
                    data.draw(st.lists(seed_pool, min_size=shape[0], max_size=shape[0]))
                ).reshape((shape[0],) + (1,) * (len(shape) - 1))
            else:  # small pools make shared seeds common
                seeds = np.array(
                    data.draw(st.lists(seed_pool, min_size=size, max_size=size))
                ).reshape(shape)
        got = cls(SOURCES[kind](bits), bits).generate(targets, seeds, length)
        want = compare_oracle(cls(SOURCES[kind](bits), bits), targets, seeds, length)
        assert got.length == length
        np.testing.assert_array_equal(got.packed, want)

    @pytest.mark.parametrize("cls", [SNG, ProgressiveSNG])
    def test_fresh_trng_draws_unchanged(self, cls):
        # Equal roots, one through generate and one through the oracle:
        # identical output on every call means each call consumed the
        # same random draws as the compare definition.
        bits = 6
        sng = cls(TRNGSource(bits, root_seed=9), bits)
        ref = cls(TRNGSource(bits, root_seed=9), bits)
        rng = np.random.default_rng(0)
        for length, rows in ((64, 5), (100, 0), (7, 5)):  # 0 rows: no draw
            targets = rng.integers(0, 1 << bits, size=(rows, 8))
            seeds = rng.integers(0, 6, size=(1, 8))
            np.testing.assert_array_equal(
                sng.generate(targets, seeds, length).packed,
                compare_oracle(ref, targets, seeds, length),
            )
