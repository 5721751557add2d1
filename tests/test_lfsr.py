"""Tests for maximal-length LFSRs — the determinism GEO's training relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sc.lfsr import (
    LFSR,
    MAXIMAL_TAPS,
    lfsr_sequence,
    lfsr_sequences,
    num_polynomials,
)


class TestMaximality:
    @pytest.mark.parametrize("width", sorted(MAXIMAL_TAPS)[:10])
    def test_default_polynomial_is_maximal(self, width):
        # The full period visits every nonzero state exactly once.
        seq = lfsr_sequence(width, seed=1)
        period = (1 << width) - 1
        assert len(seq) == period
        assert len(set(seq.tolist())) == period
        assert seq.min() >= 1 and seq.max() <= period

    @pytest.mark.parametrize("width", [5, 7, 8, 10])
    def test_alternative_polynomials_are_maximal(self, width):
        for poly in range(num_polynomials(width)):
            seq = lfsr_sequence(width, seed=1, polynomial=poly)
            assert len(set(seq.tolist())) == (1 << width) - 1

    def test_unsupported_width_rejected(self):
        with pytest.raises(ConfigurationError):
            LFSR(1)
        with pytest.raises(ConfigurationError):
            LFSR(99)


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = lfsr_sequence(8, seed=37, length=100)
        b = lfsr_sequence(8, seed=37, length=100)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_is_rotation(self):
        # All seeds of the same polynomial traverse one cycle, so any two
        # sequences are rotations of each other.
        full = lfsr_sequence(6, seed=1).tolist()
        other = lfsr_sequence(6, seed=full[10]).tolist()
        assert other == full[10:] + full[:10]

    def test_different_polynomial_differs(self):
        a = lfsr_sequence(8, seed=1, polynomial=0, length=64)
        b = lfsr_sequence(8, seed=1, polynomial=1, length=64)
        assert not np.array_equal(a, b)

    def test_sequence_starts_at_seed(self):
        seq = lfsr_sequence(7, seed=42, length=5)
        assert seq[0] == 42


class TestStepAPI:
    def test_step_matches_sequence(self):
        lfsr = LFSR(8, seed=19)
        stepped = [lfsr.step() for _ in range(50)]
        expected = lfsr_sequence(8, seed=19, length=51)[1:]
        np.testing.assert_array_equal(stepped, expected)

    def test_sequence_method_does_not_mutate(self):
        lfsr = LFSR(8, seed=19)
        before = lfsr.state
        lfsr.sequence(10)
        assert lfsr.state == before

    def test_reset(self):
        lfsr = LFSR(5, seed=3)
        lfsr.step()
        lfsr.reset()
        assert lfsr.state == 3
        lfsr.reset(seed=7)
        assert lfsr.state == 7

    def test_zero_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            LFSR(5, seed=0)
        with pytest.raises(ConfigurationError):
            lfsr_sequence(5, seed=0)

    def test_out_of_range_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            LFSR(5, seed=32)


class TestLongSequences:
    def test_wraps_around_period(self):
        period = (1 << 4) - 1
        seq = lfsr_sequence(4, seed=1, length=2 * period + 3)
        np.testing.assert_array_equal(seq[:period], seq[period : 2 * period])

    @given(
        st.sampled_from([3, 4, 5, 6, 7, 8]),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=30, deadline=None)
    def test_balance_property(self, width, seed):
        # Maximal-length LFSRs output 2**(w-1) ones per period at each bit.
        seed = seed % ((1 << width) - 1) + 1
        seq = lfsr_sequence(width, seed=seed)
        lsb_ones = int((seq & 1).sum())
        assert lsb_ones == 1 << (width - 1)


class TestPeriodTableLookup:
    """The table lookups agree with stepping the register itself."""

    @pytest.mark.parametrize("width", [3, 4, 5, 6])
    def test_every_seed_matches_stepping(self, width):
        period = (1 << width) - 1
        length = 2 * period + 5
        for poly in range(num_polynomials(width)):
            for seed in range(1, period + 1):
                lfsr = LFSR(width, seed=seed, polynomial=poly)
                stepped = [seed] + [lfsr.step() for _ in range(length)]
                np.testing.assert_array_equal(
                    lfsr_sequence(width, seed=seed, polynomial=poly, length=length),
                    stepped[:-1],
                )
                lfsr.reset()
                np.testing.assert_array_equal(lfsr.sequence(length), stepped[1:])

    def test_many_seeds_match_single_seed_rows(self):
        seeds = [1, 5, 5, 127, 64]
        rows = lfsr_sequences(7, seeds, polynomial=3, length=300)
        assert rows.shape == (5, 300)
        for row, seed in zip(rows, seeds):
            np.testing.assert_array_equal(
                row, lfsr_sequence(7, seed=seed, polynomial=3, length=300)
            )

    def test_many_seeds_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            lfsr_sequences(5, [1, 32])
        with pytest.raises(ConfigurationError):
            lfsr_sequences(5, [0])
