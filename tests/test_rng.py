"""Tests for SNG random sources (LFSR / TRNG / Sobol)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sc.rng import LFSRSource, SobolSource, TRNGSource, make_source


class TestLFSRSource:
    def test_bank_shape_and_range(self):
        src = LFSRSource(7)
        bank = src.bank([0, 1, 2], 50)
        assert bank.shape == (3, 50)
        assert bank.min() >= 1 and bank.max() <= 127

    def test_equal_seeds_share_rows(self):
        src = LFSRSource(7)
        bank = src.bank([5, 5, 9], 40)
        np.testing.assert_array_equal(bank[0], bank[1])
        assert not np.array_equal(bank[0], bank[2])

    def test_deterministic_across_calls(self):
        src = LFSRSource(8)
        np.testing.assert_array_equal(src.bank([3], 30), src.bank([3], 30))
        assert src.deterministic

    def test_seed_beyond_period_selects_polynomial(self):
        src = LFSRSource(7)
        period = 127
        base = src.bank([0], 64)
        alt = src.bank([period], 64)  # same state index, polynomial 1
        assert not np.array_equal(base, alt)

    def test_max_unique_seeds_counts_polynomials(self):
        src = LFSRSource(7)
        from repro.sc.lfsr import num_polynomials

        assert src.max_unique_seeds() == 127 * num_polynomials(7)

    def test_bank_matches_per_seed_sequences(self):
        # Seeds spanning every polynomial, repeated seeds, seeds at and past
        # max_unique_seeds() (they wrap), and a length over twice the period.
        from repro.sc.lfsr import lfsr_sequence

        src = LFSRSource(5)
        period, limit = 31, src.max_unique_seeds()
        seeds = [0, 30, 31, 62, 93, limit - 1, limit, limit + 40, 3 * limit + 7, 5, 5, -1]
        length = 2 * period + 9
        bank = src.bank(np.array(seeds), length)
        assert bank.shape == (len(seeds), length)
        for row, seed in zip(bank, seeds):
            poly, state = divmod(seed % limit, period)
            np.testing.assert_array_equal(
                row, lfsr_sequence(5, seed=state + 1, polynomial=poly, length=length)
            )


class TestTRNGSource:
    def test_not_deterministic_flag(self):
        assert not TRNGSource(7).deterministic

    def test_fresh_draws_differ(self):
        src = TRNGSource(7, root_seed=1, fresh_draws=True)
        a = src.bank([0], 100)
        b = src.bank([0], 100)
        assert not np.array_equal(a, b)

    def test_equal_seeds_share_rows_within_call(self):
        src = TRNGSource(7, root_seed=1)
        bank = src.bank([4, 4, 8], 64)
        np.testing.assert_array_equal(bank[0], bank[1])

    def test_range(self):
        src = TRNGSource(5, root_seed=2)
        bank = src.bank(list(range(8)), 500)
        assert bank.min() >= 1 and bank.max() <= 31

    def test_frozen_draws_repeat(self):
        a = TRNGSource(7, root_seed=3, fresh_draws=False).bank([0], 64)
        b = TRNGSource(7, root_seed=3, fresh_draws=False).bank([0], 64)
        np.testing.assert_array_equal(a, b)


class TestSobolSource:
    def test_bank_shape_and_range(self):
        src = SobolSource(8)
        bank = src.bank([0, 1], 64)
        assert bank.shape == (2, 64)
        assert bank.min() >= 1 and bank.max() <= 255

    def test_dimension_zero_is_van_der_corput_like(self):
        # The first Sobol dimension is equidistributed: value estimates
        # from it converge quickly for a single stream.
        src = SobolSource(8)
        bank = src.bank([0], 256)[0]
        target = 128
        ones = int((bank <= target).sum())
        assert abs(ones / 256 - target / 255) < 0.02

    def test_limited_unique_seeds(self):
        src = SobolSource(8, max_dimensions=16)
        assert src.max_unique_seeds() == 16


class TestFactory:
    def test_make_source_kinds(self):
        assert isinstance(make_source("lfsr", 7), LFSRSource)
        assert isinstance(make_source("trng", 7), TRNGSource)
        assert isinstance(make_source("sobol", 7), SobolSource)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_source("xorshift", 7)

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            TRNGSource(0)
