"""Validation tests for configuration objects across packages."""

import numpy as np
import pytest

from repro.arch.geo import GeoArchConfig
from repro.errors import ConfigurationError, StreamLengthError
from repro.nn import init
from repro.scnn.config import SCConfig, TABLE1_CONFIGS


class TestSCConfig:
    def test_defaults(self):
        cfg = SCConfig()
        assert cfg.stream_length == 128
        assert cfg.sharing.value == "moderate"
        assert cfg.accumulation.value == "pbw"

    def test_label(self):
        cfg = SCConfig(stream_length=64, stream_length_pooling=32)
        assert cfg.label() == "32-64"

    def test_bits_for_roles(self):
        cfg = SCConfig(
            stream_length=64,
            stream_length_pooling=32,
            output_stream_length=128,
        )
        assert cfg.bits_for("plain") == 6
        assert cfg.bits_for("pooling") == 5
        assert cfg.bits_for("output") == 7

    def test_length_for_unknown_role(self):
        with pytest.raises(ConfigurationError):
            SCConfig().length_for("classifier")

    def test_non_power_of_two_rejected(self):
        with pytest.raises(StreamLengthError):
            SCConfig(stream_length=100)

    def test_unknown_rng_rejected(self):
        with pytest.raises(ConfigurationError):
            SCConfig(rng_kind="xorshift")

    def test_bad_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            SCConfig(batch_chunk=0)

    def test_with_creates_modified_copy(self):
        a = SCConfig()
        b = a.with_(stream_length=32)
        assert a.stream_length == 128
        assert b.stream_length == 32
        assert b.sharing == a.sharing

    def test_table1_configs_match_paper_labels(self):
        assert set(TABLE1_CONFIGS) == {"64-128", "32-64", "16-32"}
        for label, cfg in TABLE1_CONFIGS.items():
            assert cfg.label() == label
            assert cfg.output_stream_length == 128


#: ``SCConfig.to_dict()`` as written into model files and checkpoints
#: before the ``autotune`` field was removed.
LEGACY_RECORD = {
    "stream_length": 32, "stream_length_pooling": 32,
    "output_stream_length": 128, "rng_kind": "lfsr", "sharing": "moderate",
    "accumulation": "pbw", "progressive": False, "root_seed": 0,
    "batch_chunk": 16, "trng_eval_freeze": False, "engine": "fused",
    "num_workers": 1, "autotune": True,
}


class TestSCConfigRecords:
    def test_round_trip(self):
        cfg = SCConfig(stream_length=64, accumulation="apc", num_workers=2)
        assert SCConfig.from_dict(cfg.to_dict()) == cfg

    def test_legacy_autotune_key_dropped(self):
        cfg = SCConfig.from_dict(LEGACY_RECORD)
        assert cfg == SCConfig(stream_length=32, stream_length_pooling=32)
        assert "autotune" not in cfg.to_dict()

    @pytest.mark.parametrize("extra", ({"nope": 1}, {"plan": "x"}))
    def test_unknown_keys_still_rejected(self, extra):
        with pytest.raises(ConfigurationError, match="unknown SCConfig"):
            SCConfig.from_dict({**LEGACY_RECORD, **extra})

    def test_legacy_model_spec_builds(self):
        from repro.nn.serialize import build_from_spec

        spec = {
            "builder": "cnn4_sc",
            "kwargs": {"in_channels": 1, "input_size": 16, "width_mult": 0.25},
            "sc_config": dict(LEGACY_RECORD),
        }
        model = build_from_spec(spec)
        configs = {
            m.cfg for m in model.modules() if isinstance(
                getattr(m, "cfg", None), SCConfig
            )
        }
        assert configs == {SCConfig.from_dict(LEGACY_RECORD)}


class TestGeoArchConfig:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoArchConfig(name="x", rows=0)

    def test_invalid_buffering_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoArchConfig(name="x", buffering="triple")

    def test_total_macs_and_memory(self):
        cfg = GeoArchConfig(name="x", rows=8, row_width=100,
                            act_memory_kb=10, wgt_memory_kb=20)
        assert cfg.total_macs == 800
        assert cfg.total_memory_kb == 30

    def test_weight_fill_rate_scales_with_rows(self):
        a = GeoArchConfig(name="a", rows=8)
        b = GeoArchConfig(name="b", rows=16)
        assert b.weight_fill_rate == 2 * a.weight_fill_rate

    def test_with_preserves_other_fields(self):
        from repro.arch.geo import GEO_ULP

        modified = GEO_ULP.with_(rows=64)
        assert modified.rows == 64
        assert modified.row_width == GEO_ULP.row_width


class TestInit:
    def test_kaiming_scale_shrinks_with_fan_in(self):
        rng = np.random.default_rng(0)
        small = init.kaiming_uniform((8, 4), rng)
        large = init.kaiming_uniform((8, 400), rng)
        assert small.std() > large.std()

    def test_conv_fan_in(self):
        rng = np.random.default_rng(1)
        w = init.kaiming_uniform((16, 3, 5, 5), rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 75)
        assert np.abs(w).max() <= bound + 1e-6

    def test_xavier_bounds(self):
        rng = np.random.default_rng(2)
        w = init.xavier_uniform((10, 20), rng)
        bound = np.sqrt(6.0 / 30)
        assert np.abs(w).max() <= bound + 1e-6

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ValueError):
            init.kaiming_uniform((3,), np.random.default_rng(0))

    def test_sc_uniform_in_representable_range(self):
        rng = np.random.default_rng(3)
        w = init.scaled_sc_uniform((8, 8, 3, 3), rng)
        assert np.abs(w).max() <= 1.0

    def test_sc_uniform_or_group_cap(self):
        rng = np.random.default_rng(4)
        wide = init.scaled_sc_uniform((4, 512, 3, 3), rng, or_group_size=4608)
        assert np.abs(wide).max() <= 8.0 / 4608 + 1e-9
