"""Tests of what took over from the per-shape autotuner.

The execution engine no longer tunes a numpy slab geometry per shape;
it runs one native kernel whose only persistent state is its build
cache (:mod:`repro.sc.native`), and ``SCConfig.autotune`` survives only
as a legacy record key that loading drops. The guarantees the tuner's
plan cache gave carry over to the build cache: its entries are keyed by
a hash of the kernel code, a key mismatch (edited source, another
compiler version) never loads a stale entry, and a corrupt, stale or
deleted entry is rebuilt or skipped rather than trusted. Class and test
names follow the tuner tests each guarantee descends from.
"""

import hashlib
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sc import native
from repro.sc.kernels import fused_conv_counts
from repro.scnn.config import SCConfig
from repro.scnn.sim import _EXECUTION_KNOBS, SCConvSimulator, clear_table_cache
from tests.test_kernels import _kernel_operands
from tests.test_native import assert_works, cached_files

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on this host"
)


@pytest.fixture
def bound_paths(monkeypatch):
    """Record every library path the loader binds."""
    paths = []
    bind = native._bind

    def recording(path):
        paths.append(Path(path))
        return bind(path)

    monkeypatch.setattr(native, "_bind", recording)
    return paths


@pytest.fixture(autouse=True)
def fresh_tables():
    clear_table_cache()
    yield
    clear_table_cache()


@needs_cc
class TestKernelCodeHash:
    def test_stable_and_short(self):
        compiler = shutil.which("cc")
        name = native._library_name(compiler)
        assert name == native._library_name(compiler)
        assert re.fullmatch(r"sc_kernel-[0-9a-f]{24}\.so", name)


@needs_cc
class TestPlanCache:
    def test_kernel_hash_mismatch_invalidates(
        self, tmp_path, monkeypatch, bound_paths
    ):
        cache = tmp_path / "geo-repro"
        native.open_kernel(cache)
        (original,) = cached_files(cache)
        edited = tmp_path / "sc_kernel.c"
        edited.write_bytes(native._SOURCE.read_bytes() + b"\n/* edited */\n")
        monkeypatch.setattr(native, "_SOURCE", edited)
        assert native._library_name(shutil.which("cc")) != original.name
        assert_works(native.open_kernel(cache))
        assert original not in bound_paths[1:]
        assert len(cached_files(cache)) == 2

    def test_version_mismatch_invalidates(
        self, tmp_path, monkeypatch, bound_paths
    ):
        # Another compiler version must never load this one's build.
        real = shutil.which("cc")
        cache = tmp_path / "geo-repro"
        native.open_kernel(cache)
        (original,) = cached_files(cache)
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        wrapper = bin_dir / "cc"
        wrapper.write_text(
            "#!/bin/sh\n"
            'if [ "$1" = --version ]; then echo "cc (other) 0.0"; exit 0; fi\n'
            f'exec "{real}" "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
        assert shutil.which("cc") == str(wrapper)
        assert native._library_name(str(wrapper)) != original.name
        assert_works(native.open_kernel(cache))
        assert original not in bound_paths[1:]
        assert len(cached_files(cache)) == 2

    def test_corrupt_file_ignored(self, tmp_path):
        # Intact by its digest trailer, yet not a library: the loader
        # rejects it and the build replaces it.
        cache = tmp_path / "geo-repro"
        cache.mkdir(mode=0o700)
        cached = cache / native._library_name(shutil.which("cc"))
        junk = b"not a shared object" * 64
        cached.write_bytes(junk + hashlib.sha256(junk).digest())
        assert native._intact(cached)
        assert_works(native.open_kernel(cache))
        assert cached.read_bytes()[:4] == b"\x7fELF"
        assert native._intact(cached)

    def test_bad_plan_entry_skipped(self, tmp_path, bound_paths):
        # Entries under other keys are stale builds: never loaded, never
        # removed.
        cache = tmp_path / "geo-repro"
        cache.mkdir(mode=0o700)
        stale = cache / f"sc_kernel-{'0' * 24}.so"
        stale.write_bytes(b"stale")
        assert_works(native.open_kernel(cache))
        assert stale not in bound_paths
        assert stale.read_bytes() == b"stale"
        assert len(cached_files(cache)) == 2

    def test_clear_disk(self, tmp_path):
        cache = tmp_path / "geo-repro"
        native.open_kernel(cache)
        shutil.rmtree(cache)
        assert_works(native.open_kernel(cache))
        (rebuilt,) = cached_files(cache)
        assert native._intact(rebuilt)
        assert (cache.stat().st_mode & 0o777) == 0o700

    def test_memory_only_without_path(self, tmp_path, monkeypatch):
        # No compiler on PATH: nothing is built or cached and the numpy
        # fallback computes the same counts.
        operands = _kernel_operands(seed=19)
        want = fused_conv_counts(*operands, "pbhw")
        empty = tmp_path / "empty-bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        cache = tmp_path / "geo-repro"
        kernel = native.open_kernel(cache)
        assert kernel is None
        assert not cache.exists()
        monkeypatch.setattr(native, "load", lambda: kernel)
        np.testing.assert_array_equal(
            fused_conv_counts(*operands, "pbhw"), want
        )


def _legacy_record(autotune: bool, **overrides) -> dict:
    """An ``SCConfig`` record as saved while ``autotune`` was a field."""
    return {**SCConfig(**overrides).to_dict(), "autotune": autotune}


class TestConfigKnob:
    def test_config_round_trip_and_default(self):
        assert "autotune" not in SCConfig().to_dict()
        for flag in (False, True):
            cfg = SCConfig.from_dict(_legacy_record(flag))
            assert cfg == SCConfig()
            assert SCConfig.from_dict(cfg.to_dict()) == cfg

    def test_simulator_autotuned_matches_reference(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(0, 1, size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.uniform(-0.4, 0.4, size=(4, 3, 3, 3)).astype(np.float32)
        cfg = SCConfig.from_dict(
            _legacy_record(
                True, stream_length=32, stream_length_pooling=32,
                accumulation="pbhw",
            )
        )
        ref = SCConvSimulator((4, 3, 3, 3), cfg.with_(engine="reference"))(x, w)
        tuned = SCConvSimulator((4, 3, 3, 3), cfg)(x, w)
        np.testing.assert_array_equal(ref, tuned)

    def test_autotune_is_execution_knob(self):
        # autotune only ever chose how a layer ran, never what it
        # computed, so dropping it from legacy records changes no
        # result; it is no longer a knob a simulator accepts.
        assert SCConfig.from_dict(_legacy_record(True)) == SCConfig.from_dict(
            _legacy_record(False)
        )
        assert "autotune" not in _EXECUTION_KNOBS
        sim = SCConvSimulator((4, 3, 3, 3), SCConfig())
        with pytest.raises(ConfigurationError):
            sim.reconfigure(autotune=True)
