"""Tests for the native kernel's build cache (:mod:`repro.sc.native`).

Every test builds into its own temporary cache directory, never the
user's. A kernel counts as working when :func:`fused_conv_counts` on it
equals the numpy fallback.
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

from repro.sc import native
from repro.sc.kernels import fused_conv_counts
from repro.sc.rng import LFSRSource
from repro.scnn.sim import stream_table

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on this host"
)

ROOT = Path(__file__).resolve().parents[1]


def assert_works(kernel) -> None:
    assert kernel is not None
    rng = np.random.default_rng(0)
    seeds = np.arange(1, 22)
    table, unique = stream_table(LFSRSource(5), 5, 64, seeds, False)
    act_rows = np.searchsorted(unique, seeds[:18]).reshape(2, 3, 3)
    cols = rng.integers(0, 32, size=(2, 2, 3, 3, 7))
    wq = rng.integers(0, 32, size=(3, 2, 3, 3))
    row = np.searchsorted(unique, seeds[18:])[:, None, None, None]
    operands = (table, act_rows, cols, table[row, wq], table[row, 31 - wq])
    for mode in ("pbw", "apc"):
        with mock.patch.object(native, "load", lambda: kernel):
            got = fused_conv_counts(*operands, mode)
        with mock.patch.object(native, "load", lambda: None):
            want = fused_conv_counts(*operands, mode)
        np.testing.assert_array_equal(got, want)


def cached_files(cache: Path) -> list[Path]:
    return sorted(cache.glob("sc_kernel-*.so"))


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


def test_cache_dir_follows_xdg(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert native.cache_dir() == tmp_path / "geo-repro"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert native.cache_dir() == Path.home() / ".cache" / "geo-repro"


def test_build_then_reuse(tmp_path, bound_paths):
    cache = tmp_path / "geo-repro"
    assert_works(native.open_kernel(cache))
    (built,) = cached_files(cache)
    assert (cache.stat().st_mode & 0o777) == 0o700
    assert_works(native.open_kernel(cache))
    assert bound_paths[-1] == built  # loaded from the cache, no rebuild
    assert [p.name for p in cache.iterdir()] == [built.name]


def test_concurrent_first_use(tmp_path):
    script = textwrap.dedent("""
        from repro.sc import native
        from tests.test_native import assert_works
        assert_works(native.load())
        print("loaded", native.cache_dir())
    """)
    env = {
        **os.environ,
        "XDG_CACHE_HOME": str(tmp_path),
        "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}",
    }
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err[-3000:]
        assert "loaded" in out
    cache = tmp_path / "geo-repro"
    assert len(cached_files(cache)) == 1
    assert [p.name for p in cache.iterdir()] == [cached_files(cache)[0].name]


@pytest.mark.parametrize("damage", ("truncated", "garbage", "empty"))
def test_broken_cached_library_is_rebuilt(tmp_path, damage):
    # Seed the cache from a build loaded under another path: a process
    # never re-reads a library path it has already loaded.
    native.open_kernel(tmp_path / "seed")
    (seed,) = cached_files(tmp_path / "seed")
    cache = tmp_path / "geo-repro"
    cache.mkdir(mode=0o700)
    built = cache / seed.name
    good = seed.read_bytes()
    broken = {
        "truncated": good[: len(good) // 3],
        "garbage": b"not a shared object" * 50,
        "empty": b"",
    }[damage]
    built.write_bytes(broken)
    assert_works(native.open_kernel(cache))
    assert built.read_bytes()[:4] == b"\x7fELF"
    assert len(built.read_bytes()) > len(broken)


def test_cache_under_a_file_builds_privately(tmp_path, bound_paths):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x")
    cache = blocker / "geo-repro"
    assert_works(native.open_kernel(cache))
    assert not str(bound_paths[-1]).startswith(str(blocker))
    assert blocker.read_text() == "x"


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes anywhere")
def test_read_only_cache_builds_privately(tmp_path, bound_paths):
    cache = tmp_path / "geo-repro"
    cache.mkdir(mode=0o500)
    try:
        assert_works(native.open_kernel(cache))
        assert cached_files(cache) == []
        assert cache not in bound_paths[-1].parents
    finally:
        cache.chmod(0o700)


@pytest.mark.skipif(os.geteuid() != 0, reason="needs root to chown")
@pytest.mark.parametrize("foreign", ("file", "dir"))
def test_foreign_owned_cache_is_never_loaded(tmp_path, bound_paths, foreign):
    cache = tmp_path / "geo-repro"
    native.open_kernel(cache)
    (built,) = cached_files(cache)
    before = built.read_bytes()
    os.chown(built if foreign == "file" else cache, os.geteuid() + 4242, -1)
    bound_paths.clear()
    assert_works(native.open_kernel(cache))
    assert bound_paths and all(cache not in p.parents for p in bound_paths)
    assert built.read_bytes() == before  # left alone, not rebuilt
