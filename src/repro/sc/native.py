"""Build and load the native SC kernel on first use.

:func:`repro.sc.kernels.fused_conv_counts` runs its hot loop in one C
function, ``sc_kernel.c``, shipped next to this module. The first call
in a process compiles it with the host's ``cc`` and loads it through
:mod:`ctypes`. No build step, dependency or download is involved; on a
host without a compiler (or when the compile fails) :func:`load`
returns ``None`` and the kernels run their numpy fallback.

The shared object is cached under ``$XDG_CACHE_HOME/geo-repro``
(default ``~/.cache/geo-repro``, created mode 0700) as
``sc_kernel-<hash>.so``. The hash covers the C source, the compiler
flags, ``cc --version`` and the machine architecture, so an edited
source, another compiler or another architecture never loads a stale
build. Each build happens in a private temporary directory and reaches
the cache through :func:`repro.utils.atomic.atomic_write_bytes` (temp
file + ``os.replace``): processes compiling at once, such as pool
workers or replicas, each see either no file or a complete one. The
cached file ends with the SHA-256 of the library before it (the dynamic
loader ignores trailing bytes), and a file whose digest does not match
is rebuilt without being loaded: the loader maps a truncated library
and would fault on its missing pages, killing the process. A cache
directory that cannot be created or written, or a directory or cached
file owned by another user, is never loaded from: the library is then
loaded straight from the private build directory.

The library handle lives in this module, is loaded once per process
under a lock and is never pickled. ``ctypes`` releases the GIL for the
length of each call, so sharded calls run in parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path

from repro.utils.atomic import atomic_write_bytes

__all__ = ["cache_dir", "load", "open_kernel"]

#: The kernel's C source (package data).
_SOURCE = Path(__file__).with_name("sc_kernel.c")

#: No ``-march=native``: a cached build must run on every host of the
#: same architecture. A hardware popcount nearly halves FXP's kernel
#: time, and every x86-64 host of the last decade has one.
_FLAGS = (
    ("-O3", "-mpopcnt")
    if platform.machine().lower() in ("x86_64", "amd64")
    else ("-O3",)
)

_DIGEST_BYTES = hashlib.sha256().digest_size

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
#: Mirrors the ``sc_group_counts`` prototype in ``sc_kernel.c``.
_ARGTYPES = (
    [_PTR, _I64, _I64, _I64]  # table, rows, levels, words
    + [_PTR, _PTR, _PTR, _PTR]  # act_rows, cols, weights, group_k
    + [_I64] * 6  # n, k, p, cout, g, s
    + [_I64, _I64]  # p_lo, p_hi
    + [_PTR, _PTR]  # counts, nnz
)

_LOCK = threading.Lock()  # guards: _LOADED, _KERNEL
_LOADED = False
_KERNEL = None


def load():
    """The native kernel function, or ``None`` when none could be built.

    Built (or read from the cache) on the first call in the process;
    later calls return the same handle.
    """
    global _LOADED, _KERNEL
    with _LOCK:
        if not _LOADED:
            _KERNEL = open_kernel(cache_dir())
            _LOADED = True
        return _KERNEL


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/geo-repro``, default ``~/.cache/geo-repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "geo-repro"


def open_kernel(cache: Path):
    """Load the kernel through the cache directory ``cache``.

    Returns the bound ``ctypes`` function, or ``None`` when there is no
    ``cc`` or the build fails.
    """
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        name = _library_name(compiler)
    except (OSError, subprocess.SubprocessError):
        return None
    cached = cache / name
    trusted = _private_dir(cache) and (
        not os.path.lexists(cached) or _owned(cached)
    )
    if trusted and _intact(cached):
        kernel = _bind(cached)
        if kernel is not None:
            return kernel
    with tempfile.TemporaryDirectory(prefix="geo-repro-") as build:
        built = Path(build) / name
        try:
            subprocess.run(
                [compiler, *_FLAGS, "-shared", "-fPIC", "-o", str(built),
                 str(_SOURCE)],
                check=True,
                capture_output=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        if trusted:
            library = built.read_bytes()
            try:
                atomic_write_bytes(
                    cached, library + hashlib.sha256(library).digest()
                )
            except OSError:
                pass
            else:
                kernel = _bind(cached)
                if kernel is not None:
                    return kernel
        # POSIX keeps a loaded library mapped after its file is removed.
        return _bind(built)


def _library_name(compiler: str) -> str:
    """Cache file name: a hash of everything the build depends on."""
    version = subprocess.run(
        [compiler, "--version"], check=True, capture_output=True
    ).stdout
    digest = hashlib.sha256()
    for part in (
        _SOURCE.read_bytes(),
        " ".join(_FLAGS).encode(),
        version,
        platform.machine().encode(),
    ):
        digest.update(part)
        digest.update(b"\0")
    return f"sc_kernel-{digest.hexdigest()[:24]}.so"


def _intact(path: Path) -> bool:
    """True when the file at ``path`` ends with the SHA-256 digest of
    the bytes before it."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    return bool(body) and hashlib.sha256(body).digest() == digest


def _private_dir(path: Path) -> bool:
    """Create ``path`` 0700 if missing; True when it is a writable
    directory owned by this user."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_ISDIR(info.st_mode)
        and info.st_uid == os.geteuid()
        and os.access(path, os.W_OK)
    )


def _owned(path: Path) -> bool:
    """True when ``path`` is a regular file (not a link) of this user."""
    try:
        info = os.lstat(path)
    except OSError:
        return False
    return stat.S_ISREG(info.st_mode) and info.st_uid == os.geteuid()


def _bind(path: Path):
    """The typed ``sc_group_counts`` entry of the library at ``path``,
    or ``None`` when it does not load."""
    try:
        kernel = ctypes.CDLL(str(path)).sc_group_counts
    except (OSError, AttributeError):
        return None
    kernel.argtypes = _ARGTYPES
    kernel.restype = ctypes.c_int
    return kernel
