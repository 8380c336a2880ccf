"""Self-contained build pipeline for the compiled engine kernel.

The container pins its Python toolchain (no Cython, no numba, no
setuptools build isolation), so the kernel ships as one C source file
(``engine_kernel.c``) compiled on first use with whatever C compiler
the machine offers, into a shared library loaded via :mod:`ctypes`.

**Bit parity drives the flag set.**  The kernel replays the python
engine's float ops in the reference order, which IEEE-754 doubles
reproduce exactly *provided the compiler does not rewrite the ops*:

* ``-O2`` — plain optimisation; value-safe by default.
* ``-ffp-contract=off`` — gcc contracts ``a*b+c`` into fused
  multiply-adds by default at ``-O2`` (``-ffp-contract=fast``), which
  changes results by the skipped intermediate rounding.  Off, every
  multiply and add rounds exactly as the Python interpreter's did.
* On 32-bit x86, ``-msse2 -mfpmath=sse`` — x87 extended-precision
  registers would carry 80-bit intermediates; SSE2 keeps every
  intermediate a 64-bit double.  x86-64 uses SSE2 by default.
* ``-ffast-math`` (and friends: ``-funsafe-math-optimizations``,
  ``-Ofast``) is **forbidden**: it licenses reassociation, reciprocal
  approximation and FTZ, any one of which breaks parity.

**Cache.**  Compiled libraries live under a content-hash directory
(:func:`cache_dir`, default ``~/.cache/repro/ckernel``, override with
``REPRO_CKERNEL_CACHE``).  The hash covers the C source text, the
compiler identity line, the exact flag list and the kernel ABI version,
so editing the source, switching compilers, changing flags or bumping
the ABI each land in a fresh cache slot — a stale ``.so`` can never be
loaded.  As a second line of defence the loaded library's
``repro_abi_version()`` export is checked against :data:`ABI_VERSION`.

**Availability.**  Everything degrades gracefully: no compiler on PATH
(or ``REPRO_NO_CKERNEL=1``, the explicit opt-out) means
:func:`availability` reports the reason, ``backend="c"`` raises it, and
nothing else in the package notices.  ``REPRO_CC`` overrides discovery
with an explicit compiler command.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = [
    "ABI_VERSION",
    "CKernelUnavailable",
    "availability",
    "base_cflags",
    "build_library",
    "cache_dir",
    "find_compiler",
    "load_kernel",
    "source_path",
    "toolchain_info",
]

#: Kernel ABI version; must match ``REPRO_KERNEL_ABI`` in the C source.
#: Part of the cache key *and* verified against the loaded library's
#: ``repro_abi_version()`` export.
ABI_VERSION = 4

#: Compiler commands tried in order when ``REPRO_CC`` is unset.
_CANDIDATE_CCS = ("cc", "gcc", "clang")

_ENV_CC = "REPRO_CC"
_ENV_CACHE = "REPRO_CKERNEL_CACHE"
_ENV_DISABLE = "REPRO_NO_CKERNEL"


class CKernelUnavailable(RuntimeError):
    """The compiled kernel cannot be built or loaded on this machine."""


def source_path() -> Path:
    """Path of the kernel's C source, shipped next to this module."""
    return Path(__file__).resolve().parent / "engine_kernel.c"


def base_cflags() -> tuple[str, ...]:
    """The parity-preserving compile flags (see the module docstring)."""
    flags = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]
    if sys.platform.startswith("linux") and sys.maxsize <= 2**32:
        # 32-bit x86: force SSE2 doubles, never x87 extended precision.
        flags += ["-msse2", "-mfpmath=sse"]
    return tuple(flags)


def find_compiler() -> str | None:
    """The C compiler command to use, or ``None`` when disabled/absent.

    ``REPRO_NO_CKERNEL=1`` disables discovery outright; ``REPRO_CC``
    names an explicit command; otherwise the first of ``cc``, ``gcc``,
    ``clang`` found on PATH wins.
    """
    if os.environ.get(_ENV_DISABLE):
        return None
    override = os.environ.get(_ENV_CC)
    if override:
        return override if shutil.which(override) else None
    for cc in _CANDIDATE_CCS:
        if shutil.which(cc):
            return cc
    return None


def compiler_version(cc: str) -> str | None:
    """First line of ``cc --version``, or ``None`` if it won't run.

    Memoized per compiler command for the life of the process (cleared
    by :func:`_reset_probe`), so a warm :func:`load_kernel` spawns no
    process.
    """
    if cc not in _CC_VERSION:
        _CC_VERSION[cc] = _probe_compiler_version(cc)
    return _CC_VERSION[cc]


def _probe_compiler_version(cc: str) -> str | None:
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    line = out.stdout.splitlines()
    return line[0].strip() if line else None


def cache_dir() -> Path:
    """Root of the compiled-library cache."""
    override = os.environ.get(_ENV_CACHE)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "ckernel"


def _cache_key(source_text: str, cc_version: str, flags: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    h.update(f"abi={ABI_VERSION}\n".encode())
    h.update(f"cc={cc_version}\n".encode())
    h.update(("flags=" + " ".join(flags) + "\n").encode())
    h.update(source_text.encode())
    return h.hexdigest()[:32]


def build_library(
    *,
    cc: str | None = None,
    source_text: str | None = None,
) -> Path:
    """Compile the kernel (if not cached) and return the library path.

    The compile runs in a scratch directory and the result is moved into
    the cache slot atomically (``os.replace``), so concurrent builders
    race benignly.  Raises :class:`CKernelUnavailable` with the compiler
    diagnostics on failure.
    """
    if cc is None:
        cc = find_compiler()
    if cc is None:
        raise CKernelUnavailable(
            "no C compiler found (set REPRO_CC, or unset REPRO_NO_CKERNEL)"
        )
    if source_text is None:
        source_text = source_path().read_text()
    cc_version = compiler_version(cc)
    if cc_version is None:
        raise CKernelUnavailable(f"compiler {cc!r} does not run (--version failed)")
    flags = base_cflags()
    key = _cache_key(source_text, cc_version, flags)
    lib = cache_dir() / f"engine_kernel-{key}.so"
    if lib.exists():
        return lib
    lib.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
        src = Path(tmp) / "engine_kernel.c"
        src.write_text(source_text)
        out = Path(tmp) / lib.name
        proc = subprocess.run(
            [cc, *flags, "-o", str(out), str(src)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            raise CKernelUnavailable(
                f"compiling the engine kernel with {cc!r} failed:\n"
                + (proc.stderr or proc.stdout).strip()
            )
        os.replace(out, lib)
    return lib


# One entry per loaded library path: ctypes handles stay alive for the
# process, so repeated simulate() calls pay zero build/load cost.
_LOADED: dict[Path, ctypes.CDLL] = {}
# The library load_kernel() returned, per value of everything that
# find_compiler() and cache_dir() read: a warm load reads, hashes and
# stats no file.  Cleared by _reset_probe().
_WARM: dict[tuple[str | None, ...], ctypes.CDLL] = {}
_WARM_ENV = (_ENV_DISABLE, _ENV_CC, _ENV_CACHE, "PATH")
# Compiler command -> its ``--version`` identity line (None: won't run).
_CC_VERSION: dict[str, str | None] = {}
# Memoized availability probe: (ok, reason).  Reset by tests that
# monkeypatch discovery.
_PROBE: tuple[bool, str | None] | None = None


def _configure(dll: ctypes.CDLL) -> ctypes.CDLL:
    dll.repro_abi_version.restype = ctypes.c_int
    dll.repro_abi_version.argtypes = ()
    dll.repro_run.restype = ctypes.c_int
    dll.repro_run.argtypes = (ctypes.c_void_p,)
    dll.repro_session_open.restype = ctypes.c_void_p
    dll.repro_session_open.argtypes = (ctypes.c_void_p,)
    for name in ("repro_session_step", "repro_session_close"):
        fn = getattr(dll, name)
        fn.restype = ctypes.c_int
        fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p)
    dll.repro_session_free.restype = None
    dll.repro_session_free.argtypes = (ctypes.c_void_p,)
    return dll


def load_kernel() -> ctypes.CDLL:
    """Build (if needed), load and ABI-check the kernel library.

    Memoized per process and per value of ``REPRO_NO_CKERNEL``,
    ``REPRO_CC``, ``REPRO_CKERNEL_CACHE`` and ``PATH``: a repeat call
    under the same environment returns the loaded library at once.
    """
    key = tuple(map(os.environ.get, _WARM_ENV))
    dll = _WARM.get(key)
    if dll is not None:
        return dll
    lib = build_library()
    dll = _LOADED.get(lib)
    if dll is not None:
        _WARM[key] = dll
        return dll
    try:
        dll = _configure(ctypes.CDLL(str(lib)))
    except (OSError, AttributeError) as exc:
        raise CKernelUnavailable(f"loading {lib} failed: {exc}") from exc
    got = dll.repro_abi_version()
    if got != ABI_VERSION:
        raise CKernelUnavailable(
            f"kernel ABI mismatch: library reports {got}, "
            f"this build expects {ABI_VERSION}"
        )
    _LOADED[lib] = dll
    _WARM[key] = dll
    return dll


def availability() -> tuple[bool, str | None]:
    """``(available, reason-if-not)`` for the compiled backend.

    Probes once per process (a real build attempt, so "available" means
    the library actually compiled and loaded); tests reset the memo via
    :func:`_reset_probe` after monkeypatching discovery.
    """
    global _PROBE
    if _PROBE is None:
        try:
            load_kernel()
        except CKernelUnavailable as exc:
            _PROBE = (False, str(exc))
        else:
            _PROBE = (True, None)
    return _PROBE


def _reset_probe() -> None:
    """Forget the memoized availability verdict, compiler identities and
    warm loads (test hook)."""
    global _PROBE
    _PROBE = None
    _CC_VERSION.clear()
    _WARM.clear()


def toolchain_info() -> dict:
    """Provenance block for benchmarks and run manifests: compiler
    identity/version/flags plus the availability verdict."""
    cc = find_compiler()
    ok, reason = availability()
    info: dict = {
        "compiler": cc,
        "compiler_version": compiler_version(cc) if cc else None,
        "cflags": list(base_cflags()),
        "abi_version": ABI_VERSION,
        "available": ok,
    }
    if not ok:
        info["unavailable_reason"] = reason
    return info
