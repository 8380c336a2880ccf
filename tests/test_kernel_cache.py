"""A damaged cached kernel is rebuilt, never loaded; a cache or a
compiler that is gone makes ``c`` unavailable, never an error.

Each build records the library's digest beside it; a cached library
that does not match its record is rebuilt into its slot before anything
maps it.  Mapping a truncated shared object can kill the interpreter
(SIGBUS), so the loads run in a subprocess: a regression fails the
test instead of taking pytest down.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import api
from repro.exceptions import SimulationError
from repro.network.builders import datacenter_tree
from repro.sim import backends
from repro.sim.backends import c_build

_C_OK, _C_REASON = c_build.availability()
pytestmark = pytest.mark.skipif(not _C_OK, reason=f"c backend unavailable: {_C_REASON}")

_SRC = str(Path(repro.__file__).resolve().parent.parent)

_PROBE = textwrap.dedent("""
    from repro.analysis.experiments.workloads import identical_instance
    from repro.core.assignment import GreedyIdenticalAssignment
    from repro.network.builders import datacenter_tree
    from repro.sim import backends
    from repro.sim.backends import c_build

    inst = identical_instance(datacenter_tree(2, 2, 3), 60, seed=4)
    c = backends.simulate(inst, GreedyIdenticalAssignment(0.25), backend="c")
    py = backends.simulate(inst, GreedyIdenticalAssignment(0.25), backend="python")
    assert c == py
    assert c_build._intact(c_build.build_library())
""")


@pytest.fixture()
def fresh_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("size", [0, 1000])
def test_truncated_library_is_rebuilt(fresh_cache, size):
    lib = c_build.build_library()
    with open(lib, "r+b") as fh:
        fh.truncate(size)
    path = os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert lib.stat().st_size > size


def test_unrecorded_library_is_rebuilt_once(fresh_cache, monkeypatch):
    lib = c_build.build_library()
    record = lib.with_name(lib.name + ".sha256")
    record.unlink()  # as a library cached before records existed
    compiles = []
    run = subprocess.run

    def counting_run(cmd, *args, **kwargs):
        if "-o" in cmd:
            compiles.append(cmd)
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    assert c_build.build_library() == lib
    assert c_build.build_library() == lib
    assert len(compiles) == 1
    assert record.read_text() == c_build._file_digest(lib)


@pytest.fixture()
def reprobe():
    """Forget the availability verdict before and after the test, so it
    neither reads nor leaves one made under another environment."""
    c_build._reset_probe()
    yield
    c_build._reset_probe()


_INSTANCE = api.make_instance(tree=datacenter_tree(2, 2, 3), n_jobs=40, seed=4)


def _simulate(backend=None):
    return api.simulate(instance=_INSTANCE, policy="greedy", backend=backend)


@pytest.fixture()
def unusable_cache(monkeypatch, tmp_path, reprobe):
    # Root may write a read-only directory, so the probe is a cache
    # directory below a regular file, which nobody can create.
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache = blocker / "ckernel"
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(cache))
    return cache


def test_unusable_cache_env_selection_warns_and_runs_python(unusable_cache, monkeypatch):
    ok, reason = c_build.availability()
    assert not ok
    assert str(unusable_cache) in reason
    monkeypatch.setenv(backends.ENV_VAR, "c")
    with pytest.warns(RuntimeWarning, match="falling back to the python engine"):
        result = _simulate()
    assert result == _simulate("python")


def test_unusable_cache_explicit_request_names_the_path(unusable_cache):
    with pytest.raises(SimulationError, match=re.escape(str(unusable_cache))):
        _simulate("c")


def test_compiler_removed_after_a_build(fresh_cache, monkeypatch, tmp_path, reprobe):
    # Kept as decided: the cache slot is keyed by the compiler's
    # identity, so with no compiler no slot, and no cached library, can
    # be named.
    lib = c_build.build_library()
    empty = tmp_path / "no-compiler"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.delenv("REPRO_CC", raising=False)
    c_build._reset_probe()
    ok, reason = c_build.availability()
    assert not ok
    assert reason.startswith("no C compiler found")
    assert c_build._intact(lib)  # the library is still cached
    monkeypatch.setenv(backends.ENV_VAR, "c")
    with pytest.warns(RuntimeWarning, match="falling back to the python engine"):
        result = _simulate()
    assert result == _simulate("python")
