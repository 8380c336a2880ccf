"""The unified backend resolver: one precedence rule (kwarg > env >
default) and one availability policy for every entry point."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import repro
from repro.exceptions import SimulationError
from repro.sim.backends import (
    BACKENDS,
    ENV_VAR,
    BackendChoice,
    backend_available,
    select_backend,
)


class TestPrecedence:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        choice = select_backend()
        assert choice == BackendChoice(None, "default", "python")

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "python")
        choice = select_backend()
        assert choice.source == "env"
        assert choice.effective == "python"
        assert choice.fallback_reason is None

    def test_kwarg_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "c")
        choice = select_backend("python")
        assert choice.source == "kwarg"
        assert choice.effective == "python"
        assert choice.requested == "python"

    def test_empty_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert select_backend().source == "default"


class TestValidationAndAvailability:
    def test_unknown_name_raises_from_any_source(self, monkeypatch):
        with pytest.raises(SimulationError):
            select_backend("fortran")
        monkeypatch.setenv(ENV_VAR, "fortran")
        with pytest.raises(SimulationError):
            select_backend()

    @pytest.fixture()
    def no_compiler(self, monkeypatch):
        from repro.sim.backends import c_build

        monkeypatch.setattr(c_build, "find_compiler", lambda: None)
        c_build._reset_probe()
        yield
        c_build._reset_probe()  # forget the "unavailable" verdict

    def test_explicit_unavailable_backend_raises(self, no_compiler):
        with pytest.raises(SimulationError, match="unavailable"):
            select_backend("c")

    def test_env_unavailable_backend_warns_and_falls_back(
        self, no_compiler, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "c")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            choice = select_backend()
        assert choice.effective == "python"
        assert choice.source == "env"
        assert choice.fallback_reason
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)


class TestSharedByEntryPoints:
    """Both blessed call surfaces honour the same resolution."""

    def test_backends_simulate_reads_env(self, monkeypatch):
        from repro import api

        inst = api.make_instance(n_jobs=20, seed=7)
        monkeypatch.delenv(ENV_VAR, raising=False)
        ref = api.simulate(instance=inst, policy="greedy")
        monkeypatch.setenv(ENV_VAR, "c")
        via_env = api.simulate(instance=inst, policy="greedy")
        for jid, rec in ref.records.items():
            assert via_env.records[jid].completion == rec.completion

    def test_open_system_resolves_through_same_resolver(self, monkeypatch):
        from repro import api

        inst = api.make_instance(n_jobs=10, seed=7)
        monkeypatch.setenv(ENV_VAR, "fortran")
        with pytest.raises(SimulationError):
            api.open_system(instance=inst)

    def test_all_backends_enumerated(self):
        assert BACKENDS == ("python", "c")
        assert backend_available("python") == (True, None)
        with pytest.raises(SimulationError):
            backend_available("fortran")



class TestCBackendImport:
    """The compiled backend's module is imported only where ``c`` is
    selected."""

    def test_python_run_does_not_import_it(self):
        code = textwrap.dedent("""
            import sys
            from repro.core.assignment import GreedyIdenticalAssignment
            from repro.network.builders import kary_tree
            from repro.sim import backends
            from repro.workload.instance import Instance, Setting
            from repro.workload.job import JobSet

            jobs = JobSet.build([0.0, 0.5, 1.0], [1.0, 2.0, 1.5])
            inst = Instance(kary_tree(2, 3), jobs, Setting.IDENTICAL)
            backends.simulate(inst, GreedyIdenticalAssignment(0.25), backend="python")
            assert "repro.sim.backends.c_backend" not in sys.modules
            assert backends.CEngine.__module__ == "repro.sim.backends.c_backend"
        """)
        src = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
