"""The backend registry: selection, dispatch, fallback, and
cross-backend parity on a realistic workload.

The bit-level schedule equivalence of the compiled kernel is enforced
case-by-case by the differential fuzzer (``repro fuzz --backends``) and
by the engine suites, which run on both backends; this module covers the
*dispatch* layer (``repro.sim.backends.simulate`` / ``repro.api``) and
one seeded end-to-end parity check on the S1 benchmark workload.
"""

from __future__ import annotations

import ctypes
import subprocess
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api
from repro.analysis.experiments.workloads import identical_instance
from repro.core.assignment import GreedyIdenticalAssignment
from repro.exceptions import SimulationError
from repro.network.builders import datacenter_tree
from repro.sim import backends, engine
from repro.sim.backends import c_build
from repro.sim.backends.c_backend import CEngine
from repro.sim.counters import disable_global_counters, enable_global_counters
from repro.sim.speed import SpeedProfile

_C_OK, _C_REASON = c_build.availability()
needs_c = pytest.mark.skipif(
    not _C_OK, reason=f"c backend unavailable: {_C_REASON}"
)


def _s1_instance(n=160):
    tree = datacenter_tree(3, 3, 4)
    return identical_instance(tree, n, load=0.85, seed=12)


def _run(backend, **kwargs):
    return backends.simulate(
        _s1_instance(),
        GreedyIdenticalAssignment(0.25),
        backend=backend,
        speeds=SpeedProfile.uniform(1.5),
        **kwargs,
    )


@needs_c
class TestCrossBackendParity:
    def test_s1_schedules_identical(self):
        a = _run("python")
        b = _run("c")
        assert a.records == b.records  # leaf, path, every hop: exact
        assert a.total_flow_time() == b.total_flow_time()

    def test_api_facade_backend_keyword(self):
        inst = _s1_instance(60)
        a = api.simulate(instance=inst, policy="greedy", eps=0.25, backend="python")
        b = api.simulate(instance=inst, policy="greedy", eps=0.25, backend="c")
        assert a.records == b.records


@needs_c
class TestResultAssembly:
    def test_kernel_output_short_of_a_leaf_raises(self):
        # Result assembly checks completeness from the output columns:
        # a job the kernel left short of its leaf is an error.
        eng = CEngine(_s1_instance(20), GreedyIdenticalAssignment(0.25))
        kernel_run = eng._dll.repro_run

        def truncating_run(args_ref):
            status = kernel_run(args_ref)
            comp_cnt = ctypes.cast(
                args_ref._obj.out_comp_cnt, ctypes.POINTER(ctypes.c_int32)
            )
            comp_cnt[3] = 1
            return status

        eng._dll = SimpleNamespace(repro_run=truncating_run)
        with pytest.raises(SimulationError, match="jobs did not complete"):
            eng.run()


class TestSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            backends.select_backend("fortran")
        with pytest.raises(SimulationError, match="unknown backend"):
            _run("fortran")

    @needs_c
    def test_env_selects_c_end_to_end(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "c")
        a = _run(None)
        b = _run("python")
        assert {j: r.completion for j, r in a.records.items()} == {
            j: r.completion for j, r in b.records.items()
        }

    def test_backend_available_registry(self):
        assert backends.backend_available("python") == (True, None)
        ok, reason = backends.backend_available("c")
        assert ok == (reason is None)
        avail = backends.available_backends()
        assert "python" in avail
        assert ("c" in avail) == ok
        with pytest.raises(SimulationError, match="unknown backend"):
            backends.backend_available("fortran")


def _no_python_engine(*args, **kwargs):
    raise AssertionError("fell back to the python engine")


def _same_run(a, b) -> None:
    """``a`` and ``b`` agree exactly on records, summary columns and
    both integrals (``==`` on results would also compare counters)."""
    assert a.records == b.records
    for col in ("job_ids", "releases", "leaves", "completion_times", "cancel_times"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col))
    assert (a.alive_integral, a.fractional_flow) == (b.alive_integral, b.fractional_flow)


@needs_c
class TestFallback:
    """Under ``backend="c"`` a ``sink``, and calls the kernel cannot
    plan, run on the python engine; ``until`` and counters run on the
    kernel."""

    def test_sink_falls_back(self):
        seen = []

        class Arrivals(engine.EngineSink):
            def on_arrival(self, time, job_id, leaf):
                seen.append(job_id)

        result = _run("c", sink=Arrivals())
        assert seen  # the compiled kernel has no sink hooks at all
        assert len(result.records) == 160

    def test_until_runs_on_the_kernel(self, monkeypatch):
        ref = _run("python", until=80.0)
        monkeypatch.setattr(engine, "simulate", _no_python_engine)
        result = _run("c", until=80.0)
        assert 0 < len(result.records) < 160  # genuinely bounded
        assert result.unfinished_job_ids()
        _same_run(result, ref)

    def test_counters_run_on_the_kernel(self, monkeypatch):
        ref = _run("python", collect_counters=True)
        monkeypatch.setattr(engine, "simulate", _no_python_engine)
        result = _run("c", collect_counters=True)
        _same_run(result, ref)
        c = result.counters
        assert (c.runs, c.arrivals, c.dyn_events) == (1, 160, 0)
        assert c.events_processed == c.arrivals + c.completions == result.num_events
        assert c.run_seconds > 0.0
        assert c.heap_pushes == c.settle_calls == 0  # tallies the kernel lacks

    def test_global_counters_run_on_the_kernel(self, monkeypatch):
        ref = _run("python")
        monkeypatch.setattr(engine, "simulate", _no_python_engine)
        aggregate = enable_global_counters()
        try:
            result = _run("c")
        finally:
            disable_global_counters()
        _same_run(result, ref)
        assert result.counters is not None
        assert (aggregate.runs, aggregate.arrivals) == (1, 160)
        assert aggregate.events_processed == result.counters.events_processed

    def test_plain_c_call_does_not_fall_back(self, monkeypatch):
        monkeypatch.setattr(engine, "simulate", _no_python_engine)
        result = _run("c")
        assert result.counters is None
        assert len(result.records) == 160

    def test_c_record_segments_falls_back_to_python(self):
        # The kernel never records segments; backends.simulate hands the
        # call to the python engine, which does.
        result = _run("c", record_segments=True)
        ref = _run("python", record_segments=True)
        assert result.segments
        assert result.segments == ref.segments

    def test_c_inapplicable_policy_falls_back_to_python(self):
        # A policy the kernel has no native or static plan for (stateful
        # in a way it cannot replay) runs on the python engine instead.
        class Adversarial:
            def assign(self, view, job, now):
                # depends on live queue state -> not statically plannable
                return min(
                    view.tree.leaves, key=lambda v: (view.volume_through(v), v)
                )

        inst = _s1_instance(40)
        a = backends.simulate(inst, Adversarial(), backend="c")
        b = backends.simulate(inst, Adversarial(), backend="python")
        assert a.records == b.records


class TestCUnavailable:
    """Behaviour with compiler discovery disabled: explicit requests
    raise, environment selection degrades with a warning."""

    @pytest.fixture()
    def no_compiler(self, monkeypatch):
        monkeypatch.setattr(c_build, "find_compiler", lambda: None)
        c_build._reset_probe()
        yield
        c_build._reset_probe()  # forget the "unavailable" verdict

    def test_availability_reports_reason(self, no_compiler):
        ok, reason = c_build.availability()
        assert not ok
        assert "no C compiler" in reason

    def test_explicit_request_raises(self, no_compiler):
        with pytest.raises(SimulationError, match="backend 'c' is unavailable"):
            _run("c")

    def test_env_selection_warns_and_falls_back(self, no_compiler, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "c")
        with pytest.warns(RuntimeWarning, match="falling back to the python"):
            result = _run(None)
        assert len(result.records) == 160

    def test_registry_excludes_c(self, no_compiler):
        assert backends.backend_available("c")[0] is False
        assert "c" not in backends.available_backends()

    def test_no_ckernel_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        c_build._reset_probe()
        try:
            assert c_build.find_compiler() is None
            ok, _ = c_build.availability()
            assert not ok
        finally:
            c_build._reset_probe()


class TestBuildCache:
    """The compiled-library cache can never serve a stale binary: the
    slot name hashes the source text, compiler version, flags and ABI."""

    @needs_c
    def test_source_edit_forces_rebuild(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
        lib1 = c_build.build_library()
        assert lib1.exists() and lib1.parent == tmp_path
        # Same source -> same slot, no rebuild.
        assert c_build.build_library() == lib1
        # Any source edit -> different key -> fresh compile.
        edited = c_build.source_path().read_text() + "\n/* edited */\n"
        lib2 = c_build.build_library(source_text=edited)
        assert lib2 != lib1
        assert lib2.exists()

    @needs_c
    def test_warm_load_spawns_no_process(self, monkeypatch):
        # The compiler identity is memoized per command: once the kernel
        # has loaded, planning a run never runs `cc --version` again.
        c_build.load_kernel()

        def no_process(*args, **kwargs):
            raise AssertionError("spawned a process on a warm load")

        monkeypatch.setattr(subprocess, "run", no_process)
        CEngine(_s1_instance(20), GreedyIdenticalAssignment(0.25))

    @needs_c
    def test_warm_load_opens_no_file(self, monkeypatch):
        # A warm load neither re-reads nor re-hashes the source: it
        # returns the library the same environment already loaded.
        dll = c_build.load_kernel()

        def no_source():
            raise AssertionError("read the kernel source on a warm load")

        monkeypatch.setattr(c_build, "source_path", no_source)
        assert c_build.load_kernel() is dll
        CEngine(_s1_instance(20), GreedyIdenticalAssignment(0.25))

    @needs_c
    def test_disabling_after_a_warm_load_still_raises(self, monkeypatch):
        c_build.load_kernel()
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        with pytest.raises(c_build.CKernelUnavailable, match="no C compiler"):
            c_build.load_kernel()

    def test_reset_probe_forgets_compiler_identities(self, monkeypatch):
        calls = []

        def probe(cc):
            calls.append(cc)
            return "fakecc 1.0"

        monkeypatch.setattr(c_build, "_probe_compiler_version", probe)
        c_build._reset_probe()
        try:
            assert c_build.compiler_version("fakecc") == "fakecc 1.0"
            assert c_build.compiler_version("fakecc") == "fakecc 1.0"
            assert calls == ["fakecc"]
            c_build._reset_probe()
            c_build.compiler_version("fakecc")
            assert calls == ["fakecc", "fakecc"]
        finally:
            c_build._reset_probe()

    def test_cache_key_covers_all_inputs(self):
        base = c_build._cache_key("src", "gcc 1.0", ("-O2",))
        assert c_build._cache_key("src2", "gcc 1.0", ("-O2",)) != base
        assert c_build._cache_key("src", "gcc 2.0", ("-O2",)) != base
        assert c_build._cache_key("src", "gcc 1.0", ("-O3",)) != base

    @needs_c
    def test_loaded_kernel_abi_matches(self):
        dll = c_build.load_kernel()
        assert dll.repro_abi_version() == c_build.ABI_VERSION
