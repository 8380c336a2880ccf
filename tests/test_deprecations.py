"""The deprecation *removals*: every legacy call form that spent its
one-release compatibility window is now gone, and the modern surface is
warning-free.  Each test here is the flipped form of the old shim test —
where the shim suite asserted "warns and still works", this suite
asserts "raises / absent" so a shim cannot quietly come back."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import api
from repro.exceptions import SimulationError
from repro.sim.engine import simulate
from repro.sim.speed import SpeedProfile


def _instance():
    return api.make_instance(n_jobs=8, seed=2)


def _policy():
    from repro.core.assignment import GreedyIdenticalAssignment

    return GreedyIdenticalAssignment(0.5)


class TestTopLevelSimulateRemoved:
    """``repro.simulate`` (the lazy ``__getattr__`` alias) is gone; the
    blessed entry points are ``repro.api.simulate`` and
    ``repro.sim.simulate``."""

    def test_attribute_access_raises(self):
        with pytest.raises(AttributeError):
            repro.simulate

    def test_not_listed_in_all(self):
        assert "simulate" not in repro.__all__

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_api

    def test_replacements_importable(self):
        from repro.sim import simulate as sim_simulate

        assert sim_simulate is simulate
        assert callable(api.simulate)


class TestPositionalSpeedsRemoved:
    """``simulate(instance, policy, speeds_profile)`` is now a
    TypeError; every option is keyword-only."""

    def test_positional_speeds_rejected(self):
        with pytest.raises(TypeError):
            simulate(_instance(), _policy(), SpeedProfile.uniform(1.5))

    def test_keyword_form_works_and_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = simulate(
                _instance(), _policy(), speeds=SpeedProfile.uniform(1.5)
            )
        assert result.records


class TestPositionalRunnerParamsRemoved:
    """``run_experiments(ids, params)`` is now a TypeError;
    ``params_by_id`` is keyword-only."""

    def test_positional_params_rejected(self, tmp_path):
        from repro.analysis.runner import run_experiments

        with pytest.raises(TypeError):
            run_experiments(["F1"], {}, cache_dir=tmp_path)

    def test_keyword_form_works(self, tmp_path):
        from repro.analysis.runner import run_experiments
        from tests.test_experiments import QUICK_PARAMS

        params = {"F1": QUICK_PARAMS.get("F1", {})}
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            out = run_experiments(["F1"], params_by_id=params, cache_dir=tmp_path)
        assert out and out[0].key


class TestEventLogRemoved:
    """The observer-side ``EventLog`` recorder is gone; structured
    traces come from :mod:`repro.obs` (``sink=`` / ``api.trace_run``)."""

    def test_import_raises(self):
        with pytest.raises(ImportError):
            from repro.sim.events import EventLog  # noqa: F401

    def test_absent_from_sim_package(self):
        import repro.sim as sim

        assert not hasattr(sim, "EventLog")
        assert "EventLog" not in sim.__all__

    def test_absent_from_module_and_all(self):
        # The whole repro.sim.events module went, its unused
        # EventKind/TraceEvent vocabulary with it.
        import repro.sim as sim

        with pytest.raises(ImportError):
            import repro.sim.events  # noqa: F401
        assert not {"EventLog", "EventKind", "TraceEvent"} & set(sim.__all__)
        assert not hasattr(sim, "EventKind") and not hasattr(sim, "TraceEvent")

    def test_timeline_vocabulary_survives(self):
        # The typed-event record lives on in repro.obs, the one
        # TraceEvent a trace carries.
        from repro.obs.trace import TraceEvent

        ev = TraceEvent("cancel", 0.0, node=1, job_id=0)
        assert (ev.kind, ev.node, ev.job_id) == ("cancel", 1, 0)

    def test_replacement_covers_the_use_case(self):
        result = api.trace_run(instance=_instance())
        done = {p.job_id for p in result.trace.points_of("finish")}
        assert done == set(result.records)


class TestCollectCountersRenameRemoved:
    """``api.simulate(collect_counters=...)`` and
    ``api.trace_run(collect_counters=...)`` spent their one-release
    window; the old spelling is now a ``TypeError`` and ``counters=``
    is the only name.  ``api.run_experiments(collect_counters=...)`` was
    never part of the rename and stays."""

    def test_simulate_old_name_rejected(self):
        with pytest.raises(TypeError):
            api.simulate(instance=_instance(), collect_counters=True)

    def test_trace_run_old_name_rejected(self):
        with pytest.raises(TypeError):
            api.trace_run(instance=_instance(), collect_counters=True)

    def test_new_name_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = api.simulate(instance=_instance(), counters=True)
            traced = api.trace_run(instance=_instance(), counters=True)
        assert result.counters is not None
        assert traced.counters is not None and traced.trace is not None

    def test_run_experiments_keeps_collect_counters(self, tmp_path):
        out = api.run_experiments(
            exp_ids=["F1"], cache_dir=tmp_path, collect_counters=True
        )
        assert out and out[0].counters is not None


class TestHookKeywordsRemoved:
    """The engine's five hook channels collapsed into one ``sink=``
    (:class:`~repro.sim.engine.EngineSink`) with no alias: each old
    keyword is a ``TypeError`` wherever it was accepted."""

    @pytest.mark.parametrize(
        "name", ["observer", "tracer", "on_admit", "on_finish", "on_cancel"]
    )
    def test_engine_rejects(self, name):
        from repro.sim.engine import Engine

        with pytest.raises(TypeError):
            Engine(_instance(), _policy(), **{name: None})

    @pytest.mark.parametrize("name", ["observer", "tracer"])
    def test_sim_simulate_rejects(self, name):
        with pytest.raises(TypeError):
            simulate(_instance(), _policy(), **{name: None})

    def test_api_simulate_rejects_tracer(self):
        from repro.obs import TraceRecorder

        with pytest.raises(TypeError):
            api.simulate(instance=_instance(), tracer=TraceRecorder())


class TestNumpyBackendRemoved:
    """The ``"numpy"`` backend is gone with no alias: every way of
    naming it fails as an unknown backend (``"c"`` is the fast engine,
    ``"python"`` the reference)."""

    def test_keyword_rejected(self):
        with pytest.raises(SimulationError, match="unknown backend 'numpy'"):
            api.simulate(instance=_instance(), backend="numpy")

    def test_environment_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        with pytest.raises(SimulationError, match="unknown backend 'numpy'"):
            api.simulate(instance=_instance())

    def test_cli_flag_rejected(self, capsys):
        from repro.cli import main

        for command in ("run", "serve"):
            with pytest.raises(SystemExit):
                main([command, "--backend", "numpy"])
            assert "invalid choice: 'numpy'" in capsys.readouterr().err

    def test_not_listed(self):
        from repro.sim import backends

        assert "numpy" not in backends.BACKENDS
        assert not any("numpy" in name.lower() for name in backends.__all__)


class TestPreGridPathRemoved:
    """The runner schedules, caches and registers trial grids only: the
    whole-experiment path (``shard_trials=`` / ``--no-shard``) is gone
    with no alias, and so are the pre-grid helpers no experiment, CLI
    command or API function called (``repro.analysis.sweeps``,
    ``replicate``, ``compare``) and the ``simulate_c`` wrapper
    (``repro.sim.backends.simulate(backend="c")`` decides c or python)."""

    def test_runner_rejects_shard_trials(self, tmp_path):
        from repro.analysis.runner import run_experiments

        with pytest.raises(TypeError):
            run_experiments(["F1"], cache_dir=tmp_path, shard_trials=False)

    def test_api_rejects_shard_trials(self, tmp_path):
        with pytest.raises(TypeError):
            api.run_experiments(exp_ids=["F1"], cache_dir=tmp_path, shard_trials=True)

    def test_cli_flag_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["experiments", "F1", "--no-shard"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-shard" in capsys.readouterr().err

    def test_sweeps_module_import_raises(self):
        with pytest.raises(ImportError):
            import repro.analysis.sweeps  # noqa: F401

    def test_helpers_absent(self):
        import repro.analysis as analysis
        from repro.analysis import stats
        from repro.sim import backends
        from repro.sim.backends import c_backend

        for name in ("speed_sweep", "run_policy_grid", "replicate", "compare"):
            assert not hasattr(analysis, name) and name not in analysis.__all__
        assert not {"replicate", "compare"} & set(dir(stats))
        for module in (backends, c_backend):
            assert not hasattr(module, "simulate_c")
            assert "simulate_c" not in module.__all__


class TestDeadHelpersRemoved:
    """Helpers nothing called are gone with no alias:
    ``repro.sim.metrics.flow_time_array`` (``result.flow_times()`` is
    the same array), ``repro.lp.bounds.stretch_lower_bounds``,
    ``SchedulerView.active_at`` / ``live_remaining`` and
    ``TraceRecorder.record_count``."""

    def test_flow_time_array_absent(self):
        from repro.sim import metrics

        assert not hasattr(metrics, "flow_time_array")
        assert "flow_time_array" not in metrics.__all__
        result = simulate(_instance(), _policy())
        assert result.flow_times().shape == (len(result.records),)

    def test_stretch_lower_bounds_absent(self):
        import repro.lp as lp
        from repro.lp import bounds

        assert not hasattr(bounds, "stretch_lower_bounds")
        assert "stretch_lower_bounds" not in bounds.__all__
        assert not hasattr(lp, "stretch_lower_bounds")

    def test_view_active_at_and_live_remaining_absent(self):
        from repro.sim.engine import Engine, SchedulerView

        assert not hasattr(SchedulerView, "active_at")
        assert not hasattr(SchedulerView, "live_remaining")
        # ``is_down`` stays: docs/dynamic-events.md documents it.
        view = Engine(_instance(), _policy()).view
        assert view.is_down(min(view.tree.leaves)) is False

    def test_trace_recorder_record_count_absent(self):
        from repro.obs.trace import TraceRecorder

        assert not hasattr(TraceRecorder, "record_count")

    def test_trace_recorder_cumulative_busy_absent(self):
        from repro.obs.trace import TraceRecorder

        assert not hasattr(TraceRecorder, "cumulative_busy")


class TestSessionEvictRemoved:
    """``open_system(evict=...)`` / ``StreamSession(evict=...)`` are
    gone: a session always evicts ended jobs, and ``api.simulate`` is
    the batch-parity path."""

    @pytest.mark.parametrize("evict", [True, False])
    def test_open_system_rejects(self, evict):
        with pytest.raises(TypeError):
            api.open_system(instance=_instance(), evict=evict)

    def test_session_rejects(self):
        from repro.service import StreamSession

        inst = _instance()
        with pytest.raises(TypeError):
            StreamSession(instance=inst, arrivals=inst.jobs, policy=_policy(),
                          evict=False)


def test_modern_surface_is_warning_free(tmp_path):
    """The blessed call forms never trip a DeprecationWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        inst = api.make_instance(n_jobs=6, seed=1)
        api.simulate(instance=inst)
        api.trace_run(instance=inst)
        api.open_system(instance=inst).drain()
        api.run_experiments(exp_ids=["F1"], cache_dir=tmp_path)


def test_fuzz_surface_is_warning_free(tmp_path):
    # The fuzzing subsystem never leaned on a deprecated call form, so
    # it survived the shim removal unchanged.
    from repro.testing import run_fuzz

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        summary = run_fuzz(seed=3, max_cases=20, corpus_dir=tmp_path / "corpus")
    assert summary.cases_run == 20
    assert summary.ok
