"""The open-system :class:`StreamSession`: batch parity, windowing,
bounded state under eviction, and the facade's resolution/error paths."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import api
from repro.core.assignment import FixedAssignment
from repro.exceptions import SimulationError
from repro.network.builders import star_of_paths
from repro.obs.trace import TraceRecorder
from repro.service import StreamSession
from repro.sim.backends import available_backends
from repro.workload.arrivals import job_stream, poisson_process, uniform_size_stream
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


def _instance(n_jobs=200, seed=11, **kw):
    return api.make_instance(n_jobs=n_jobs, load=0.95, seed=seed, **kw)


class TestBatchParity:
    @pytest.mark.parametrize("backend", available_backends())
    def test_finite_stream_bit_identical_to_batch(self, backend):
        """A finite stream through the session completes every job at
        *exactly* the batch ``simulate()`` time, on every backend
        (backends are fuzz-pinned bit-identical to each other)."""
        inst = _instance()
        batch = api.simulate(instance=inst, policy="greedy", backend=backend)
        done: dict[int, float] = {}
        sess = api.open_system(
            instance=inst,
            policy="greedy",
            window=5.0,
            on_finish=lambda r: done.__setitem__(r.job_id, r.completion),
        )
        sess.drain()
        assert len(done) == len(inst.jobs)
        for jid, rec in batch.records.items():
            assert done[jid] == rec.completion  # bit-exact, no approx

    def test_step_slicing_does_not_change_the_schedule(self):
        """Stepping in arbitrary slices is bit-identical to draining in
        window-sized steps — the loop is re-enterable at any time."""
        inst = _instance(seed=5)
        ref: dict[int, float] = {}
        s1 = api.open_system(
            instance=inst, window=7.0,
            on_finish=lambda r: ref.__setitem__(r.job_id, r.completion),
        )
        s1.drain()
        got: dict[int, float] = {}
        s2 = api.open_system(
            instance=inst, window=7.0,
            on_finish=lambda r: got.__setitem__(r.job_id, r.completion),
        )
        t = 0.0
        while not s2.idle():
            t += 3.3  # deliberately incommensurate with the window
            s2.step(until=t)
        assert got == ref

    def test_drained_evicting_session_integrals_match_batch(self):
        """Evicted jobs fold their integral terms in completion order,
        the batch run sums them in arrival order: the same terms, so
        the totals agree to rounding."""
        inst = _instance(n_jobs=600, seed=4)
        batch = api.simulate(instance=inst, policy="greedy")
        sess = api.open_system(instance=inst, policy="greedy")
        sess.drain()
        result = sess.close()
        assert len(result.records) == 0
        for name in ("fractional_flow", "alive_integral"):
            got, want = getattr(result, name), getattr(batch, name)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), name

    def test_unrelated_setting_parity(self):
        inst = _instance(n_jobs=60, seed=9, unrelated=True)
        batch = api.simulate(instance=inst, policy="greedy")
        done: dict[int, float] = {}
        sess = api.open_system(
            instance=inst,
            on_finish=lambda r: done.__setitem__(r.job_id, r.completion),
        )
        sess.drain()
        for jid, rec in batch.records.items():
            assert done[jid] == rec.completion


class TestWindowing:
    def test_window_counts_partition_the_run(self):
        inst = _instance(n_jobs=150, seed=2)
        sess = api.open_system(instance=inst, window=4.0, keep_windows=10_000)
        sess.drain()
        snap = sess.snapshot()
        closed = sess.windows
        assert sum(w.arrivals for w in closed) <= snap.arrivals_total
        assert snap.arrivals_total == 150
        assert snap.completions_total == 150
        assert snap.jobs_in_flight == 0
        # every closed window spans exactly one window length
        for w in closed:
            assert w.length == pytest.approx(4.0)
            assert w.end == pytest.approx((w.index + 1) * 4.0)

    def test_idle_windows_report_zero_utilization(self):
        inst = _instance(n_jobs=5, seed=1)
        sess = api.open_system(instance=inst, window=2.0, keep_windows=10_000)
        sess.drain()
        last_completion = max(
            w.end for w in sess.windows if w.completions
        )
        sess.step(until=last_completion + 10.0)
        tail = [w for w in sess.windows if w.start >= last_completion]
        assert tail, "stepping past the end must close idle windows"
        for w in tail:
            assert w.arrivals == 0 and w.completions == 0
            assert all(u == 0.0 for u in w.utilization.values())

    def test_busy_windows_without_events_are_exact(self):
        # One long job keeps node 1 busy through windows in which no
        # event happens; each window still closes on its own sample.
        inst = Instance(
            star_of_paths(1, 1),
            JobSet([Job(id=0, release=0.0, size=10.0)]),
            Setting.IDENTICAL,
        )
        sess = api.open_system(
            instance=inst, policy=FixedAssignment({0: 2}), window=1.0
        )
        sess.step(until=5.0)
        assert [w.utilization[1] for w in sess.windows] == [1.0] * 5

    def test_utilization_bounded_and_busy_where_expected(self):
        inst = _instance(n_jobs=200, seed=4)
        sess = api.open_system(instance=inst, window=5.0)
        sess.step()
        sess.step()
        for w in sess.windows:
            for u in w.utilization.values():
                assert 0.0 <= u <= 1.0 + 1e-9
        snap = sess.snapshot()
        assert any(u > 0.0 for u in snap.utilization.values())

    def test_keep_windows_bounds_retention(self):
        inst = _instance(n_jobs=300, seed=6)
        sess = api.open_system(instance=inst, window=2.0, keep_windows=4)
        sess.drain()
        assert len(sess.windows) == 4
        assert sess.last_window is sess.windows[-1]
        # retained windows are the most recent, contiguous, oldest first
        idxs = [w.index for w in sess.windows]
        assert idxs == sorted(idxs)
        assert idxs[-1] == sess.snapshot().windows_closed - 1

    def test_infinite_source_streams_with_bounded_inflight(self):
        tree = api.build_tree("kary", branching=2, depth=2)
        jobs = job_stream(
            poisson_process(1.0, np.random.default_rng(8)),
            uniform_size_stream(rng=np.random.default_rng(9)),
        )
        sess = api.open_system(tree=tree, arrivals=jobs, window=10.0)
        sess.step(until=200.0)
        snap = sess.snapshot()
        assert snap.windows_closed == 20
        assert snap.arrivals_total > 100
        assert snap.completions_total > 0
        assert not sess.idle()  # the source never exhausts


class TestLifecycleAndErrors:
    def test_close_is_idempotent_and_freezes_the_session(self):
        inst = _instance(n_jobs=30)
        sess = api.open_system(instance=inst)
        sess.drain()
        result = sess.close()
        assert sess.close() is result
        assert sess.closed
        with pytest.raises(SimulationError):
            sess.step()

    def test_close_reports_retirement(self):
        inst = _instance(n_jobs=120, seed=13)
        sess = api.open_system(instance=inst, window=3.0)
        sess.drain()
        result = sess.close()
        # finished jobs were evicted; the trace records what was retired
        assert not result.records
        assert result.trace.meta["retired"]["gauges"] > 0

    def test_step_backwards_rejected(self):
        sess = api.open_system(instance=_instance(n_jobs=20))
        sess.step(until=30.0)
        with pytest.raises(SimulationError):
            sess.step(until=1.0)

    def test_bad_window_rejected(self):
        inst = _instance(n_jobs=5)
        with pytest.raises(SimulationError):
            api.open_system(instance=inst, window=0.0)
        with pytest.raises(SimulationError):
            api.open_system(instance=inst, keep_windows=0)

    def test_context_argument_validation(self):
        inst = _instance(n_jobs=5)
        tree = api.build_tree("kary", branching=2, depth=2)
        with pytest.raises(SimulationError):
            api.open_system()  # no context at all
        with pytest.raises(SimulationError):
            api.open_system(instance=inst, tree=tree)  # both
        with pytest.raises(SimulationError):
            api.open_system(tree=tree)  # bare tree needs arrivals
        with pytest.raises(SimulationError):
            api.open_system(instance=inst, speed=2.0,
                            speeds=repro.SpeedProfile.uniform(2.0))

    def test_keyword_only_surface(self):
        with pytest.raises(TypeError):
            api.open_system(_instance(n_jobs=5))  # positional rejected

    @pytest.mark.skipif(
        "c" not in available_backends(), reason="c backend unavailable"
    )
    def test_declined_c_session_warns_with_the_reason(self):
        inst = _instance(n_jobs=10)
        with pytest.warns(RuntimeWarning, match="record_points"):
            sess = api.open_system(instance=inst, backend="c", record_points=True)
        assert sess.backend == "python"
        sess.drain()
        assert sess.snapshot().completions_total == 10

    def test_session_constructor_is_the_facade_return_type(self):
        sess = api.open_system(instance=_instance(n_jobs=5))
        assert isinstance(sess, StreamSession)

    def test_python_session_attaches_no_sink_unless_tracing(self):
        inst = _instance(n_jobs=5)
        assert api.open_system(instance=inst)._engine._sink is None
        for switch in ("record_points", "record_spans"):
            traced = api.open_system(instance=inst, **{switch: True})
            assert isinstance(traced._engine._sink, TraceRecorder)


class CallbackBroke(RuntimeError):
    pass


class TestRaisingCallback:
    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_raising_on_finish_fails_the_session(self, backend):
        if backend not in available_backends():
            pytest.skip("c backend unavailable")
        calls = []

        def on_finish(record):
            calls.append(record.job_id)
            raise CallbackBroke("on_finish broke")

        sess = api.open_system(
            instance=_instance(), policy="greedy", window=50.0,
            backend=backend, on_finish=on_finish,
        )
        assert sess.backend == backend
        with pytest.raises(CallbackBroke):
            sess.drain()
        for call in (sess.step, sess.drain, sess.idle):
            with pytest.raises(SimulationError, match="callback raised") as info:
                call()
            assert isinstance(info.value.__cause__, CallbackBroke)
        snap = sess.snapshot()
        # The failing step's later callbacks are dropped, but all of its
        # completions stay folded into the counts and histograms.
        assert len(calls) == 1
        assert snap.completions_total > 1
        assert snap.flow["count"] == snap.completions_total
        assert snap.arrivals_total == (
            snap.completions_total + snap.cancelled_total + snap.jobs_in_flight
        )
        result = sess.close()
        assert len(result.records) == snap.jobs_in_flight
        assert sess.close() is result
