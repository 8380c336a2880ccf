"""Unit tests for the structured trace recorder (``repro.obs.trace``).

The recorder must be a pure observer: a traced run and an untraced run
of the same instance produce identical schedules.  Its records must
agree with the engine's own ground truth — service spans with
``record_segments`` segments, points with the completion records, and
gauge busy time with total service performed.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core.assignment import FixedAssignment
from repro.exceptions import SimulationError
from repro.network.builders import star_of_paths
from repro.obs.trace import (
    POINT_KINDS,
    SPAN_KINDS,
    SimulationTrace,
    TraceConfig,
    TraceRecorder,
)
from repro.sim.engine import simulate
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


def make_instance(n=20, seed=5):
    return api.make_instance(n_jobs=n, load=0.9, seed=seed)


def traced(instance, **config):
    recorder = TraceRecorder(TraceConfig(**config))
    result = simulate(
        instance,
        _policy(instance),
        record_segments=True,
        sink=recorder,
    )
    return result


def _policy(instance):
    from repro.core.assignment import GreedyIdenticalAssignment

    return GreedyIdenticalAssignment(0.5)


class TestConfig:
    def test_rejects_nonpositive_interval(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="gauge_interval"):
                TraceConfig(gauge_interval=bad)

    def test_recorder_config_kwargs_exclusive(self):
        with pytest.raises(TypeError, match="not both"):
            TraceRecorder(TraceConfig(), record_points=False)

    def test_recorder_kwargs_shorthand(self):
        rec = TraceRecorder(gauge_interval=2.0, record_spans=False)
        assert rec.config.gauge_interval == 2.0
        assert not rec.config.record_spans


class TestObserverPurity:
    def test_traced_run_matches_untraced(self):
        inst = make_instance()
        plain = simulate(inst, _policy(inst))
        with_trace = traced(inst, gauge_interval=1.0)
        assert with_trace.total_flow_time() == plain.total_flow_time()
        assert with_trace.fractional_flow == plain.fractional_flow
        for jid, rec in plain.records.items():
            other = with_trace.records[jid]
            assert (other.completion, other.leaf) == (rec.completion, rec.leaf)

    def test_recorder_single_use(self):
        inst = make_instance(n=5)
        rec = TraceRecorder()
        simulate(inst, _policy(inst), sink=rec)
        with pytest.raises(SimulationError, match="one Engine run"):
            simulate(inst, _policy(inst), sink=rec)

    def test_unknown_gauge_nodes_rejected(self):
        inst = make_instance(n=5)
        rec = TraceRecorder(TraceConfig(gauge_interval=1.0, gauge_nodes=(9999,)))
        with pytest.raises(SimulationError, match="unknown node ids"):
            simulate(inst, _policy(inst), sink=rec)


class TestPoints:
    def test_lifecycle_counts(self):
        inst = make_instance()
        trace = traced(inst).trace
        n = len(inst.jobs)
        assert len(trace.points_of("arrival")) == n
        assert len(trace.points_of("finish")) == n
        # every job crosses at least one node, and completes every hop
        assert len(trace.points_of("available")) >= n
        assert len(trace.points_of("hop_complete")) == len(
            trace.points_of("available")
        )

    def test_points_sorted_and_kinds_valid(self):
        trace = traced(make_instance()).trace
        times = [(p.time, p.job_id) for p in trace.points]
        assert times == sorted(times)
        assert {p.kind for p in trace.points} <= set(POINT_KINDS)

    def test_arrival_and_finish_match_records(self):
        inst = make_instance()
        result = traced(inst)
        trace = result.trace
        finishes = {p.job_id: p for p in trace.points_of("finish")}
        for jid, rec in result.records.items():
            assert finishes[jid].time == pytest.approx(rec.completion)
            assert finishes[jid].node == rec.leaf
        arrivals = {p.job_id: p for p in trace.points_of("arrival")}
        for job in inst.jobs:
            assert arrivals[job.id].time == pytest.approx(job.release)


class TestSpans:
    def test_service_spans_equal_segments(self):
        result = traced(make_instance())
        got = sorted(
            (s.node, s.job_id, s.start, s.end)
            for s in result.trace.spans_of("service")
        )
        want = sorted(
            (seg.node, seg.job_id, seg.start, seg.end)
            for seg in result.segments
        )
        assert got == want

    def test_job_spans_cover_release_to_completion(self):
        result = traced(make_instance())
        jobs = {s.job_id: s for s in result.trace.spans_of("job")}
        assert set(jobs) == set(result.records)
        for jid, rec in result.records.items():
            span = jobs[jid]
            assert span.end == pytest.approx(rec.completion)
            assert span.node == rec.leaf
            assert span.duration == pytest.approx(rec.flow_time)

    def test_queue_waits_disjoint_from_service(self):
        trace = traced(make_instance()).trace
        service = {}
        for s in trace.spans_of("service"):
            service.setdefault((s.job_id, s.node), []).append(s)
        for w in trace.spans_of("queue_wait"):
            assert w.duration > 0
            for s in service.get((w.job_id, w.node), ()):
                overlap = min(w.end, s.end) - max(w.start, s.start)
                assert overlap <= 1e-9, (w, s)

    def test_spans_sorted_and_kinds_valid(self):
        trace = traced(make_instance()).trace
        starts = [s.start for s in trace.spans]
        assert starts == sorted(starts)
        assert {s.kind for s in trace.spans} <= set(SPAN_KINDS)

    def test_record_switches_trim_output(self):
        inst = make_instance(n=10)
        no_points = traced(inst, record_points=False).trace
        assert no_points.points == []
        # derived spans need points; only raw service spans remain
        assert no_points.spans_of("job") == []
        assert no_points.spans_of("queue_wait") == []
        assert no_points.spans_of("service")
        no_spans = traced(inst, record_spans=False).trace
        assert no_spans.spans_of("service") == []
        assert no_spans.spans_of("queue_wait") == []
        assert no_spans.spans_of("job")  # derived from points alone


class TestGauges:
    def test_windows_between_last_event_and_horizon_are_exact(self):
        # One job busy on node 1 through the whole horizon: every window
        # holds one second of service, none of it piled onto the first.
        inst = Instance(
            star_of_paths(1, 1),
            JobSet([Job(id=0, release=0.0, size=10.0)]),
            Setting.IDENTICAL,
        )
        rec = TraceRecorder(gauge_interval=1.0)
        result = simulate(inst, FixedAssignment({0: 2}), sink=rec, until=5.0)
        gauges = result.trace.gauges_for(1)
        assert [g.time for g in gauges] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert [g.busy_s for g in gauges] == [1.0] * 5
        assert [g.utilization for g in gauges] == [1.0] * 5

    def test_queue_volume_is_read_at_the_sample_instant(self):
        # Between events the active run keeps draining its node's queued
        # volume: a sample reads the work left at its own instant, not at
        # the last event.
        tree = api.build_tree("paths", num_paths=1, path_length=1)
        inst = Instance(
            tree, JobSet([Job(id=0, release=0.0, size=10.0)]), Setting.IDENTICAL
        )
        result = simulate(
            inst, FixedAssignment({0: tree.leaves[0]}),
            sink=TraceRecorder(gauge_interval=2.0),
        )
        gauges = [g for g in result.trace.gauges_for(1) if g.time <= 10.0]
        assert [(g.time, g.queue_volume) for g in gauges] == [
            (2.0, 8.0), (4.0, 6.0), (6.0, 4.0), (8.0, 2.0), (10.0, 0.0),
        ]
        assert [g.busy_s for g in gauges] == [2.0] * 5

    def test_busy_time_integrates_to_service_total(self):
        inst = make_instance()
        result = traced(inst, gauge_interval=1.5)
        trace = result.trace
        nodes = {g.node for g in trace.gauges}
        assert nodes  # gauges on
        for v in nodes:
            integrated = sum(g.busy_s for g in trace.gauges_for(v))
            assert integrated == pytest.approx(
                trace.node_busy_s(v), rel=1e-9, abs=1e-9
            )

    def test_sample_cadence_and_final_sample(self):
        result = traced(make_instance(), gauge_interval=2.0)
        trace = result.trace
        final = trace.meta["final_time"]
        times = sorted({g.time for g in trace.gauges})
        assert times[-1] == pytest.approx(final)
        for t in times[:-1]:
            assert t == pytest.approx(2.0 * round(t / 2.0))

    def test_gauge_nodes_filter(self):
        inst = make_instance(n=10)
        all_nodes = traced(inst, gauge_interval=1.0).trace
        some = sorted({g.node for g in all_nodes.gauges})[:2]
        rec = TraceRecorder(
            TraceConfig(gauge_interval=1.0, gauge_nodes=tuple(some))
        )
        result = simulate(inst, _policy(inst), sink=rec)
        assert sorted({g.node for g in result.trace.gauges}) == some

    def test_utilization_bounded(self):
        trace = traced(make_instance(), gauge_interval=1.0).trace
        for g in trace.gauges:
            assert 0.0 <= g.utilization <= 1.0 + 1e-9
            assert g.queue_depth >= 0
            assert g.queue_volume >= 0.0
            assert g.through_count >= 0

    def test_gauges_off_by_default(self):
        trace = traced(make_instance(n=10)).trace
        assert trace.gauges == []


class TestAssembly:
    def test_meta_fields(self):
        inst = make_instance()
        trace = traced(inst, gauge_interval=1.0).trace
        assert trace.meta["instance"] == inst.name
        assert trace.meta["jobs"] == len(inst.jobs)
        assert trace.meta["nodes"] > 0
        assert trace.meta["gauge_interval"] == 1.0
        assert trace.meta["final_time"] > 0

    def test_len_counts_all_records(self):
        trace = traced(make_instance(), gauge_interval=1.0).trace
        assert len(trace) == len(trace.points) + len(trace.spans) + len(
            trace.gauges
        )

    def test_build_idempotent(self):
        inst = make_instance(n=5)
        rec = TraceRecorder()
        result = simulate(inst, _policy(inst), sink=rec)
        assert rec.build(0.0) is result.trace  # same object, args ignored

    def test_counters_count_trace_records(self):
        inst = make_instance()
        rec = TraceRecorder(TraceConfig(gauge_interval=1.0))
        result = simulate(
            inst, _policy(inst), collect_counters=True, sink=rec
        )
        assert result.counters.trace_records == len(result.trace)
        plain = simulate(inst, _policy(inst), collect_counters=True)
        assert plain.counters.trace_records == 0

    def test_queries(self):
        trace = traced(make_instance(), gauge_interval=1.0).trace
        jid = trace.points[0].job_id
        assert all(s.job_id == jid for s in trace.spans_for_job(jid))
        assert isinstance(trace, SimulationTrace)
