"""Property tests for the tracing layer.

Hypothesis drives random trees and job sets through a traced engine run
and checks the recorder's accounting identities against the engine's
own ground truth:

* tracing never perturbs the schedule;
* ``counters.trace_records`` equals the built trace's length and the
  arrival points equal ``counters.arrivals``;
* service spans are exactly the ``record_segments`` segments;
* per-node gauge ``busy_s`` windows integrate to the node's total
  service time — the exactness claim in :class:`repro.obs.GaugeSample`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.assignment import GreedyIdenticalAssignment
from repro.obs.trace import TraceConfig, TraceRecorder
from repro.sim.engine import simulate
from repro.workload.instance import Instance, Setting

from tests.test_properties import jobs_strategy, tree_strategy


def traced_run(tree, jobs, gauge_interval=None):
    instance = Instance(tree, jobs, Setting.IDENTICAL)
    recorder = TraceRecorder(TraceConfig(gauge_interval=gauge_interval))
    result = simulate(
        instance,
        GreedyIdenticalAssignment(0.5),
        record_segments=True,
        collect_counters=True,
        sink=recorder,
    )
    return instance, result


@settings(max_examples=25, deadline=None)
@given(tree=tree_strategy(), jobs=jobs_strategy(max_jobs=8))
def test_tracing_is_pure_observation(tree, jobs):
    instance = Instance(tree, jobs, Setting.IDENTICAL)
    plain = simulate(instance, GreedyIdenticalAssignment(0.5))
    _, traced = traced_run(tree, jobs, gauge_interval=0.5)
    assert traced.total_flow_time() == plain.total_flow_time()
    for jid, rec in plain.records.items():
        assert traced.records[jid].completion == rec.completion
        assert traced.records[jid].leaf == rec.leaf


@settings(max_examples=25, deadline=None)
@given(tree=tree_strategy(), jobs=jobs_strategy(max_jobs=8))
def test_counters_account_for_every_trace_record(tree, jobs):
    _, result = traced_run(tree, jobs, gauge_interval=0.5)
    trace = result.trace
    assert result.counters.trace_records == len(trace)
    assert len(trace.points_of("arrival")) == result.counters.arrivals
    assert len(trace.points_of("finish")) == len(result.records)


@settings(max_examples=25, deadline=None)
@given(tree=tree_strategy(), jobs=jobs_strategy(max_jobs=8))
def test_service_spans_are_the_segments(tree, jobs):
    _, result = traced_run(tree, jobs)
    got = sorted(
        (s.node, s.job_id, s.start, s.end)
        for s in result.trace.spans_of("service")
    )
    want = sorted(
        (seg.node, seg.job_id, seg.start, seg.end) for seg in result.segments
    )
    assert got == want


@settings(max_examples=25, deadline=None)
@given(tree=tree_strategy(), jobs=jobs_strategy(max_jobs=8))
def test_gauges_integrate_to_engine_totals(tree, jobs):
    """Summing the windowed ``busy_s`` samples per node reproduces that
    node's total service time, and summing across nodes reproduces the
    total processing the engine performed (EngineCounters meters the
    same run, so the identity ties gauges to the counter subsystem)."""
    _, result = traced_run(tree, jobs, gauge_interval=0.25)
    trace = result.trace
    assert result.counters.events_processed > 0
    total_service = sum(s.duration for s in trace.spans_of("service"))
    sampled_nodes = {g.node for g in trace.gauges}
    integrated_total = 0.0
    for v in sampled_nodes:
        integrated = sum(g.busy_s for g in trace.gauges_for(v))
        assert integrated == pytest.approx(
            trace.node_busy_s(v), rel=1e-9, abs=1e-9
        )
        integrated_total += integrated
    # gauges sample every non-root node, so the per-node identities sum
    # to the engine-wide service total
    assert integrated_total == pytest.approx(
        total_service, rel=1e-9, abs=1e-9
    )
    # gauge times never exceed the final time and windows are ordered
    final = trace.meta["final_time"]
    for v in sampled_nodes:
        times = [g.time for g in trace.gauges_for(v)]
        assert times == sorted(times)
        assert all(t <= final + 1e-12 for t in times)
