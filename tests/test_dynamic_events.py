"""First-class dynamic events: schedule validation, engine semantics,
down-aware assignment, size revelation, cross-backend parity, and the
aggregate-consistency property after repairs.

The deterministic chain scenario (root 0 → router 1 → leaf 2, speed 1,
identical setting) is shared with ``tests/test_stream_events.py``; see
that module's docstring for the full hand-computed timeline.  Here it is
run in batch mode, where the expected completions are job 0 at 6, job 2
at 11, job 3 at 22 (stalled through the 8–13 outage), and job 1 is
cancelled at 6.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro import api
from repro.analysis.experiments.workloads import identical_instance
from repro.baselines.policies import (
    ClosestLeafAssignment,
    LeastLoadedAssignment,
    RandomAssignment,
    RoundRobinAssignment,
)
from repro.core.assignment import GreedyIdenticalAssignment
from repro.exceptions import SimulationError, WorkloadError
from repro.network.builders import (
    caterpillar_tree,
    datacenter_tree,
    tree_from_parent_map,
)
from repro.obs.trace import TraceConfig, TraceRecorder
from repro.sim import engine
from repro.sim.backends import c_build
from repro.sim.backends.c_backend import CEngine
from repro.sim.engine import Engine, EngineSink
from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting
from repro.workload.job import JobSet


_C_OK, _C_REASON = c_build.availability()
needs_c = pytest.mark.skipif(
    not _C_OK, reason=f"c backend unavailable: {_C_REASON}"
)


def _chain_instance():
    tree = tree_from_parent_map({0: None, 1: 0, 2: 1})
    jobs = JobSet.build(
        releases=[0.0, 1.0, 2.0, 4.0],
        sizes=[3.0, 5.0, 4.0, 5.0],
    )
    return Instance(tree, jobs, Setting.IDENTICAL, name="dyn-chain")


def _chain_events():
    return EventSchedule(
        [Cancel(6.0, 1), NodeDown(8.0, 1), NodeUp(13.0, 1)]
    )


def _two_leaf_instance(releases, sizes):
    tree = tree_from_parent_map({0: None, 1: 0, 2: 1, 3: 1})
    jobs = JobSet.build(releases=releases, sizes=sizes)
    return Instance(tree, jobs, Setting.IDENTICAL, name="dyn-two-leaf")


class TestScheduleValidation:
    def test_alternation_is_enforced(self):
        with pytest.raises(WorkloadError, match="already down"):
            EventSchedule([NodeDown(1.0, 1), NodeDown(2.0, 1)])
        with pytest.raises(WorkloadError, match="without a preceding"):
            EventSchedule([NodeUp(1.0, 1)])

    def test_every_outage_must_end(self):
        with pytest.raises(WorkloadError, match="no matching NodeUp"):
            EventSchedule([NodeDown(1.0, 1)])

    def test_at_most_one_cancel_per_job(self):
        with pytest.raises(WorkloadError, match="more than once"):
            EventSchedule([Cancel(1.0, 7), Cancel(2.0, 7)])

    def test_validate_for_rejects_root_and_unknown_nodes(self):
        inst = _chain_instance()
        with pytest.raises(WorkloadError, match="root"):
            EventSchedule(
                [NodeDown(1.0, 0), NodeUp(2.0, 0)]
            ).validate_for(inst)
        with pytest.raises(WorkloadError, match="not in the tree"):
            EventSchedule(
                [NodeDown(1.0, 9), NodeUp(2.0, 9)]
            ).validate_for(inst)

    def test_doc_round_trip(self):
        sched = _chain_events()
        assert EventSchedule.from_doc(sched.to_doc()) == sched
        assert sched.down_intervals() == {1: ((8.0, 13.0),)}
        assert sched.cancel_times() == {1: 6.0}


class TestOutageAndCancelSemantics:
    def _run(self, **kw):
        return api.simulate(
            instance=_chain_instance(), events=_chain_events(),
            record_segments=True, **kw
        )

    def test_chain_timeline(self):
        result = self._run()
        assert result.completions() == {0: 6.0, 2: 11.0, 3: 22.0}

    def test_cancelled_job_is_terminal_not_completed(self):
        result = self._run()
        rec = result.records[1]
        assert rec.cancelled
        assert rec.cancelled_at == 6.0
        assert not rec.finished
        assert set(result.cancelled_records()) == {1}
        with pytest.raises(SimulationError):
            rec.completion

    def test_cancelled_job_never_in_flow_metrics(self):
        result = self._run()
        assert 1 not in result.completions()
        # flows 6, 9, 18 — the cancelled job contributes nothing
        assert sorted(result.flow_times().tolist()) == [6.0, 9.0, 18.0]
        assert result.total_flow_time() == 33.0
        assert result.mean_flow_time() == pytest.approx(11.0)

    def test_no_service_during_the_outage(self):
        result = self._run()
        for seg in result.segments:
            if seg.node == 1:
                assert seg.end <= 8.0 or seg.start >= 13.0, (
                    f"segment {seg} overlaps the 8-13 outage of node 1"
                )

    def test_unknown_and_late_cancels_are_no_ops(self):
        inst = _chain_instance()
        base = api.simulate(instance=inst)
        for sched in (
            EventSchedule([Cancel(5.0, 99)]),       # job id never exists
            EventSchedule([Cancel(3.0, 3)]),        # before job 3 releases
            EventSchedule([Cancel(100.0, 0)]),      # long after completion
        ):
            got = api.simulate(instance=inst, events=sched)
            assert got.completions() == base.completions()
            assert not got.records[0].cancelled

    def test_empty_schedule_is_bit_identical_to_no_schedule(self):
        inst = _chain_instance()
        base = api.simulate(instance=inst, record_segments=True)
        got = api.simulate(
            instance=inst, events=EventSchedule(()), record_segments=True
        )
        assert got.completions() == base.completions()
        assert got.segments == base.segments
        assert got.fractional_flow == base.fractional_flow


class TestDownAwareAssignment:
    @pytest.mark.parametrize("policy", ["greedy", "least-loaded"])
    def test_downed_leaf_is_excluded(self, policy):
        # Leaf 2 is down when the only job arrives: both down-aware
        # policies must route it to leaf 3.
        inst = _two_leaf_instance([1.0], [2.0])
        events = EventSchedule([NodeDown(0.5, 2), NodeUp(10.0, 2)])
        result = api.simulate(instance=inst, policy=policy, events=events)
        assert result.records[0].leaf == 3

    @pytest.mark.parametrize("policy", ["greedy", "least-loaded"])
    def test_assignment_recovers_after_repair(self, policy):
        # An outage that ends before the first release leaves no mark:
        # the repaired leaf is a full candidate again, so the schedule
        # is identical to the event-free run (the idle-outage relation).
        inst = _two_leaf_instance([20.0, 20.0], [2.0, 2.0])
        events = EventSchedule([NodeDown(0.5, 2), NodeUp(10.0, 2)])
        with_events = api.simulate(
            instance=inst, policy=policy, events=events
        )
        without = api.simulate(instance=inst, policy=policy)
        assert with_events.assignment() == without.assignment()
        assert with_events.completions() == without.completions()

    def test_all_leaves_down_falls_back_and_job_stalls(self):
        # With every leaf down at arrival the greedy fallback still
        # assigns somewhere; the job then stalls and completes only
        # after the repair (release 1, size 2, repair at 6 -> router
        # hop 6..8, leaf hop 8..10).
        inst = _two_leaf_instance([1.0], [2.0])
        events = EventSchedule(
            [NodeDown(0.5, 2), NodeDown(0.5, 3),
             NodeUp(6.0, 2), NodeUp(6.0, 3)]
        )
        result = api.simulate(instance=inst, events=events)
        rec = result.records[0]
        assert rec.leaf in (2, 3)
        assert rec.completion >= 8.0


class _SpyPolicy:
    """Delegating policy that records the size each job presents at
    assignment time (the estimate under partial information)."""

    def __init__(self, inner):
        self.inner = inner
        self.seen: dict[int, float] = {}

    def assign(self, view, job, now):
        self.seen[job.id] = job.size
        return self.inner.assign(view, job, now)


class TestSizeRevelation:
    def _instance(self):
        tree = tree_from_parent_map({0: None, 1: 0, 2: 1})
        jobs = JobSet.build(
            releases=[0.0, 1.0],
            sizes=[4.0, 2.0],
            size_estimates=[1.0, None],
        )
        return Instance(tree, jobs, Setting.IDENTICAL, name="dyn-estimates")

    def test_policy_sees_only_the_estimate(self):
        inst = self._instance()
        spy = _SpyPolicy(GreedyIdenticalAssignment(0.25))
        api.simulate(instance=inst, policy=spy)
        assert spy.seen[0] == 1.0  # the estimate, not the true size 4
        assert spy.seen[1] == 2.0  # fully-known job passes through as-is

    def test_true_size_is_revealed_at_completion(self):
        inst = self._instance()
        rec = TraceRecorder(TraceConfig())
        result = api.simulate(instance=inst, sink=rec)
        assert result.records[0].size_estimate == 1.0
        reveals = result.trace.events_of("reveal")
        assert [(e.job_id, e.size) for e in reveals] == [(0, 4.0)]
        # Processing is driven by the true size throughout: job 1
        # (true size 2) preempts at t=1, so job 0 runs the router
        # 0-1 and 3-6, then the leaf 6-10.
        assert result.completions()[0] == 10.0


def _parity_pair():
    """A medium instance plus an event schedule touching an internal
    router, a leaf, and three cancels (one pre-release no-op)."""
    tree = datacenter_tree(2, 2, 3)
    inst = identical_instance(tree, 80, load=0.9, seed=21)
    leaf = tree.leaves[0]
    router = tree.parent(leaf)
    horizon = max(j.release for j in inst.jobs)
    events = EventSchedule([
        NodeDown(horizon * 0.2, leaf), NodeUp(horizon * 0.5, leaf),
        NodeDown(horizon * 0.6, router), NodeUp(horizon * 0.8, router),
        Cancel(horizon * 0.3, 5), Cancel(horizon * 0.7, 40),
        Cancel(0.0, 79),
    ])
    return inst, events


def _with_estimates(inst):
    """``inst`` with a size estimate on every third job, alternately
    1.7x and half its true size."""
    jobs = list(inst.jobs)
    return Instance(
        inst.tree,
        JobSet.build(
            releases=[j.release for j in jobs],
            sizes=[j.size for j in jobs],
            size_estimates=[
                j.size * (0.5 if i % 2 else 1.7) if i % 3 == 0 else None
                for i, j in enumerate(jobs)
            ],
        ),
        Setting.IDENTICAL,
        name="dyn-estimates-parity",
    )


@needs_c
class TestBackendParityWithEvents:
    @pytest.mark.parametrize("estimates", [False, True])
    @pytest.mark.parametrize("policy", api.POLICY_NAMES)
    def test_c_matches_python_bit_for_bit(self, policy, estimates):
        inst, events = _parity_pair()
        if estimates:
            inst = _with_estimates(inst)
        # The pair's cancels find their jobs already done (or not yet
        # released); add some that land in service and in queues.
        events = EventSchedule(
            list(events)
            + [
                Cancel(j.release + 0.75 * (1 + j.id % 4), j.id)
                for j in inst.jobs
                if j.id % 9 == 2
            ]
        )
        a, b = (
            api.simulate(
                instance=inst, policy=policy, eps=0.25, seed=4,
                backend=backend, events=events,
            )
            for backend in ("python", "c")
        )
        assert a.records == b.records  # cancelled_at included, no approx
        assert a.total_flow_time() == b.total_flow_time()
        assert b.cancelled_records()  # the schedule's cancels landed

    @pytest.mark.parametrize("policy", api.POLICY_NAMES)
    def test_estimates_on_uneven_depths_match_python(self, policy):
        # Leaves at depths 2-4: least-loaded's own d_v * p term and
        # greedy's weight * p term now separate leaves, so scoring the
        # estimate instead of the true size changes the dispatch.
        tree = caterpillar_tree(3, 2)
        inst = _with_estimates(identical_instance(tree, 60, load=0.9, seed=5))
        horizon = max(j.release for j in inst.jobs)
        events = EventSchedule([
            NodeDown(horizon * 0.3, tree.leaves[-1]),
            NodeUp(horizon * 0.6, tree.leaves[-1]),
            *(Cancel(j.release + 1.0, j.id) for j in inst.jobs if j.id % 7 == 1),
        ])
        a, b = (
            api.simulate(
                instance=inst, policy=policy, eps=0.25, seed=4,
                backend=backend, events=events,
            )
            for backend in ("python", "c")
        )
        assert a.records == b.records

    @pytest.mark.parametrize("policy", api.POLICY_NAMES)
    def test_staggered_outage_deck_matches_python(self, policy):
        # Every leaf and rack router goes down once, staggered so queues
        # build up behind outages, and every 7th job is cancelled while
        # queued or in service: swap-removes, parked admissions and
        # repairs all run many times.
        tree = datacenter_tree(2, 2, 3)
        inst = _with_estimates(identical_instance(tree, 300, load=0.95, seed=8))
        horizon = max(j.release for j in inst.jobs)
        nodes = list(tree.leaves) + sorted({tree.parent(v) for v in tree.leaves})
        slot = horizon / len(nodes)
        events = EventSchedule([
            *(NodeDown(slot * k, v) for k, v in enumerate(nodes)),
            *(NodeUp(slot * k + 0.1 * horizon, v) for k, v in enumerate(nodes)),
            *(Cancel(j.release + 1.5, j.id) for j in inst.jobs if j.id % 7 == 3),
        ])
        a, b = (
            api.simulate(
                instance=inst, policy=policy, eps=0.25, seed=4,
                backend=backend, events=events,
            )
            for backend in ("python", "c")
        )
        assert a.records == b.records
        assert a.total_flow_time() == b.total_flow_time()

    @pytest.mark.parametrize("last_hop", [False, True])
    def test_cancel_at_the_brink_completes_the_hop_first(self, last_hop):
        # One unit job on a 2-hop chain, cancelled one ulp before a hop
        # would complete: the settled residual is within finished_tol,
        # so the hop completes at the cancel instant and the cancel
        # applies to the next hop — a no-op after the last one.
        release = 0.4947915350708311
        tree = tree_from_parent_map({0: None, 1: 0, 2: 1})
        inst = Instance(
            tree, JobSet.build(releases=[release], sizes=[1.0]),
            Setting.IDENTICAL,
        )
        hop_end = release + 1.0 + (1.0 if last_hop else 0.0)
        cancel = math.nextafter(hop_end, 0.0)
        events = EventSchedule([Cancel(cancel, 0)])
        a, b = (
            api.simulate(
                instance=inst, policy="closest", backend=backend, events=events
            )
            for backend in ("python", "c")
        )
        assert a.records == b.records
        rec = b.records[0]
        if last_hop:
            assert rec.finished and rec.completed_at[-1] == cancel
        else:
            assert rec.completed_at == [cancel]
            assert rec.cancelled_at == cancel

    @pytest.mark.parametrize(
        "policy",
        [
            GreedyIdenticalAssignment(0.25),
            ClosestLeafAssignment(),
            RandomAssignment(4),
            LeastLoadedAssignment(),
            RoundRobinAssignment(),
        ],
        ids=api.POLICY_NAMES,
    )
    def test_kernel_plans_every_policy_with_events(self, policy):
        inst, events = _parity_pair()
        CEngine(_with_estimates(inst), policy, events=events)

    def test_c_backend_runs_events_on_the_kernel_without_warning(
        self, monkeypatch
    ):
        def python_engine(*args, **kwargs):
            raise AssertionError("fell back to the python engine")

        inst, events = _parity_pair()
        ref = api.simulate(instance=inst, events=events)
        monkeypatch.setattr(engine, "simulate", python_engine)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = api.simulate(instance=inst, backend="c", events=events)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert got.records == ref.records

    def test_c_backend_event_free_stays_native(self):
        # An empty schedule is the event-free run: no warning, and the
        # same records as passing no schedule at all.
        inst, _ = _parity_pair()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = api.simulate(instance=inst, backend="c", events=EventSchedule(()))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert got.records == api.simulate(instance=inst, backend="c").records


class TestAggregatesAfterRepair:
    def test_aggregates_equal_fresh_recomputation_at_every_repair(self):
        """After each ``node_up`` the O(1) aggregate counters must equal
        a from-scratch recomputation over the alive set — the incremental
        settle/drain/rearm algebra of the outage path may not drift."""
        inst, events = _parity_pair()
        checked = {"n": 0}

        class RepairAudit(EngineSink):
            def attach(self, eng):
                self.view = eng.view

            def on_node_up(self, time, node):
                view = self.view
                checked["n"] += 1
                for v in inst.tree.node_ids:
                    if v == inst.tree.root:
                        continue
                    through = view.jobs_through(v)
                    assert view.jobs_through_count(v) == len(through)
                    vol = sum(view.remaining_on(j, v) for j in through)
                    assert math.isclose(
                        view.volume_through(v), vol,
                        rel_tol=1e-9, abs_tol=1e-9,
                    )
                    qvol = sum(
                        view.remaining_on(j, v) for j in view.queue_at(v)
                    )
                    assert math.isclose(
                        view.queue_volume_at(v), qvol,
                        rel_tol=1e-9, abs_tol=1e-9,
                    )

        engine = Engine(
            inst, GreedyIdenticalAssignment(0.25),
            events=events, sink=RepairAudit(),
        )
        engine.run()
        assert checked["n"] == 2  # both repairs were audited

    def test_engine_invariants_hold_through_events(self):
        inst, events = _parity_pair()
        result = api.simulate(
            instance=inst, events=events, check_invariants=True
        )
        assert result.completions()  # ran to completion, no raise
