"""Engine tests against hand-computed schedules.

Every scenario here is small enough to verify with pencil and paper; the
expected numbers in the assertions are derived in the comments.
"""

from __future__ import annotations

import math

import pytest

from repro.core.assignment import FixedAssignment
from repro.exceptions import AssignmentError, SimulationError
from repro.network.builders import spine_tree, star_of_paths
from repro.sim.engine import Engine, EngineSink, fifo_priority, simulate
from repro.sim.invariants import validate_schedule
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


from tests.conftest import both_backends_fixture

_engine_backend = both_backends_fixture(__name__)


def chain_instance(jobs):
    """Jobs on the 3-node chain root->router(1)->leaf(2)."""
    return Instance(spine_tree(1), JobSet(jobs), Setting.IDENTICAL)


def run_chain(jobs, speeds=None, priority=None, **kw):
    instance = chain_instance(jobs)
    policy = FixedAssignment({j.id: 2 for j in jobs})
    kwargs = dict(record_segments=True, check_invariants=True, **kw)
    if priority is not None:
        kwargs["priority"] = priority
    return simulate(instance, policy, speeds=speeds, **kwargs)


class TestSingleJob:
    def test_pipeline_timing(self):
        # size 2: router [0,2], leaf [2,4].
        res = run_chain([Job(id=0, release=0.0, size=2.0)])
        rec = res.records[0]
        assert rec.available_at == [0.0, 2.0]
        assert rec.completed_at == [2.0, 4.0]
        assert rec.flow_time == 4.0

    def test_fractional_flow_single_job(self):
        # Alive fraction 1 on [0,2], draining linearly to 0 on [2,4]:
        # integral = 2 + 1 = 3.
        res = run_chain([Job(id=0, release=0.0, size=2.0)])
        assert res.fractional_flow == pytest.approx(3.0)
        assert res.alive_integral == pytest.approx(4.0)

    def test_release_offset(self):
        res = run_chain([Job(id=0, release=5.0, size=1.0)])
        assert res.records[0].completion == 7.0
        assert res.records[0].flow_time == 2.0

    def test_speed_scales_processing(self):
        res = run_chain(
            [Job(id=0, release=0.0, size=2.0)], speeds=SpeedProfile.uniform(2.0)
        )
        assert res.records[0].completed_at == [1.0, 2.0]

    def test_tiered_speeds(self):
        # router at speed 1 (root-adjacent tier), leaf at speed 2.
        speeds = SpeedProfile(root_children=1.0, interior=1.0, leaves=2.0)
        res = run_chain([Job(id=0, release=0.0, size=2.0)], speeds=speeds)
        assert res.records[0].completed_at == [2.0, 3.0]


class TestSJFPreemption:
    def test_small_job_preempts(self):
        # A(size 3, r=0), B(size 1, r=1).  Router: A runs [0,1), B preempts
        # [1,2), A resumes [2,4).  Leaf: B [2,3), A [4,7).
        res = run_chain(
            [Job(id=0, release=0.0, size=3.0), Job(id=1, release=1.0, size=1.0)]
        )
        a, b = res.records[0], res.records[1]
        assert b.completed_at == [2.0, 3.0]
        assert a.completed_at == [4.0, 7.0]
        assert a.flow_time == 7.0
        assert b.flow_time == 2.0
        validate_schedule(res)

    def test_fifo_does_not_preempt(self):
        # Under FIFO, A keeps the router until 3; B waits.
        res = run_chain(
            [Job(id=0, release=0.0, size=3.0), Job(id=1, release=1.0, size=1.0)],
            priority=fifo_priority,
        )
        a, b = res.records[0], res.records[1]
        assert a.completed_at == [3.0, 6.0]
        assert b.completed_at == [4.0, 7.0]
        validate_schedule(res)

    def test_tie_breaks_by_release(self):
        # Same size: the older job wins the node.
        res = run_chain(
            [Job(id=0, release=0.0, size=2.0), Job(id=1, release=1.0, size=2.0)]
        )
        assert res.records[0].completed_at[0] == 2.0
        assert res.records[1].completed_at[0] == 4.0

    def test_simultaneous_release_tie_breaks_by_id(self):
        res = run_chain(
            [Job(id=0, release=0.0, size=2.0), Job(id=1, release=0.0, size=2.0)]
        )
        assert res.records[0].completed_at[0] == 2.0
        assert res.records[1].completed_at[0] == 4.0

    def test_sjf_orders_by_original_size_not_remaining(self):
        # A(size 4, r=0) runs [0,3); B(size 3, r=3) arrives when A has 1
        # unit left.  SJF compares ORIGINAL sizes (3 < 4), so B preempts
        # even though A's remaining (1) is smaller.
        res = run_chain(
            [Job(id=0, release=0.0, size=4.0), Job(id=1, release=3.0, size=3.0)]
        )
        assert res.records[1].completed_at[0] == 6.0  # B finishes router first
        assert res.records[0].completed_at[0] == 7.0


class TestStoreAndForward:
    def test_chain_availability(self):
        res = run_chain([Job(id=0, release=0.0, size=1.0)])
        rec = res.records[0]
        assert rec.available_at[1] == rec.completed_at[0]

    def test_downstream_idles_until_handoff(self):
        # Two jobs on the same path: the leaf cannot start the second
        # until the router hands it over, even if the leaf is idle.
        res = run_chain(
            [Job(id=0, release=0.0, size=1.0), Job(id=1, release=0.0, size=2.0)]
        )
        a, b = res.records[0], res.records[1]
        # Router: A [0,1), B [1,3).  Leaf: A [1,2), idle? no: B arrives 3.
        assert a.completed_at == [1.0, 2.0]
        assert b.available_at == [0.0, 3.0]
        assert b.completed_at == [3.0, 5.0]

    def test_deeper_pipeline(self):
        # 3 routers + leaf, unit job: completes at 4.
        tree = spine_tree(3)
        leaf = tree.leaves[0]
        instance = Instance(
            tree, JobSet([Job(id=0, release=0.0, size=1.0)]), Setting.IDENTICAL
        )
        res = simulate(instance, FixedAssignment({0: leaf}), record_segments=True)
        assert res.records[0].completion == 4.0
        validate_schedule(res)


class TestBranches:
    def test_parallel_branches_do_not_interfere(self, two_path_tree):
        jobs = JobSet(
            [Job(id=0, release=0.0, size=2.0), Job(id=1, release=0.0, size=2.0)]
        )
        instance = Instance(two_path_tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, FixedAssignment({0: 2, 1: 4}), check_invariants=True)
        assert res.records[0].completion == 4.0
        assert res.records[1].completion == 4.0

    def test_same_branch_serialises(self, two_path_tree):
        jobs = JobSet(
            [Job(id=0, release=0.0, size=2.0), Job(id=1, release=0.0, size=2.0)]
        )
        instance = Instance(two_path_tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, FixedAssignment({0: 2, 1: 2}), check_invariants=True)
        assert res.records[0].completion == 4.0
        assert res.records[1].completion == 6.0


class TestUnrelatedLeaves:
    def test_leaf_specific_processing(self, two_path_tree):
        jobs = JobSet(
            [Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 5.0, 4: 1.0})]
        )
        instance = Instance(two_path_tree, jobs, Setting.UNRELATED)
        res = simulate(instance, FixedAssignment({0: 2}))
        assert res.records[0].completion == 6.0  # 1 router + 5 leaf

    def test_leaf_priority_uses_leaf_size(self, two_path_tree):
        # On the leaf, job 1 (p_leaf 1) outranks job 0 (p_leaf 5) even
        # though job 0's router size is smaller.
        jobs = JobSet(
            [
                Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 5.0, 4: 5.0}),
                Job(id=1, release=0.0, size=2.0, leaf_sizes={2: 1.0, 4: 1.0}),
            ]
        )
        instance = Instance(two_path_tree, jobs, Setting.UNRELATED)
        res = simulate(instance, FixedAssignment({0: 2, 1: 2}), check_invariants=True)
        # Router: job0 [0,1), job1 [1,3).  Leaf: job0 starts at 1, job1
        # arrives at 3 and preempts (leaf size 1 < 5), finishes 4; job0
        # resumes, finishes 4 + (5-2) = 7.
        assert res.records[1].completion == 4.0
        assert res.records[0].completion == 7.0


class TestEngineContracts:
    def test_run_twice_rejected(self):
        instance = chain_instance([Job(id=0, release=0.0, size=1.0)])
        eng = Engine(instance, FixedAssignment({0: 2}))
        eng.run()
        with pytest.raises(SimulationError, match="only run once"):
            eng.run()

    def test_non_leaf_assignment_rejected(self):
        instance = chain_instance([Job(id=0, release=0.0, size=1.0)])
        with pytest.raises(AssignmentError, match="non-leaf"):
            simulate(instance, FixedAssignment({0: 1}))

    def test_unknown_node_assignment_rejected(self):
        instance = chain_instance([Job(id=0, release=0.0, size=1.0)])
        with pytest.raises(AssignmentError, match="non-leaf node 99$"):
            simulate(instance, FixedAssignment({0: 99}))

    def test_forbidden_leaf_assignment_rejected(self, two_path_tree):
        jobs = JobSet(
            [Job(id=0, release=0.0, size=1.0, leaf_sizes={2: math.inf, 4: 1.0})]
        )
        instance = Instance(two_path_tree, jobs, Setting.UNRELATED)
        with pytest.raises(AssignmentError, match="forbidden"):
            simulate(instance, FixedAssignment({0: 2}))

    def test_max_events_guard(self):
        instance = chain_instance([Job(id=i, release=0.0, size=1.0) for i in range(5)])
        with pytest.raises(SimulationError, match="max_events"):
            Engine(
                instance, FixedAssignment({i: 2 for i in range(5)}), max_events=3
            ).run()

    def test_empty_instance(self):
        instance = chain_instance([])
        res = simulate(instance, FixedAssignment({}))
        assert res.total_flow_time() == 0.0
        assert res.num_events == 0

    def test_alive_integral_equals_total_flow(self):
        jobs = [Job(id=i, release=0.7 * i, size=1.0 + (i % 3)) for i in range(12)]
        res = run_chain(jobs)
        assert res.alive_integral == pytest.approx(res.total_flow_time())

    def test_fractional_at_most_total(self):
        jobs = [Job(id=i, release=0.7 * i, size=1.0 + (i % 3)) for i in range(12)]
        res = run_chain(jobs)
        assert res.fractional_flow <= res.total_flow_time() + 1e-9


class TestObserver:
    def test_events_observed_in_order(self):
        events = []

        class Log(EngineSink):
            def on_arrival(self, time, job_id, leaf):
                events.append((time, "arrival", job_id))

            def on_hop_complete(self, time, job_id, node):
                events.append((time, "completion", node))

        jobs = [Job(id=0, release=0.0, size=1.0), Job(id=1, release=0.5, size=1.0)]
        instance = chain_instance(jobs)
        Engine(instance, FixedAssignment({0: 2, 1: 2}), sink=Log()).run()
        times = [t for t, _, _ in events]
        assert times == sorted(times)
        kinds = [k for _, k, _ in events]
        assert kinds.count("arrival") == 2
        assert kinds.count("completion") == 4  # 2 jobs x 2 nodes

    def test_view_queries_during_run(self):
        seen = {}

        class Probe(EngineSink):
            def attach(self, engine):
                self.view = engine.view

            def on_arrival(self, time, job_id, leaf):
                if job_id == 1:
                    # At job 1's arrival, job 0 should be alive somewhere.
                    seen["alive"] = self.view.alive_jobs()
                    seen["rem"] = self.view.remaining_on(0, 1)

        jobs = [Job(id=0, release=0.0, size=2.0), Job(id=1, release=1.0, size=2.0)]
        instance = chain_instance(jobs)
        Engine(instance, FixedAssignment({0: 2, 1: 2}), sink=Probe()).run()
        assert 0 in seen["alive"]
        assert seen["rem"] == pytest.approx(1.0)  # half of job 0's router work left


class TestSchedulerView:
    def test_remaining_on_future_and_past_nodes(self):
        snapshots = {}

        class Probe(EngineSink):
            def attach(self, engine):
                self.view = engine.view

            def on_available(self, time, job_id, node):
                # Job 0 just cleared node 1 and reached node 2.
                if node == 2 and 0 in self.view.alive_jobs():
                    snapshots["past"] = self.view.remaining_on(0, 1)
                    snapshots["current"] = self.view.remaining_on(0, 2)

        jobs = [Job(id=0, release=0.0, size=2.0)]
        instance = chain_instance(jobs)
        Engine(instance, FixedAssignment({0: 2}), sink=Probe()).run()
        assert snapshots["past"] == 0.0
        assert snapshots["current"] == 2.0

    def test_jobs_through_leaf_tracks_assignment(self):
        rows = []

        class Probe(EngineSink):
            def attach(self, engine):
                self.view = engine.view

            def on_arrival(self, time, job_id, leaf):
                rows.append(self.view.jobs_through(2))

        jobs = [Job(id=0, release=0.0, size=5.0), Job(id=1, release=1.0, size=5.0)]
        instance = chain_instance(jobs)
        Engine(instance, FixedAssignment({0: 2, 1: 2}), sink=Probe()).run()
        assert rows[0] == (0,)
        assert rows[1] == (0, 1)


class TestDrainFinishedTies:
    """Regression: `_drain_finished_top` must advance *every* finished
    job at the heap top, not just the first (two jobs preempted at the
    brink of completion would otherwise strand the second behind
    full-size work pushed at the same instant)."""

    def test_two_finished_ties_both_advance(self):
        # Three same-size, same-release jobs: identical (p, release)
        # priority tuples, ties broken by id, so jobs 0 and 1 sit at the
        # top of the router heap.  Mark both as numerically finished
        # (as a brink-of-completion preemption would leave them) and
        # drain: both must move to the leaf, while job 2 stays.
        jobs = [Job(id=i, release=0.0, size=1.0) for i in range(3)]
        instance = chain_instance(jobs)
        eng = Engine(instance, FixedAssignment({j.id: 2 for j in jobs}))
        for job in jobs:
            eng._handle_arrival(job)
        router = eng._nodes[1]
        eng._settle(router)
        eng._states[0].remaining = 0.0
        eng._states[1].remaining = 5e-13  # below finished_tol(1.0)
        eng._drain_finished_top(router)
        assert eng._states[0].idx == 1, "heap-top finished job must advance"
        assert eng._states[1].idx == 1, "second finished tie must advance too"
        assert eng._states[2].idx == 0, "unfinished job must stay queued"
        assert [jid for _, jid in router.heap] == [2]

    def test_finished_tol_scales_with_job_size(self):
        # A residual of 1e-10 is noise for a size-1e6 job (relative
        # 1e-16) but real work for a size-1 job.  The drain threshold
        # must scale accordingly.
        from repro.sim.tolerances import finished_tol

        assert 1e-10 > finished_tol(1.0)
        assert 1e-10 <= finished_tol(1e6)

    def test_brink_preemption_end_to_end(self):
        # Job 0 (size 1) is preempted by smaller job 1 arriving when
        # job 0 has ~1e-13 work left; the run must still complete with a
        # valid schedule and job 0's router completion at (numerically)
        # its preemption time or later.
        jobs = [
            Job(id=0, release=0.0, size=1.0),
            Job(id=1, release=1.0 - 1e-13, size=0.5),
        ]
        res = run_chain(jobs)
        validate_schedule(res)
        assert res.records[0].finished and res.records[1].finished
