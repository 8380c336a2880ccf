"""Unit tests for the arbitrary-arrival-node extension (Job.origin)."""

from __future__ import annotations

import pytest

from repro.baselines.policies import RandomAssignment, RoundRobinAssignment
from repro.core.assignment import FixedAssignment, GreedyIdenticalAssignment
from repro.exceptions import AssignmentError, WorkloadError
from repro.network.builders import datacenter_tree, kary_tree
from repro.sim import backends
from repro.sim.engine import simulate
from repro.sim.invariants import validate_schedule
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet
from repro.workload.trace_io import instance_from_json, instance_to_json


@pytest.fixture
def tree():
    return kary_tree(2, 3)  # root 0, routers 1-2 (pods), 3-6, leaves 7-14


class TestValidation:
    def test_unknown_origin_rejected(self, tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, origin=999)])
        with pytest.raises(WorkloadError, match="not in the tree"):
            Instance(tree, jobs, Setting.IDENTICAL)

    def test_leaf_origin_rejected(self, tree):
        leaf = tree.leaves[0]
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, origin=leaf)])
        with pytest.raises(WorkloadError, match="is a leaf"):
            Instance(tree, jobs, Setting.IDENTICAL)

    def test_negative_origin_rejected(self):
        with pytest.raises(WorkloadError, match="origin"):
            Job(id=0, release=0.0, size=1.0, origin=-1)

    def test_root_origin_equivalent_to_none(self, tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, origin=tree.root)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        job = jobs.by_id(0)
        assert instance.feasible_leaves(job) == tree.leaves

    def test_unrelated_origin_needs_feasible_leaf_below(self, tree):
        import math

        # Finite only outside the origin's subtree.
        origin = tree.root_children[0]
        outside = tree.leaves_under(tree.root_children[1])[0]
        sizes = {v: math.inf for v in tree.leaves}
        sizes[outside] = 1.0
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, leaf_sizes=sizes, origin=origin)])
        with pytest.raises(WorkloadError, match="below origin"):
            Instance(tree, jobs, Setting.UNRELATED)


class TestPathsAndEngine:
    def test_processing_path_excludes_origin(self, tree):
        origin = tree.root_children[0]
        leaf = tree.leaves_under(origin)[0]
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, origin=origin)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        path = instance.processing_path_for(jobs.by_id(0), leaf)
        assert path[0] != origin
        assert path[-1] == leaf
        assert len(path) == len(tree.processing_path(leaf)) - 1

    def test_engine_shorter_pipeline(self, tree):
        origin = tree.root_children[0]
        leaf = tree.leaves_under(origin)[0]
        jobs = JobSet(
            [
                Job(id=0, release=0.0, size=1.0),  # root origin
                Job(id=1, release=0.0, size=1.0, origin=origin),
            ]
        )
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        other_leaf = tree.leaves_under(tree.root_children[1])[0]
        res = simulate(
            instance,
            FixedAssignment({0: other_leaf, 1: leaf}),
            record_segments=True,
        )
        validate_schedule(res)
        # Root-origin job crosses 3 nodes, pod-origin job only 2.
        assert res.records[0].flow_time == pytest.approx(3.0)
        assert res.records[1].flow_time == pytest.approx(2.0)

    def test_out_of_subtree_assignment_rejected(self, tree):
        origin = tree.root_children[0]
        outside = tree.leaves_under(tree.root_children[1])[0]
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, origin=origin)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        for backend in backends.available_backends():
            with pytest.raises(AssignmentError, match="outside its origin"):
                backends.simulate(
                    instance, FixedAssignment({0: outside}), backend=backend
                )

    def test_origin_job_shares_queues_with_root_jobs(self, tree):
        """An origin job must contend with root-origin traffic on shared
        nodes below the origin."""
        origin = tree.root_children[0]
        leaf = tree.leaves_under(origin)[0]
        jobs = JobSet(
            [
                Job(id=0, release=0.0, size=2.0),            # big, from root
                Job(id=1, release=0.0, size=2.0, origin=origin),
            ]
        )
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, FixedAssignment({0: leaf, 1: leaf}), record_segments=True)
        validate_schedule(res)
        # Job 1 starts immediately below origin; job 0 arrives there at 2.
        # They serialise on the shared mid router and leaf.
        assert res.records[1].flow_time < res.records[0].flow_time


class TestPolicies:
    def test_greedy_respects_origin(self):
        tree = datacenter_tree(2, 2, 2)
        pods = tree.root_children
        jobs = JobSet(
            [
                Job(id=i, release=0.2 * i, size=1.0, origin=pods[i % 2])
                for i in range(16)
            ]
        )
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, GreedyIdenticalAssignment(0.5), check_invariants=True)
        for jid, rec in res.records.items():
            origin = jobs.by_id(jid).origin
            assert tree.is_ancestor(origin, rec.leaf)

    def test_baselines_respect_origin(self):
        tree = datacenter_tree(2, 2, 2)
        pod = tree.root_children[0]
        jobs = JobSet(
            [Job(id=i, release=float(i), size=1.0, origin=pod) for i in range(8)]
        )
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        for policy in (RandomAssignment(0), RoundRobinAssignment()):
            res = simulate(instance, policy)
            for rec in res.records.values():
                assert tree.is_ancestor(pod, rec.leaf)

    def test_mixed_origin_instance_completes(self):
        tree = datacenter_tree(2, 2, 2)
        pods = tree.root_children
        jobs = JobSet(
            [
                Job(
                    id=i,
                    release=0.3 * i,
                    size=1.0 + i % 2,
                    origin=None if i % 3 == 0 else pods[i % 2],
                )
                for i in range(18)
            ]
        )
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, GreedyIdenticalAssignment(0.25), check_invariants=True)
        res.verify_complete()


class TestSerialisation:
    def test_origin_round_trips(self, tree):
        origin = tree.root_children[1]
        jobs = JobSet([Job(id=0, release=0.0, size=1.0, origin=origin)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        restored = instance_from_json(instance_to_json(instance))
        assert restored.jobs.by_id(0).origin == origin

    def test_rounded_preserves_origin(self, tree):
        origin = tree.root_children[0]
        jobs = JobSet([Job(id=0, release=0.0, size=1.3, origin=origin)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        assert instance.rounded(0.5).jobs.by_id(0).origin == origin
