"""Unit tests for the greedy assignment policies of Section 3.4."""

from __future__ import annotations

import math

import pytest

from repro.core.assignment import (
    FixedAssignment,
    GreedyIdenticalAssignment,
    GreedyUnrelatedAssignment,
)
from repro.exceptions import AssignmentError
from repro.network.builders import broomstick_tree, caterpillar_tree, star_of_paths
from repro.sim import backends
from repro.sim.engine import simulate
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


class TestGreedyIdentical:
    def test_eps_validation(self):
        with pytest.raises(AssignmentError):
            GreedyIdenticalAssignment(0.0)
        with pytest.raises(AssignmentError):
            GreedyIdenticalAssignment(-0.5)

    def test_idle_tree_prefers_shallow_leaf(self):
        # With no congestion the d_v term dominates: pick a closest leaf.
        tree = caterpillar_tree(3, 1)  # leaves at depths 2, 3, 4
        jobs = JobSet([Job(id=0, release=0.0, size=1.0)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, GreedyIdenticalAssignment(0.5))
        assert instance.tree.depth(res.records[0].leaf) == 2

    def test_congestion_diverts_to_other_branch(self):
        # Branch A is short but jammed by earlier jobs; greedy should
        # eventually route to branch B even though B is longer.
        tree_pm = {0: None, 1: 0, 2: 1, 3: 0, 4: 3, 5: 4}
        # branch A: 1 -> leaf 2 (depth 2); branch B: 3 -> 4 -> leaf 5 (depth 3)
        from repro.network.tree import TreeNetwork

        tree = TreeNetwork(tree_pm)
        # Leaf 2 scores F + 6*2*4, leaf 5 scores F_B + 6*3*4; each job
        # already queued on branch A adds ~4 to F, so from the 7th
        # simultaneous job on, branch B wins.
        jobs = JobSet([Job(id=i, release=0.0, size=4.0) for i in range(10)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, GreedyIdenticalAssignment(1.0))
        leaves_used = {rec.leaf for rec in res.records.values()}
        assert leaves_used == {2, 5}

    def test_all_jobs_complete_under_load(self):
        tree = star_of_paths(3, 2)
        jobs = JobSet([Job(id=i, release=0.2 * i, size=1.0 + i % 3) for i in range(30)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, GreedyIdenticalAssignment(0.25), check_invariants=True)
        res.verify_complete()

    def test_deterministic(self):
        tree = star_of_paths(3, 2)
        jobs = JobSet([Job(id=i, release=0.3 * i, size=1.0 + i % 2) for i in range(15)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        a = simulate(instance, GreedyIdenticalAssignment(0.25)).assignment()
        b = simulate(instance, GreedyIdenticalAssignment(0.25)).assignment()
        assert a == b

    def test_last_scores_exposed(self):
        tree = star_of_paths(2, 1)
        jobs = JobSet([Job(id=0, release=0.0, size=1.0)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        policy = GreedyIdenticalAssignment(0.5)
        simulate(instance, policy)
        assert policy.last_scores is not None
        assert set(policy.last_scores) == set(tree.leaves)

    def test_weight_matches_paper(self):
        assert GreedyIdenticalAssignment(0.5).weight == pytest.approx(24.0)
        assert GreedyIdenticalAssignment(1.0).weight == pytest.approx(6.0)


class TestGreedyUnrelated:
    def test_skips_forbidden_leaves(self):
        tree = star_of_paths(2, 1)
        jobs = JobSet(
            [Job(id=0, release=0.0, size=1.0, leaf_sizes={2: math.inf, 4: 1.0})]
        )
        instance = Instance(tree, jobs, Setting.UNRELATED)
        res = simulate(instance, GreedyUnrelatedAssignment(0.5))
        assert res.records[0].leaf == 4

    def test_prefers_fast_leaf_when_idle(self):
        tree = star_of_paths(2, 1)
        jobs = JobSet(
            [Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 10.0, 4: 1.0})]
        )
        instance = Instance(tree, jobs, Setting.UNRELATED)
        res = simulate(instance, GreedyUnrelatedAssignment(0.5))
        assert res.records[0].leaf == 4

    def test_leaf_congestion_balances(self):
        # Every job is fastest on leaf 2, but queueing there makes the
        # greedy spill some onto leaf 4.
        tree = star_of_paths(2, 1)
        jobs = JobSet(
            [
                Job(id=i, release=0.0, size=1.0, leaf_sizes={2: 4.0, 4: 6.0})
                for i in range(6)
            ]
        )
        instance = Instance(tree, jobs, Setting.UNRELATED)
        res = simulate(instance, GreedyUnrelatedAssignment(1.0))
        used = [rec.leaf for rec in res.records.values()]
        assert 4 in used and 2 in used

    def test_eps_validation(self):
        with pytest.raises(AssignmentError):
            GreedyUnrelatedAssignment(0.0)

    def test_complete_on_broomstick(self):
        tree = broomstick_tree(2, 3, 1)
        leaves = tree.leaves
        jobs = JobSet(
            [
                Job(
                    id=i,
                    release=0.5 * i,
                    size=1.0,
                    leaf_sizes={v: 1.0 + (i + k) % 3 for k, v in enumerate(leaves)},
                )
                for i in range(12)
            ]
        )
        instance = Instance(tree, jobs, Setting.UNRELATED)
        res = simulate(instance, GreedyUnrelatedAssignment(0.25), check_invariants=True)
        res.verify_complete()


class TestFixedAssignment:
    def test_replays_mapping(self, two_path_tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0)])
        instance = Instance(two_path_tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, FixedAssignment({0: 4}))
        assert res.records[0].leaf == 4

    def test_missing_job_rejected(self, two_path_tree):
        jobs = JobSet([Job(id=0, release=0.0, size=1.0)])
        instance = Instance(two_path_tree, jobs, Setting.IDENTICAL)
        for backend in backends.available_backends():
            with pytest.raises(AssignmentError, match="no fixed assignment"):
                backends.simulate(instance, FixedAssignment({}), backend=backend)
