"""Unit tests for baseline assignment policies."""

from __future__ import annotations

import math

import pytest

from repro.baselines.policies import (
    ClosestLeafAssignment,
    LeastLoadedAssignment,
    RandomAssignment,
    RoundRobinAssignment,
)
from repro.exceptions import AssignmentError
from repro.network.builders import caterpillar_tree, star_of_paths
from repro.sim.engine import simulate
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


def make_instance(tree, jobs, setting=Setting.IDENTICAL):
    return Instance(tree, JobSet(jobs), setting)


class TestClosestLeaf:
    def test_picks_min_depth(self):
        tree = caterpillar_tree(3, 1)
        inst = make_instance(tree, [Job(id=0, release=0.0, size=1.0)])
        res = simulate(inst, ClosestLeafAssignment())
        assert tree.depth(res.records[0].leaf) == min(
            tree.depth(v) for v in tree.leaves
        )

    def test_unrelated_prefers_fast_machine(self):
        tree = star_of_paths(2, 1)
        inst = make_instance(
            tree,
            [Job(id=0, release=0.0, size=1.0, leaf_sizes={2: 9.0, 4: 1.0})],
            Setting.UNRELATED,
        )
        res = simulate(inst, ClosestLeafAssignment())
        assert res.records[0].leaf == 4

    def test_ignores_congestion(self):
        # All jobs pile on the same closest leaf.
        tree = caterpillar_tree(3, 1)
        inst = make_instance(
            tree, [Job(id=i, release=0.0, size=1.0) for i in range(5)]
        )
        res = simulate(inst, ClosestLeafAssignment())
        assert len({r.leaf for r in res.records.values()}) == 1

    def test_skips_forbidden(self):
        tree = star_of_paths(2, 1)
        inst = make_instance(
            tree,
            [Job(id=0, release=0.0, size=1.0, leaf_sizes={2: math.inf, 4: 5.0})],
            Setting.UNRELATED,
        )
        res = simulate(inst, ClosestLeafAssignment())
        assert res.records[0].leaf == 4


class TestRandom:
    def test_deterministic_with_seed(self):
        tree = star_of_paths(4, 1)
        jobs = [Job(id=i, release=float(i), size=1.0) for i in range(20)]
        a = simulate(make_instance(tree, jobs), RandomAssignment(3)).assignment()
        b = simulate(make_instance(tree, jobs), RandomAssignment(3)).assignment()
        assert a == b

    def test_spreads_over_leaves(self):
        tree = star_of_paths(4, 1)
        jobs = [Job(id=i, release=float(i), size=1.0) for i in range(40)]
        res = simulate(make_instance(tree, jobs), RandomAssignment(0))
        assert len({r.leaf for r in res.records.values()}) >= 3

    def test_respects_forbidden(self):
        tree = star_of_paths(2, 1)
        jobs = [
            Job(id=i, release=float(i), size=1.0, leaf_sizes={2: math.inf, 4: 1.0})
            for i in range(10)
        ]
        res = simulate(
            make_instance(tree, jobs, Setting.UNRELATED), RandomAssignment(1)
        )
        assert all(r.leaf == 4 for r in res.records.values())


class TestLeastLoaded:
    def test_balances_two_branches(self):
        tree = star_of_paths(2, 1)
        jobs = [Job(id=i, release=0.0, size=2.0) for i in range(4)]
        res = simulate(make_instance(tree, jobs), LeastLoadedAssignment())
        counts = {}
        for r in res.records.values():
            counts[r.leaf] = counts.get(r.leaf, 0) + 1
        assert set(counts.values()) == {2}

    def test_prefers_idle_branch(self):
        tree = star_of_paths(2, 1)
        jobs = [
            Job(id=0, release=0.0, size=10.0),
            Job(id=1, release=1.0, size=1.0),
        ]
        res = simulate(make_instance(tree, jobs), LeastLoadedAssignment())
        assert res.records[0].leaf != res.records[1].leaf


class TestRoundRobin:
    def test_cycles(self):
        tree = star_of_paths(3, 1)
        jobs = [Job(id=i, release=float(i), size=1.0) for i in range(6)]
        res = simulate(make_instance(tree, jobs), RoundRobinAssignment())
        leaves = [res.records[i].leaf for i in range(6)]
        assert leaves[:3] == leaves[3:]
        assert len(set(leaves[:3])) == 3

    def test_skips_forbidden(self):
        tree = star_of_paths(2, 1)
        jobs = [
            Job(id=i, release=float(i), size=1.0, leaf_sizes={2: math.inf, 4: 1.0})
            for i in range(4)
        ]
        res = simulate(
            make_instance(tree, jobs, Setting.UNRELATED), RoundRobinAssignment()
        )
        assert all(r.leaf == 4 for r in res.records.values())


class TestNoFeasibleLeafErrors:
    def test_policies_raise_for_infeasible_job(self):
        # Construct a view-level check via a job feasible only off-tree:
        # every tree leaf is inf -> Instance refuses construction, so this
        # is guarded upstream.  Instead verify the policy-level error by
        # calling with a job whose feasible leaf set is empty relative to
        # the tree (simulate can't be used; use the internal helper).
        from repro.baselines.policies import _feasible_leaves

        class FakeView:
            def __init__(self, tree):
                self.tree = tree

        tree = star_of_paths(2, 1)
        # leaves 2 and 4 are forbidden; only the off-tree leaf 9 is finite
        job = Job(
            id=0, release=0.0, size=1.0,
            leaf_sizes={2: math.inf, 4: math.inf, 9: 1.0},
        )
        with pytest.raises(AssignmentError, match="no feasible leaf"):
            _feasible_leaves(FakeView(tree), job)
