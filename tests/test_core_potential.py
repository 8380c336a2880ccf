"""Unit tests for the potential Phi_j and Lemma 2's volume quantity."""

from __future__ import annotations

import pytest

from repro.core.assignment import FixedAssignment, GreedyIdenticalAssignment
from repro.core.potential import higher_priority_volume, phi_potential
from repro.exceptions import AnalysisError
from repro.network.builders import spine_tree, star_of_paths
from repro.sim.engine import Engine, EngineSink
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet
from tests.conftest import StateProbe


def snapshot_phis(instance, policy, speeds, eps, after=0.0):
    """Collect (t, job, phi, clear_time) at every event >= after."""
    snaps = []

    def obs(view):
        if view.now < after:
            return
        tops = set(view.tree.root_children)
        for jid in view.alive_jobs():
            node = view.current_node_of(jid)
            if node is None or node in tops:
                continue
            snaps.append((view.now, jid, phi_potential(view, jid, eps)))

    result = Engine(instance, policy, speeds, sink=StateProbe(obs)).run()
    return snaps, result


class TestPhi:
    def test_single_job_phi_bounds_residual(self):
        # One job alone: Phi must still dominate its remaining pipeline time.
        tree = spine_tree(3)
        leaf = tree.leaves[0]
        instance = Instance(
            tree, JobSet([Job(id=0, release=0.0, size=2.0)]), Setting.IDENTICAL
        )
        eps = 0.5
        snaps, result = snapshot_phis(
            instance, FixedAssignment({0: leaf}), SpeedProfile.lemma1(eps), eps
        )
        clear = result.records[0].completion
        assert snaps, "expected snapshots while the job crossed the interior"
        for t, jid, phi in snaps:
            assert phi >= (clear - t) - 1e-9

    def test_phi_bounds_residual_under_contention(self):
        tree = star_of_paths(2, 3)
        jobs = JobSet(
            [Job(id=i, release=0.0, size=1.0 + (i % 2)) for i in range(10)]
        )
        instance = Instance(tree, jobs, Setting.IDENTICAL).rounded(0.5)
        eps = 0.5
        snaps, result = snapshot_phis(
            instance, GreedyIdenticalAssignment(eps), SpeedProfile.lemma1(eps), eps
        )
        clear = {jid: rec.completion for jid, rec in result.records.items()}
        # All jobs arrive at t=0, so "no more arrivals" holds throughout.
        for t, jid, phi in snaps:
            assert phi >= (clear[jid] - t) - 1e-9

    def test_phi_non_increasing_without_arrivals(self):
        tree = star_of_paths(2, 3)
        jobs = JobSet([Job(id=i, release=0.0, size=2.0) for i in range(8)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        eps = 0.5
        snaps, _ = snapshot_phis(
            instance, GreedyIdenticalAssignment(eps), SpeedProfile.lemma1(eps), eps
        )
        last = {}
        for t, jid, phi in snaps:
            if jid in last:
                assert phi <= last[jid] + 1e-7
            last[jid] = phi

    def test_done_job_phi_zero(self):
        tree = spine_tree(1)
        instance = Instance(
            tree, JobSet([Job(id=0, release=0.0, size=1.0)]), Setting.IDENTICAL
        )
        final = {}

        class Final(EngineSink):
            def attach(self, engine):
                self.view = engine.view

            def finalize(self, now):
                if not self.view.alive_jobs():
                    final["phi"] = phi_potential(self.view, 0, 0.5)

        Engine(instance, FixedAssignment({0: 2}), sink=Final()).run()
        assert final["phi"] == 0.0

    def test_eps_validation(self):
        tree = spine_tree(1)
        instance = Instance(
            tree, JobSet([Job(id=0, release=0.0, size=1.0)]), Setting.IDENTICAL
        )

        class Probe(EngineSink):
            def attach(self, engine):
                self.view = engine.view

            def on_arrival(self, time, job_id, leaf):
                with pytest.raises(AnalysisError):
                    phi_potential(self.view, 0, 0.0)

        Engine(instance, FixedAssignment({0: 2}), sink=Probe()).run()


class TestHigherPriorityVolume:
    def test_rejects_root_adjacent_node(self):
        tree = spine_tree(2)
        leaf = tree.leaves[0]
        instance = Instance(
            tree, JobSet([Job(id=0, release=0.0, size=1.0)]), Setting.IDENTICAL
        )
        top = tree.root_children[0]

        class Probe(EngineSink):
            def attach(self, engine):
                self.view = engine.view

            def on_arrival(self, time, job_id, leaf):
                with pytest.raises(AnalysisError, match="adjacent"):
                    higher_priority_volume(self.view, 0, top)

        Engine(instance, FixedAssignment({0: leaf}), sink=Probe()).run()

    def test_counts_only_available_higher_priority(self):
        # Two jobs head to the same leaf; when the big one sits at the
        # interior node and the small one is still at the top router, the
        # small one must NOT count (it is not available at the node).
        tree = spine_tree(2)  # router(1) -> router(2) -> leaf(3)
        leaf = tree.leaves[0]
        jobs = JobSet(
            [Job(id=0, release=0.0, size=4.0), Job(id=1, release=0.5, size=1.0)]
        )
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        values = []

        def obs(view):
            if 0 in view.alive_jobs() and view.current_node_of(0) == 2:
                values.append(higher_priority_volume(view, 0, 2))

        Engine(
            instance, FixedAssignment({0: leaf, 1: leaf}), sink=StateProbe(obs)
        ).run()
        # Job 0's own remaining is counted; job 1 only once it reaches node 2,
        # but by then job 1 (size 1) would be processed first anyway.  The
        # observed values must never exceed own remaining + job1's size.
        assert values
        assert all(v <= 4.0 + 1.0 + 1e-9 for v in values)

    def test_rejects_job_past_node(self):
        tree = spine_tree(2)
        leaf = tree.leaves[0]
        instance = Instance(
            tree, JobSet([Job(id=0, release=0.0, size=1.0)]), Setting.IDENTICAL
        )

        class Probe(EngineSink):
            def attach(self, engine):
                self.view = engine.view

            def on_hop_complete(self, time, job_id, node):
                if self.view.current_node_of(0) == leaf:
                    with pytest.raises(AnalysisError, match="does not still need"):
                        higher_priority_volume(self.view, 0, 2)

        Engine(instance, FixedAssignment({0: leaf}), sink=Probe()).run()
