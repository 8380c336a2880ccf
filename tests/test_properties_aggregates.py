"""Property test: incremental congestion aggregates vs brute-force scan.

The engine maintains per-node through-counts (``|Q_v(t)|``), remaining
through-volumes, and queued volumes incrementally at the three mutation
points (release, hop advance, settle).  On random trees and workloads —
identical and unrelated settings, greedy and randomised policies — the
O(1) reads (``jobs_through_count`` / ``volume_through`` /
``queue_volume_at``) must agree with a brute-force recomputation from
public view state at every engine event.
"""

from __future__ import annotations

from repro.analysis.experiments.workloads import identical_instance, unrelated_instance
from repro.baselines.policies import RandomAssignment
from repro.core.assignment import GreedyIdenticalAssignment, GreedyUnrelatedAssignment
from repro.network.builders import kary_tree, random_tree, star_of_paths
from repro.sim.engine import simulate
from tests.conftest import StateProbe

# Volumes are sums of O(alive) float terms accumulated in different
# orders by the aggregates and the scan; tolerance is relative to scale.
RTOL = 1e-9


def brute_aggregates(view, node) -> tuple[int, float, float]:
    """(count, through volume, queued volume) at ``node`` recomputed from
    public view queries only."""
    count = 0
    volume = 0.0
    queued = 0.0
    instance = view.instance
    for jid in view.alive_jobs():
        cur = view.current_node_of(jid)
        if cur is None:
            continue
        path = instance.processing_path_for(view.job(jid), view.assigned_leaf(jid))
        if node not in path:
            continue
        pos = path.index(node)
        cur_pos = path.index(cur)
        if pos < cur_pos:
            continue
        count += 1
        rem = (
            view.remaining_on(jid, node)
            if pos == cur_pos
            else instance.processing_time(view.job(jid), node)
        )
        volume += rem
        if pos == cur_pos:
            queued += rem
    return count, volume, queued


def check_instance(instance, policy):
    nodes = [n.id for n in instance.tree if not n.is_root]
    checked = {"events": 0}

    def obs(view):
        checked["events"] += 1
        for v in nodes:
            count, volume, queued = brute_aggregates(view, v)
            got_count = view.jobs_through_count(v)
            assert got_count == count, (
                f"jobs_through_count({v}) diverged at t={view.now}: "
                f"aggregate={got_count} scan={count}"
            )
            got_volume = view.volume_through(v)
            tol = RTOL * max(1.0, volume)
            assert abs(got_volume - volume) <= tol, (
                f"volume_through({v}) drifted at t={view.now}: "
                f"aggregate={got_volume} scan={volume}"
            )
            got_queued = view.queue_volume_at(v)
            tol = RTOL * max(1.0, queued)
            assert abs(got_queued - queued) <= tol, (
                f"queue_volume_at({v}) drifted at t={view.now}: "
                f"aggregate={got_queued} scan={queued}"
            )

    simulate(instance, policy, sink=StateProbe(obs))
    assert checked["events"] > 0


class TestAggregatesMatchScan:
    def test_random_trees_identical_greedy(self):
        for seed in (0, 1, 2):
            tree = random_tree(14, rng=seed)
            instance = identical_instance(tree, 20, load=0.95, seed=seed)
            check_instance(instance, GreedyIdenticalAssignment(0.25))

    def test_random_trees_random_policy(self):
        for seed in (3, 4):
            tree = random_tree(12, rng=seed)
            instance = identical_instance(tree, 15, load=0.9, seed=seed + 100)
            check_instance(instance, RandomAssignment(seed))

    def test_unrelated_setting_greedy(self):
        # Unrelated leaf times make through-volume differ from size on
        # the leaf, exercising the p_leaf correction at release.
        for seed in (5, 6):
            tree = kary_tree(2, 3)
            instance = unrelated_instance(tree, 16, load=0.9, seed=seed)
            check_instance(instance, GreedyUnrelatedAssignment(0.5))

    def test_deep_paths_interior_nodes(self):
        # Depth-3 paths give interior nodes whose queued volume differs
        # from the full through volume (work still upstream).
        instance = identical_instance(star_of_paths(3, 3), 18, load=0.95, seed=7)
        check_instance(instance, GreedyIdenticalAssignment(0.5))

    def test_exact_zero_when_empty(self):
        # After a lone job completes, every aggregate must return to an
        # exact 0 / 0.0 (no float residue leaks into later decisions).
        tree = kary_tree(2, 2)
        instance = identical_instance(tree, 1, load=0.5, seed=9)
        final = {}

        def obs(view):
            final["state"] = [
                (view.jobs_through_count(v), view.volume_through(v), view.queue_volume_at(v))
                for v in (n.id for n in tree if not n.is_root)
            ]

        simulate(instance, GreedyIdenticalAssignment(0.25), sink=StateProbe(obs))
        for count, volume, queued in final["state"]:
            assert count == 0
            assert volume == 0.0
            assert queued == 0.0
