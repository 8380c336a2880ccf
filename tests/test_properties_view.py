"""Property test: ``SchedulerView.jobs_through`` shortcut consistency.

``jobs_through(v)`` (the paper's ``Q_v(t)``) takes three code paths —
the root-adjacent shortcut (node heap), the leaf shortcut (alive-at-leaf
index), and the general alive-set scan.  On random trees and workloads,
at every engine event, each path must agree with a brute-force
recomputation from public view state only.
"""

from __future__ import annotations

import random

from repro.analysis.experiments.workloads import identical_instance
from repro.baselines.policies import RandomAssignment
from repro.core.assignment import GreedyIdenticalAssignment
from repro.network.builders import kary_tree, random_tree, star_of_paths
from repro.sim.engine import simulate
from tests.conftest import StateProbe


def brute_jobs_through(view, node) -> set[int]:
    """``Q_v(t)`` recomputed from public queries only: released jobs with
    ``v`` on their processing path, not yet completed on ``v``."""
    out = set()
    for jid in view.alive_jobs():
        cur = view.current_node_of(jid)
        if cur is None:
            continue
        path = view.instance.processing_path_for(
            view.job(jid), view.assigned_leaf(jid)
        )
        if node in path and path.index(node) >= path.index(cur):
            out.add(jid)
    return out


def check_instance(instance, policy, sample_every=1):
    tree = instance.tree
    nodes = [n.id for n in tree if not n.is_root]
    # The tree must exercise all three code paths at least structurally.
    calls = {"checked": 0}

    def obs(view):
        calls["checked"] += 1
        if calls["checked"] % sample_every:
            return
        for v in nodes:
            got = set(view.jobs_through(v))
            want = brute_jobs_through(view, v)
            assert got == want, (
                f"jobs_through({v}) diverged at t={view.now}: "
                f"shortcut={sorted(got)} scan={sorted(want)}"
            )

    simulate(instance, policy, sink=StateProbe(obs))
    assert calls["checked"] > 0


class TestJobsThroughAgreement:
    def test_random_trees_greedy(self):
        for seed in (0, 1, 2):
            tree = random_tree(14, rng=seed)
            instance = identical_instance(tree, 20, load=0.95, seed=seed)
            check_instance(instance, GreedyIdenticalAssignment(0.25))

    def test_random_trees_random_policy(self):
        rng = random.Random(7)
        for seed in (3, 4):
            tree = random_tree(10 + rng.randrange(8), rng=seed)
            instance = identical_instance(tree, 15, load=0.9, seed=seed + 100)
            check_instance(instance, RandomAssignment(seed))

    def test_deep_paths_cover_interior_scan(self):
        # Interior (non-root-adjacent, non-leaf) nodes force the general
        # alive-set scan; depth-3 paths have one per branch.
        instance = identical_instance(star_of_paths(3, 3), 18, load=0.95, seed=5)
        check_instance(instance, GreedyIdenticalAssignment(0.5))

    def test_kary_tree_has_all_three_paths(self):
        tree = kary_tree(2, 3)
        depths = {tree.depth(n.id) for n in tree if not n.is_root}
        assert len(depths) >= 3  # root-adjacent, interior, leaf tiers
        instance = identical_instance(tree, 20, load=0.9, seed=9)
        check_instance(instance, GreedyIdenticalAssignment(0.25))
