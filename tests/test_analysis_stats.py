"""Unit tests for replication statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import summarize
from repro.exceptions import AnalysisError


class TestReplicate:
    def test_constant_measure(self):
        rep = summarize([5.0] * 5)
        assert rep.mean == 5.0
        assert rep.std == 0.0
        assert rep.ci_low == rep.ci_high == 5.0

    def test_seed_is_passed_through(self):
        rep = summarize([1.0, 2.0, 3.0])
        assert rep.values == (1.0, 2.0, 3.0)
        assert rep.mean == 2.0

    def test_ci_covers_true_mean(self):
        rng = np.random.default_rng(0)

        def measure(seed: int) -> float:
            return float(np.random.default_rng(seed).normal(10.0, 2.0))

        rep = summarize([measure(s) for s in range(40)], level=0.95)
        assert rep.ci_low <= 10.0 <= rep.ci_high

    def test_ci_narrows_with_more_seeds(self):
        def measure(seed: int) -> float:
            return float(np.random.default_rng(seed).normal(0.0, 1.0))

        narrow = summarize([measure(s) for s in range(64)])
        wide = summarize([measure(s) for s in range(8)])
        assert narrow.half_width < wide.half_width

    def test_level_controls_width(self):
        def measure(seed: int) -> float:
            return float(np.random.default_rng(seed).normal(0.0, 1.0))

        c90 = summarize([measure(s) for s in range(16)], level=0.90)
        c99 = summarize([measure(s) for s in range(16)], level=0.99)
        assert c99.half_width > c90.half_width

    def test_too_few_seeds(self):
        with pytest.raises(AnalysisError, match="at least 2"):
            summarize([1.0])

    def test_unknown_level(self):
        with pytest.raises(AnalysisError, match="level"):
            summarize([1.0, 1.0], level=0.5)

    def test_str_rendering(self):
        rep = summarize([0.0, 2.0])
        assert "±" in str(rep)


class TestEndToEndReplication:
    def test_policy_comparison_is_statistically_stable(self):
        """Greedy beats closest-leaf with non-overlapping CIs across
        seeds on a congested instance."""
        from repro.analysis.experiments.workloads import identical_instance
        from repro.baselines.policies import ClosestLeafAssignment
        from repro.core.assignment import GreedyIdenticalAssignment
        from repro.network.builders import kary_tree
        from repro.sim.engine import simulate

        tree = kary_tree(2, 3)

        def mean_flow(policy_factory, seed: int) -> float:
            instance = identical_instance(tree, 30, load=0.95, seed=seed)
            return simulate(instance, policy_factory()).mean_flow_time()

        greedy = summarize(
            [mean_flow(lambda: GreedyIdenticalAssignment(0.5), s) for s in range(8)]
        )
        closest = summarize([mean_flow(ClosestLeafAssignment, s) for s in range(8)])
        assert greedy.ci_high < closest.ci_low
