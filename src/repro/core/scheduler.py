"""High-level entry points for the paper's algorithm.

:func:`run_paper_algorithm` is the one-call API: given an instance and
``ε`` it wires the right greedy assignment policy, the right theorem
speed profile, SJF everywhere, and — when the tree is not already a
broomstick — the general-tree construction of Section 3.7.
"""

from __future__ import annotations

from repro.core.assignment import (
    GreedyIdenticalAssignment,
    GreedyUnrelatedAssignment,
)
from repro.core.general_tree import run_general_tree
from repro.exceptions import SimulationError
from repro.sim.engine import Engine, sjf_priority
from repro.sim.result import SimulationResult
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance, Setting

__all__ = ["run_broomstick_algorithm", "run_paper_algorithm", "default_speeds"]


def default_speeds(instance: Instance, eps: float) -> SpeedProfile:
    """The theorem speed profile matching the instance's setting:
    Theorem 1's for identical endpoints, Theorem 2's for unrelated."""
    if instance.setting is Setting.IDENTICAL:
        return SpeedProfile.theorem1(eps)
    return SpeedProfile.theorem2(eps)


def _greedy_policy(instance: Instance, eps: float):
    if instance.setting is Setting.IDENTICAL:
        return GreedyIdenticalAssignment(eps)
    return GreedyUnrelatedAssignment(eps)


def run_broomstick_algorithm(
    instance: Instance,
    eps: float,
    speeds: SpeedProfile | None = None,
    *,
    record_segments: bool = False,
    check_invariants: bool = False,
) -> SimulationResult:
    """Run the broomstick algorithm of Sections 3.4–3.6 directly.

    Requires the instance's tree to be a broomstick; for general trees
    use :func:`run_paper_algorithm`.
    """
    if not instance.tree.is_broomstick():
        raise SimulationError(
            "tree is not a broomstick; use run_paper_algorithm for general trees"
        )
    return Engine(
        instance,
        _greedy_policy(instance, eps),
        speeds or default_speeds(instance, eps),
        priority=sjf_priority,
        record_segments=record_segments,
        check_invariants=check_invariants,
    ).run()


def run_paper_algorithm(
    instance: Instance,
    eps: float,
    speeds: SpeedProfile | None = None,
    *,
    record_segments: bool = False,
    check_invariants: bool = False,
) -> SimulationResult:
    """Run the paper's full online algorithm on any legal tree.

    On a broomstick this is the direct greedy algorithm; otherwise it is
    the shadow-simulation construction of Section 3.7 (the returned
    result is the run on the *original* tree).
    """
    if instance.tree.is_broomstick():
        return run_broomstick_algorithm(
            instance,
            eps,
            speeds,
            record_segments=record_segments,
            check_invariants=check_invariants,
        )
    return run_general_tree(
        instance,
        eps,
        speeds,
        record_segments=record_segments,
        check_invariants=check_invariants,
    ).result
