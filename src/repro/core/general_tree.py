"""The general-tree algorithm ``A_T`` of Section 3.7.

The paper's algorithm for an arbitrary tree ``T`` does not score leaves
of ``T`` directly.  Instead it:

1. builds the broomstick ``T'`` of ``T`` (Section 3.3);
2. runs a *shadow simulation* of the broomstick algorithm ``A_{T'}`` on
   the same arrival sequence;
3. whenever the shadow assigns a job to leaf ``v'`` of ``T'``, assigns
   the job to the corresponding leaf of ``T``;
4. schedules every node of ``T`` with SJF.

Lemma 8 then shows each job finishes in ``A_T`` no later than in
``A_{T'}``.  Because ``A_{T'}`` is deterministic and its decision for a
job depends only on arrivals up to that instant, running the shadow
simulation over the full trace upfront yields exactly the decisions an
interleaved online shadow would make — so the implementation below is a
faithful (and simpler) realisation of the online algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import (
    FixedAssignment,
    GreedyIdenticalAssignment,
    GreedyUnrelatedAssignment,
)
from repro.network.broomstick import BroomstickReduction, reduce_to_broomstick
from repro.sim.engine import sjf_priority
from repro.sim.result import SimulationResult
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance, Setting

__all__ = ["GeneralTreeRun", "GeneralTreeScheduler", "run_general_tree"]


@dataclass(frozen=True)
class GeneralTreeRun:
    """Outcome of the general-tree algorithm.

    Attributes
    ----------
    result:
        The simulation of ``A_T`` on the original tree.
    shadow_result:
        The shadow simulation of ``A_{T'}`` on the broomstick.
    reduction:
        The broomstick reduction used to translate assignments.
    """

    result: SimulationResult
    shadow_result: SimulationResult
    reduction: BroomstickReduction

    @property
    def assignment(self) -> dict[int, int]:
        """``job id -> leaf of T``."""
        return self.result.assignment()


class GeneralTreeScheduler:
    """Builds and runs ``A_T`` for a given instance and ``ε``.

    Parameters
    ----------
    instance:
        The instance on the *original* tree ``T``.
    eps:
        The analysis parameter; controls the greedy weight ``6/ε²`` and
        the default speed profile.
    speeds:
        Speed profile applied to **both** ``T`` and ``T'`` (tiers
        transfer unchanged: root-adjacent nodes map to root-adjacent
        handle heads, everything else sits strictly below).  Defaults to
        the matching theorem profile for the instance's setting.
    """

    def __init__(
        self,
        instance: Instance,
        eps: float,
        speeds: SpeedProfile | None = None,
    ) -> None:
        self.instance = instance
        self.eps = eps
        if speeds is None:
            speeds = (
                SpeedProfile.theorem1(eps)
                if instance.setting is Setting.IDENTICAL
                else SpeedProfile.theorem2(eps)
            )
        self.speeds = speeds
        self.reduction = reduce_to_broomstick(instance.tree)

    def _shadow_policy(self):
        if self.instance.setting is Setting.IDENTICAL:
            return GreedyIdenticalAssignment(self.eps)
        return GreedyUnrelatedAssignment(self.eps)

    def run(
        self,
        *,
        record_segments: bool = False,
        check_invariants: bool = False,
    ) -> GeneralTreeRun:
        """Run the shadow on ``T'``, then ``A_T`` on ``T``, both on the
        backend ``REPRO_BACKEND`` selects."""
        from repro.sim.backends import simulate

        shadow = simulate(
            self.instance.on_broomstick(self.reduction),
            self._shadow_policy(),
            speeds=self.speeds,
            priority=sjf_priority,
            record_segments=record_segments,
            check_invariants=check_invariants,
        )

        inverse = self.reduction.inverse_leaf_map
        mapping = {
            job_id: inverse[leaf_prime]
            for job_id, leaf_prime in shadow.assignment().items()
        }
        result = simulate(
            self.instance,
            FixedAssignment(mapping),
            speeds=self.speeds,
            priority=sjf_priority,
            record_segments=record_segments,
            check_invariants=check_invariants,
        )
        return GeneralTreeRun(result=result, shadow_result=shadow, reduction=self.reduction)


def run_general_tree(
    instance: Instance,
    eps: float,
    speeds: SpeedProfile | None = None,
    *,
    record_segments: bool = False,
    check_invariants: bool = False,
) -> GeneralTreeRun:
    """Convenience wrapper around :class:`GeneralTreeScheduler`."""
    return GeneralTreeScheduler(instance, eps, speeds).run(
        record_segments=record_segments, check_invariants=check_invariants
    )
