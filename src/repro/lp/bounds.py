"""Combinatorial lower bounds on the optimal total flow time.

For instances too large for the LP of :mod:`repro.lp.primal`, three
relaxations bound the (unit-speed, non-migratory or migratory) optimum
from below:

* :func:`path_volume_bound` — every job's flow time is at least its
  cheapest path volume ``min_v P_{v,j}`` (Section 2).
* :func:`top_tier_bound` — every job must fully cross one root-adjacent
  node.  Relaxing the ``|R|`` root-adjacent nodes to a single machine of
  speed ``|R|`` (free migration and rate-splitting) and scheduling it
  with SRPT gives a valid lower bound on the total time jobs spend just
  clearing the first hop.
* :func:`leaf_tier_bound` — the same relaxation for the ``|L|`` leaves,
  with each job charged its *minimum* leaf processing time.

:func:`best_lower_bound` returns the largest of the three (they are
incomparable across workloads).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

from repro.exceptions import LPError
from repro.workload.instance import Instance

__all__ = [
    "srpt_single_machine_flow",
    "path_volume_bound",
    "top_tier_bound",
    "leaf_tier_bound",
    "best_lower_bound",
]


def srpt_single_machine_flow(
    releases: Sequence[float], sizes: Sequence[float], speed: float
) -> float:
    """Total flow time of preemptive SRPT on one machine of given speed.

    SRPT is optimal for single-machine total flow time, so this is the
    exact optimum of the relaxation, computed event-driven in
    ``O(n log n)``.
    """
    if speed <= 0:
        raise LPError(f"speed must be > 0, got {speed}")
    order = sorted(range(len(releases)), key=lambda i: (releases[i], i))
    heap: list[tuple[float, int]] = []  # (remaining, id)
    t = 0.0
    total_flow = 0.0
    k = 0
    n = len(order)
    while k < n or heap:
        if not heap:
            t = max(t, releases[order[k]])
        # admit everything released by t
        while k < n and releases[order[k]] <= t:
            i = order[k]
            heapq.heappush(heap, (float(sizes[i]), i))
            k += 1
        rem, i = heapq.heappop(heap)
        next_rel = releases[order[k]] if k < n else math.inf
        finish = t + rem / speed
        if finish <= next_rel:
            total_flow += finish - releases[i]
            t = finish
        else:
            rem -= speed * (next_rel - t)
            heapq.heappush(heap, (rem, i))
            t = next_rel
    return total_flow


def path_volume_bound(instance: Instance) -> float:
    """``Σ_j min_v P_{v,j}`` — the congestion-free lower bound."""
    return sum(instance.min_path_volume(job) for job in instance.jobs)


def top_tier_bound(instance: Instance) -> float:
    """SRPT relaxation of the root-adjacent tier (see module docstring)."""
    releases = [job.release for job in instance.jobs]
    sizes = [job.size for job in instance.jobs]
    width = len(instance.tree.root_children)
    return srpt_single_machine_flow(releases, sizes, float(width))


def leaf_tier_bound(instance: Instance) -> float:
    """SRPT relaxation of the leaf tier, charging each job its minimum
    finite leaf processing time."""
    releases = [job.release for job in instance.jobs]
    sizes = []
    for job in instance.jobs:
        best = min(
            (
                job.processing_on_leaf(v)
                for v in instance.tree.leaves
                if math.isfinite(job.processing_on_leaf(v))
            ),
        )
        sizes.append(best)
    width = instance.tree.num_leaves
    return srpt_single_machine_flow(releases, sizes, float(width))


def best_lower_bound(instance: Instance) -> tuple[float, str]:
    """The largest combinatorial bound and its name."""
    if len(instance.jobs) == 0:
        return 0.0, "empty"
    candidates = {
        "path_volume": path_volume_bound(instance),
        "top_tier_srpt": top_tier_bound(instance),
        "leaf_tier_srpt": leaf_tier_bound(instance),
    }
    name = max(candidates, key=lambda k: candidates[k])
    return candidates[name], name
