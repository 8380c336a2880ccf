"""Metrics over simulation results.

Beyond the headline objectives (total/mean flow time, already on
:class:`~repro.sim.result.SimulationResult`), this module provides the
decompositions the paper's lemmas are stated in terms of:

* :func:`waiting_decomposition` — per job, the wall-clock spent at the
  root-adjacent node, on interior identical nodes, and at the leaf
  (Lemma 4's three terms);
* :func:`interior_delay` — the time from leaving ``R(v)`` until
  completion on the *last identical node* of the path, the quantity
  Lemma 1 bounds by ``(6/ε²)·p_j·d_v``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import AnalysisError
from repro.sim.result import JobRecord, SimulationResult
from repro.workload.instance import Setting

__all__ = [
    "total_flow_time",
    "mean_flow_time",
    "flow_time_per_job",
    "max_stretch",
    "interior_delay",
    "normalized_interior_delay",
    "WaitingBreakdown",
    "waiting_decomposition",
]


def total_flow_time(result: SimulationResult) -> float:
    """``Σ_j (C_j − r_j)``."""
    return result.total_flow_time()


def mean_flow_time(result: SimulationResult) -> float:
    """Average flow time over jobs."""
    return result.mean_flow_time()


def flow_time_per_job(result: SimulationResult) -> dict[int, float]:
    """``job id -> C_j − r_j``."""
    return {j: rec.flow_time for j, rec in result.records.items()}


def max_stretch(result: SimulationResult) -> float:
    """Maximum over jobs of flow time divided by the job's minimum
    possible path volume (a scale-free slowdown measure)."""
    instance = result.instance
    worst = 0.0
    for rec in result.records.values():
        job = instance.jobs.by_id(rec.job_id)
        lower = instance.min_path_volume(job)
        if lower <= 0:
            raise AnalysisError(f"job {rec.job_id} has non-positive path volume")
        worst = max(worst, rec.flow_time / lower)
    return worst


def _last_identical_index(record: JobRecord, setting: Setting) -> int:
    """Index on the processing path of the last *identical* node.

    In the identical setting every node (including the leaf) is
    identical; in the unrelated-endpoint setting the leaf is unrelated,
    so the last identical node is the router just above it.
    """
    if setting is Setting.IDENTICAL:
        return len(record.path) - 1
    return len(record.path) - 2


def interior_delay(result: SimulationResult, job_id: int) -> float:
    """Time from completing on ``R(v)`` to completing on the last
    identical node of the path (Lemma 1's quantity).

    Zero for paths whose last identical node *is* ``R(v)``.
    """
    rec = result.records[job_id]
    last = _last_identical_index(rec, result.instance.setting)
    if last <= 0:
        return 0.0
    return rec.completed_at[last] - rec.completed_at[0]


def normalized_interior_delay(result: SimulationResult, job_id: int) -> float:
    """:func:`interior_delay` divided by ``p_j · d_v`` — directly
    comparable to Lemma 1's ``6/ε²`` constant."""
    rec = result.records[job_id]
    job = result.instance.jobs.by_id(job_id)
    # Path length == d_v for root-origin jobs; for the arbitrary-arrival
    # extension it is the origin-relative analogue.
    d_v = len(rec.path)
    return interior_delay(result, job_id) / (job.size * d_v)


@dataclass(frozen=True, slots=True)
class WaitingBreakdown:
    """Per-job wall-clock decomposition along the path (Lemma 4's terms).

    Attributes
    ----------
    at_top:
        Time associated with the root-adjacent node ``R(v)`` (waiting
        plus processing there).
    interior:
        Time on identical nodes strictly between ``R(v)`` and the last
        identical node.
    at_leaf:
        Time associated with the final node of the path (for unrelated
        endpoints, the unrelated machine).
    """

    at_top: float
    interior: float
    at_leaf: float

    @property
    def total(self) -> float:
        return self.at_top + self.interior + self.at_leaf


def waiting_decomposition(result: SimulationResult, job_id: int) -> WaitingBreakdown:
    """Split a job's flow time into Lemma 4's three phases."""
    rec = result.records[job_id]
    at_top = rec.completed_at[0] - rec.available_at[0]
    at_leaf = rec.completed_at[-1] - rec.available_at[-1]
    interior = rec.flow_time - at_top - at_leaf
    if len(rec.path) == 1:  # leaf adjacent to root (only in permissive tests)
        return WaitingBreakdown(at_top=at_top, interior=0.0, at_leaf=0.0)
    return WaitingBreakdown(at_top=at_top, interior=max(interior, 0.0), at_leaf=at_leaf)
