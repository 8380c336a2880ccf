"""Simulation outputs: per-job records, schedule segments, and the
:class:`SimulationResult` bundle consumed by metrics, analysis, and the
dual-fitting machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SimulationError
from repro.sim.counters import EngineCounters
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance

__all__ = ["JobRecord", "ScheduleSegment", "SimulationResult"]


@dataclass(slots=True)
class JobRecord:
    """Everything the simulator recorded about one job.

    Attributes
    ----------
    job_id:
        The job's id.
    release:
        Its arrival time ``r_j``.
    leaf:
        The leaf machine it was (immediately) dispatched to.
    path:
        The processing path — the nodes from ``R(leaf)`` down to ``leaf``.
    available_at:
        ``available_at[i]`` is the time the job became available to
        schedule on ``path[i]``; ``available_at[0] == release``.
    completed_at:
        ``completed_at[i]`` is the time the job finished processing on
        ``path[i]``.  The final entry is the completion time ``C_j``.
    cancelled_at:
        ``None`` unless the job was withdrawn mid-run by a
        :class:`~repro.workload.events.Cancel` event, in which case this
        is the cancellation instant — a *terminal* state distinct from
        completion (``finished`` stays false; the job is excluded from
        flow-time metrics).
    size_estimate:
        The declared size estimate the assignment policy saw (``None``
        for fully-known sizes) — recorded so traces and audits can
        reconstruct the policy's information set.
    """

    job_id: int
    release: float
    leaf: int
    path: tuple[int, ...]
    available_at: list[float] = field(default_factory=list)
    completed_at: list[float] = field(default_factory=list)
    cancelled_at: float | None = None
    size_estimate: float | None = None

    @property
    def completion(self) -> float:
        """``C_j`` — completion on the leaf."""
        if len(self.completed_at) != len(self.path):
            raise SimulationError(f"job {self.job_id} did not complete")
        return self.completed_at[-1]

    @property
    def flow_time(self) -> float:
        """``C_j − r_j``."""
        return self.completion - self.release

    @property
    def finished(self) -> bool:
        """Whether the job completed on its leaf."""
        return len(self.completed_at) == len(self.path)

    @property
    def cancelled(self) -> bool:
        """Whether the job ended in the cancelled terminal state."""
        return self.cancelled_at is not None

    def time_on_node(self, i: int) -> float:
        """Wall-clock the job spent associated with ``path[i]``
        (waiting plus processing)."""
        return self.completed_at[i] - self.available_at[i]


@dataclass(frozen=True, slots=True)
class ScheduleSegment:
    """A maximal interval during which ``node`` processed ``job_id``.

    Only recorded when the engine is run with ``record_segments=True``;
    the dual-fitting and LP-comparison machinery replays these.
    """

    node: int
    job_id: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SimulationResult:
    """The full outcome of one simulation run.

    Attributes
    ----------
    instance:
        The simulated instance.
    speeds:
        The speed profile the algorithm ran with.
    records:
        ``job id -> JobRecord`` for every released job.
    fractional_flow:
        The paper's fractional flow time: the exact integral of the sum
        over alive jobs of the remaining fraction on their assigned leaf.
    alive_integral:
        Exact integral of the number of alive jobs — equals the total
        (integral) flow time; kept as an independent cross-check.
    num_events:
        Number of engine events processed.
    segments:
        Schedule segments if recording was enabled, else ``None``.
    counters:
        :class:`~repro.sim.counters.EngineCounters` for the run when the
        engine collected them (``collect_counters=True`` or the global
        switch), else ``None``.
    trace:
        What the engine's ``sink=`` built: the structured
        :class:`~repro.obs.trace.SimulationTrace` for a
        :class:`~repro.obs.trace.TraceRecorder`, else ``None``.
    """

    instance: Instance
    speeds: SpeedProfile
    records: dict[int, JobRecord]
    fractional_flow: float
    alive_integral: float
    num_events: int
    segments: list[ScheduleSegment] | None = None
    counters: EngineCounters | None = None
    trace: "SimulationTrace | None" = None

    # ------------------------------------------------------------------
    def assignment(self) -> dict[int, int]:
        """``job id -> leaf id`` dispatch map."""
        return {j: rec.leaf for j, rec in self.records.items()}

    def completed_records(self) -> dict[int, JobRecord]:
        """Only the jobs that finished — the whole record set for a full
        run, a strict subset after a bounded-horizon run."""
        return {j: rec for j, rec in self.records.items() if rec.finished}

    def cancelled_records(self) -> dict[int, JobRecord]:
        """Only the jobs withdrawn by a ``Cancel`` event (empty for
        event-free runs)."""
        return {j: rec for j, rec in self.records.items() if rec.cancelled}

    def unfinished_job_ids(self) -> tuple[int, ...]:
        """Ids of admitted jobs still in flight (bounded-horizon runs);
        cancelled jobs are terminal, not in flight."""
        return tuple(
            sorted(
                j
                for j, rec in self.records.items()
                if not rec.finished and not rec.cancelled
            )
        )

    def completions(self) -> dict[int, float]:
        """``job id -> C_j`` over finished jobs (cancelled jobs have no
        completion and are excluded)."""
        return {
            j: rec.completion
            for j, rec in self.records.items()
            if not rec.cancelled
        }

    def flow_times(self) -> np.ndarray:
        """Per-job flow times in job-id order.

        Cancelled jobs never appear here: a withdrawn job has no
        completion, so it contributes to no flow-time statistic.  An
        unfinished *non-cancelled* record still raises, exactly as
        before.
        """
        return np.array(
            [
                self.records[j].flow_time
                for j in sorted(self.records)
                if not self.records[j].cancelled
            ],
            dtype=float,
        )

    def total_flow_time(self) -> float:
        """``Σ_j (C_j − r_j)``."""
        return float(self.flow_times().sum())

    def mean_flow_time(self) -> float:
        """Average flow time."""
        flows = self.flow_times()
        return float(flows.mean()) if flows.size else 0.0

    def max_flow_time(self) -> float:
        """Maximum flow time over jobs."""
        flows = self.flow_times()
        return float(flows.max()) if flows.size else 0.0

    def makespan(self) -> float:
        """Latest completion time among finished jobs."""
        return max(
            (r.completion for r in self.records.values() if r.finished),
            default=0.0,
        )

    def verify_complete(self) -> None:
        """Raise if any released job failed to reach a terminal state
        (finished, or cancelled by a dynamic event)."""
        unfinished = [
            j for j, r in self.records.items() if not r.finished and not r.cancelled
        ]
        if unfinished:
            raise SimulationError(f"jobs did not complete: {unfinished[:10]}")

    def __repr__(self) -> str:
        return (
            f"SimulationResult(jobs={len(self.records)}, "
            f"total_flow={self.total_flow_time():.3f}, "
            f"fractional_flow={self.fractional_flow:.3f}, "
            f"events={self.num_events})"
        )
