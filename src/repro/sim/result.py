"""Simulation outputs: per-job records, schedule segments, and the
:class:`SimulationResult` bundle consumed by metrics, analysis, and the
dual-fitting machinery.

A result keeps its per-job outcome as five summary columns in arrival
order (id, release, leaf, completion, cancel time), and every summary
reader — flow times, completions, the assignment, the completeness
check — reduces those.  The full per-hop :class:`JobRecord` of each job
sits behind the read-only :class:`JobRecords` mapping: the python
engine's dict as is, or the compiled kernel's output rows, which become
records in one pass the first time a record is read.  This module is the
only one that knows that row layout.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.exceptions import SimulationError
from repro.sim.counters import EngineCounters
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance
from repro.workload.job import Job

__all__ = [
    "JobRecord",
    "JobRecords",
    "KernelRows",
    "ScheduleSegment",
    "SimulationResult",
    "flow_integrals",
]


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


class JobRecords(Mapping[int, JobRecord]):
    """Read-only ``job id -> JobRecord`` over a result's jobs, in arrival
    order.

    Backed by a dict (the python engine's records) or by the compiled
    kernel's output rows (:class:`KernelRows`).  From rows, the first
    record read builds every record in one pass and caches them;
    ``len``, iteration over ids and ``in`` read the id column and build
    nothing.  Item assignment raises ``TypeError``; the mapping pickles
    with its result.
    """

    __slots__ = ("_ids", "_records", "_rows", "_id_set")

    def __init__(
        self,
        ids: np.ndarray,
        records: dict[int, JobRecord] | None = None,
        *,
        rows: KernelRows | None = None,
    ) -> None:
        self._ids = ids
        self._records = records
        self._rows = rows
        self._id_set: set[int] | None = None

    def _dict(self) -> dict[int, JobRecord]:
        records = self._records
        if records is None:
            # The rows stay: a concurrent first read builds from them too.
            records = self._records = self._rows.records()
        return records

    def __getitem__(self, job_id: int) -> JobRecord:
        records = self._records
        if records is None:
            records = self._dict()
        return records[job_id]

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        records = self._records
        return iter(records if records is not None else self._ids.tolist())

    def __contains__(self, job_id: object) -> bool:
        records = self._records
        if records is not None:
            return job_id in records
        if self._id_set is None:
            self._id_set = set(self._ids.tolist())
        return job_id in self._id_set

    # The built dict's own views and ``==``: the ABC's would call
    # __getitem__ per key and copy both sides into new dicts.
    def values(self):
        return self._dict().values()

    def items(self):
        return self._dict().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, JobRecords):
            return self._dict() == other._dict()
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"JobRecords({self._dict()!r})"


class KernelRows(NamedTuple):
    """The compiled kernel's output rows for one run, every row in
    arrival order: what a :class:`JobRecords` builds its records from.

    ``path_id`` indexes ``paths``; ``avail`` and ``comp`` are
    ``n x max_path`` blocks of per-hop availability and completion
    times, filled up to ``avail_cnt`` and ``comp_cnt``; ``cancel`` is
    the cancel instant, NaN if none.
    """

    jobs: Sequence[Job]
    paths: Sequence[tuple[int, ...]]
    path_id: np.ndarray
    leaf: np.ndarray
    avail: np.ndarray
    avail_cnt: np.ndarray
    comp: np.ndarray
    comp_cnt: np.ndarray
    cancel: np.ndarray

    def records(self) -> dict[int, JobRecord]:
        """Every record in one bulk pass.  Each row drops to a plain
        python list up front (``tolist`` converts exactly), and ``map``
        builds the records from the lists."""
        jobs = self.jobs
        ids = [job.id for job in jobs]
        records = map(
            JobRecord,
            ids,
            [job.release for job in jobs],
            self.leaf.tolist(),
            [self.paths[p] for p in self.path_id.tolist()],
            _cut_rows(self.avail, self.avail_cnt),
            _cut_rows(self.comp, self.comp_cnt),
            # NaN marks a job no cancel withdrew.
            np.where(np.isnan(self.cancel), None, self.cancel).tolist(),
            [job.size_estimate for job in jobs],
        )
        return dict(zip(ids, records))


def _cut_rows(block: np.ndarray, counts: np.ndarray) -> list[list[float]]:
    """``block``'s rows as lists, each cut to its filled count (a full
    row is kept as is, no copy)."""
    rows = block.tolist()
    width = block.shape[1]
    if counts.min(initial=width) == width:
        return rows
    return [r if c == width else r[:c] for r, c in zip(rows, counts.tolist())]


def flow_integrals(
    releases: np.ndarray,
    completion_times: np.ndarray,
    cancel_times: np.ndarray,
    deficits: np.ndarray,
    now: float,
) -> tuple[float, float]:
    """``(alive_integral, fractional_flow)`` of per-job columns in
    arrival order, for both engines: a job's flow runs from its release
    to its cancel instant, else its completion, else ``now``, and its
    fractional flow subtracts its deficit (``∫ 1 − rem/p_leaf`` at its
    leaf).  Sequential prefix sums, since ``np.sum`` adds pairwise and
    would move the last bits; 0.0 with no jobs."""
    if not len(releases):
        return 0.0, 0.0
    end = np.where(np.isnan(cancel_times), completion_times, cancel_times)
    flow = np.where(np.isnan(end), now, end) - releases
    return float(np.cumsum(flow)[-1]), float(np.cumsum(flow - deficits)[-1])


#: The per-job summary columns of a :class:`SimulationResult`.
_COLUMNS = ("job_ids", "releases", "leaves", "completion_times", "cancel_times")


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
        Read-only ``job id -> JobRecord`` (:class:`JobRecords`) for every
        admitted job, in arrival order.
    job_ids, releases, leaves, completion_times, cancel_times:
        The per-job summary columns, in the same order as ``records``:
        id and leaf (int64), release ``r_j``, completion ``C_j`` (NaN
        until the job finishes) and cancel instant (NaN unless a
        ``Cancel`` event withdrew the job).  Every reader below reduces
        these; build results with :meth:`from_records` or, on the
        compiled kernel, from its output columns.  The columns are
        read-only, like ``records``, and ``==`` skips them: two results
        compare field by field on everything else.
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
    records: JobRecords
    job_ids: np.ndarray = field(compare=False)
    releases: np.ndarray = field(compare=False)
    leaves: np.ndarray = field(compare=False)
    completion_times: np.ndarray = field(compare=False)
    cancel_times: np.ndarray = field(compare=False)
    fractional_flow: float
    alive_integral: float
    num_events: int
    segments: list[ScheduleSegment] | None = None
    counters: EngineCounters | None = None
    trace: "SimulationTrace | None" = None

    def __post_init__(self) -> None:
        # A column shares its buffer with the kernel's rows on a c
        # result; read-only, it cannot drift from the records.
        for name in _COLUMNS:
            getattr(self, name).flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable.
        self.__dict__.update(state)
        self.__post_init__()

    @classmethod
    def from_records(
        cls, records: dict[int, JobRecord], **fields
    ) -> SimulationResult:
        """A result over a ``job id -> JobRecord`` dict in arrival order
        (the python engine's): the dict is wrapped, not copied, and the
        summary columns are read off it.  ``fields`` are the remaining
        constructor arguments."""
        recs = records.values()
        nan = float("nan")
        ids = np.fromiter(records, dtype=np.int64, count=len(records))
        # One list comprehension per column: cheaper per run than
        # generators fed to np.fromiter.
        return cls(
            records=JobRecords(ids, records),
            job_ids=ids,
            releases=np.array([r.release for r in recs], dtype=np.float64),
            leaves=np.array([r.leaf for r in recs], dtype=np.int64),
            completion_times=np.array(
                [
                    r.completed_at[-1] if len(r.completed_at) == len(r.path) else nan
                    for r in recs
                ],
                dtype=np.float64,
            ),
            cancel_times=np.array(
                [nan if r.cancelled_at is None else r.cancelled_at for r in recs],
                dtype=np.float64,
            ),
            **fields,
        )

    # ------------------------------------------------------------------
    def _in_flight(self) -> np.ndarray:
        """Mask of admitted jobs neither finished nor cancelled."""
        return np.isnan(self.completion_times) & np.isnan(self.cancel_times)

    def assignment(self) -> dict[int, int]:
        """``job id -> leaf id`` dispatch map."""
        return dict(zip(self.job_ids.tolist(), self.leaves.tolist()))

    def _records_where(self, mask: np.ndarray) -> dict[int, JobRecord]:
        if not mask.any():
            return {}
        records = self.records
        return {j: records[j] for j in self.job_ids[mask].tolist()}

    def completed_records(self) -> dict[int, JobRecord]:
        """Only the jobs that finished — the whole record set for a full
        run, a strict subset after a bounded-horizon run."""
        return self._records_where(~np.isnan(self.completion_times))

    def cancelled_records(self) -> dict[int, JobRecord]:
        """Only the jobs withdrawn by a ``Cancel`` event (empty for
        event-free runs)."""
        return self._records_where(~np.isnan(self.cancel_times))

    def unfinished_job_ids(self) -> tuple[int, ...]:
        """Ids of admitted jobs still in flight (bounded-horizon runs);
        cancelled jobs are terminal, not in flight."""
        return tuple(sorted(self.job_ids[self._in_flight()].tolist()))

    def completions(self) -> dict[int, float]:
        """``job id -> C_j`` over finished jobs (cancelled and in-flight
        jobs have no completion and are excluded)."""
        done = ~np.isnan(self.completion_times)
        return dict(
            zip(self.job_ids[done].tolist(), self.completion_times[done].tolist())
        )

    def flow_times(self) -> np.ndarray:
        """Per-job flow times in job-id order.

        Cancelled jobs never appear here: a withdrawn job has no
        completion, so it contributes to no flow-time statistic.  An
        unfinished *non-cancelled* job raises.
        """
        ids = self.job_ids
        order = np.argsort(ids, kind="stable")
        keep = order[np.isnan(self.cancel_times[order])]
        done = self.completion_times[keep]
        missing = np.isnan(done)
        if missing.any():
            first = ids[keep][missing][0]
            raise SimulationError(f"job {first} did not complete")
        return done - self.releases[keep]

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
        done = self.completion_times[~np.isnan(self.completion_times)]
        return float(done.max()) if done.size else 0.0

    def verify_complete(self) -> None:
        """Raise if any released job failed to reach a terminal state
        (finished, or cancelled by a dynamic event)."""
        unfinished = self.job_ids[self._in_flight()]
        if unfinished.size:
            raise SimulationError(
                f"jobs did not complete: {unfinished[:10].tolist()}"
            )

    def __repr__(self) -> str:
        in_flight = int(np.count_nonzero(self._in_flight()))
        flow = (
            f"in_flight={in_flight}"
            if in_flight
            else f"total_flow={self.total_flow_time():.3f}"
        )
        return (
            f"SimulationResult(jobs={len(self.records)}, {flow}, "
            f"fractional_flow={self.fractional_flow:.3f}, "
            f"events={self.num_events})"
        )
