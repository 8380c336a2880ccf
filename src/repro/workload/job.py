"""Job and job-set objects.

A :class:`Job` carries the data of the paper's ``J_j``: a release time
``r_j``, a router processing time ``p_j`` (the data size — the time the
job occupies any identical node), and, in the unrelated-endpoint setting,
a per-leaf processing-time mapping ``p_{j,v}``.

:class:`JobSet` is an immutable ordered collection with numpy views used
by the workload generators and the metrics layer.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.exceptions import WorkloadError

__all__ = ["Job", "JobSet"]


@dataclass(frozen=True, slots=True)
class Job:
    """A single job.

    Attributes
    ----------
    id:
        Unique non-negative identifier; also the deterministic tie-break
        of last resort in SJF ordering.
    release:
        Arrival time ``r_j`` at the root (non-negative).
    size:
        Router processing time ``p_j`` (strictly positive, finite).  In
        the identical setting this is also the leaf processing time.
    leaf_sizes:
        ``None`` in the identical setting.  In the unrelated-endpoint
        setting, a mapping ``leaf id -> p_{j,v}``; ``math.inf`` marks a
        leaf the job cannot run on.  At least one leaf must be finite.
        Treated as immutable like the job itself: an
        :class:`~repro.workload.instance.Instance` keeps a matrix built
        from these mappings, so mutating one afterwards leaves it stale.
    origin:
        Node the job's data is created at.  ``None`` (the default) means
        the root — the paper's model.  A router id enables the
        arbitrary-arrival extension the paper's conclusion poses as
        future work: the job is routed only through nodes strictly below
        its origin and must be assigned to a leaf of the origin's
        subtree.  Validated against the tree by
        :class:`~repro.workload.instance.Instance`.
    size_estimate:
        ``None`` (the default) means the size is known at release — the
        paper's model.  A positive float marks a *partial-information*
        job: assignment policies see only this estimate (the engine
        masks ``size`` before ``policy.assign``); the true ``size``
        still drives processing and node priorities, and is revealed at
        completion (the ``reveal`` trace event).  Identical setting
        only — estimates cannot be combined with ``leaf_sizes``.
    """

    id: int
    release: float
    size: float
    leaf_sizes: Mapping[int, float] | None = field(default=None)
    origin: int | None = field(default=None)
    size_estimate: float | None = field(default=None)

    def __post_init__(self) -> None:
        if self.id < 0:
            raise WorkloadError(f"job id must be non-negative, got {self.id}")
        if not math.isfinite(self.release) or self.release < 0:
            raise WorkloadError(
                f"job {self.id}: release must be finite and >= 0, got {self.release}"
            )
        if not math.isfinite(self.size) or self.size <= 0:
            raise WorkloadError(
                f"job {self.id}: size must be finite and > 0, got {self.size}"
            )
        if self.leaf_sizes is not None:
            if not self.leaf_sizes:
                raise WorkloadError(f"job {self.id}: empty leaf_sizes mapping")
            finite = False
            for leaf, p in self.leaf_sizes.items():
                if math.isnan(p) or p <= 0:
                    raise WorkloadError(
                        f"job {self.id}: leaf {leaf} processing time must be > 0 "
                        f"(inf allowed for forbidden leaves), got {p}"
                    )
                finite = finite or math.isfinite(p)
            if not finite:
                raise WorkloadError(
                    f"job {self.id}: no leaf has a finite processing time"
                )
        if self.origin is not None and self.origin < 0:
            raise WorkloadError(
                f"job {self.id}: origin must be a node id >= 0, got {self.origin}"
            )
        if self.size_estimate is not None:
            if self.leaf_sizes is not None:
                raise WorkloadError(
                    f"job {self.id}: size_estimate requires the identical "
                    "setting (cannot combine with leaf_sizes)"
                )
            if not math.isfinite(self.size_estimate) or self.size_estimate <= 0:
                raise WorkloadError(
                    f"job {self.id}: size_estimate must be finite and > 0, "
                    f"got {self.size_estimate}"
                )

    @property
    def is_unrelated(self) -> bool:
        """Whether the job carries per-leaf processing times."""
        return self.leaf_sizes is not None

    def processing_on_leaf(self, leaf: int) -> float:
        """``p_{j,v}`` for leaf ``v`` (``p_j`` in the identical setting)."""
        if self.leaf_sizes is None:
            return self.size
        try:
            return self.leaf_sizes[leaf]
        except KeyError:
            raise WorkloadError(
                f"job {self.id}: leaf {leaf} missing from leaf_sizes"
            ) from None

    def with_leaf_sizes(self, leaf_sizes: Mapping[int, float] | None) -> "Job":
        """A copy of this job with a different per-leaf mapping."""
        return Job(
            self.id, self.release, self.size, leaf_sizes, self.origin,
            self.size_estimate,
        )

    @property
    def policy_size(self) -> float:
        """The size an assignment policy is allowed to read: the
        estimate when one is set, else the true size."""
        return self.size if self.size_estimate is None else self.size_estimate

    def masked(self) -> "Job":
        """The policy-facing view of this job: ``size`` replaced by the
        estimate.  Identity when no estimate is set."""
        if self.size_estimate is None:
            return self
        return Job(
            self.id, self.release, self.size_estimate, None, self.origin,
            self.size_estimate,
        )


class JobSet:
    """An immutable collection of jobs ordered by release time.

    Jobs are stored sorted by ``(release, id)``; duplicate ids are
    rejected.  The paper assumes distinct arrival times for analysis but
    the implementation tolerates ties, resolving them by id.

    The per-job columns (:meth:`releases`, :meth:`sizes`,
    :meth:`job_ids`, :meth:`policy_sizes`, :meth:`origins`,
    :meth:`size_ranks`) are built on first use and kept, read-only: jobs
    are frozen, so a column never goes stale.  The kept columns are not
    pickled.
    """

    __slots__ = ("_jobs", "_by_id", "_kept")

    def __init__(self, jobs: Sequence[Job]) -> None:
        ordered = sorted(jobs, key=lambda j: (j.release, j.id))
        by_id: dict[int, Job] = {}
        for job in ordered:
            if job.id in by_id:
                raise WorkloadError(f"duplicate job id {job.id}")
            by_id[job.id] = job
        self._jobs: tuple[Job, ...] = tuple(ordered)
        self._by_id = by_id

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __getitem__(self, index: int) -> Job:
        return self._jobs[index]

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._by_id

    def by_id(self, job_id: int) -> Job:
        """The job with the given id."""
        try:
            return self._by_id[job_id]
        except KeyError:
            raise WorkloadError(f"unknown job id {job_id}") from None

    @property
    def ids(self) -> tuple[int, ...]:
        """Job ids in release order."""
        return tuple(j.id for j in self._jobs)

    def _keep(self, name: str, build) -> np.ndarray:
        """``build()`` made read-only, built on first use and kept."""
        try:
            kept = self._kept
        except AttributeError:  # new or unpickled: nothing built yet
            kept = self._kept = {}
        col = kept.get(name)
        if col is None:
            col = build()
            col.flags.writeable = False
            kept[name] = col
        return col

    def _column(self, attr: str, dtype) -> np.ndarray:
        """``job.<attr>`` over the jobs in release order, kept."""
        return self._keep(attr, lambda: np.fromiter(
            map(attrgetter(attr), self._jobs), dtype=dtype, count=len(self._jobs)
        ))

    def __getstate__(self):
        # The kept columns stay behind: unpickled arrays come back
        # writable, and they are cheap to rebuild.
        return None, {"_jobs": self._jobs, "_by_id": self._by_id}

    def releases(self) -> np.ndarray:
        """Release times in release order, as a read-only float array."""
        return self._column("release", np.float64)

    def sizes(self) -> np.ndarray:
        """Router sizes ``p_j`` in release order, as a read-only float
        array."""
        return self._column("size", np.float64)

    def job_ids(self) -> np.ndarray:
        """Job ids in release order, as a read-only int64 array."""
        return self._column("id", np.int64)

    def policy_sizes(self) -> np.ndarray:
        """:attr:`Job.policy_size` in release order — what assignment
        policies may read — as a read-only float array (:meth:`sizes`
        itself when no job carries an estimate)."""
        def build():
            estimates = list(map(attrgetter("size_estimate"), self._jobs))
            if estimates.count(None) == len(estimates):
                return self.sizes()
            return self._column("policy_size", np.float64)

        return self._keep("policy_sizes", build)

    def origins(self) -> np.ndarray:
        """Job origins in release order, as a read-only int64 array;
        ``-1`` marks the default (root) origin."""
        def build():
            origins = list(map(attrgetter("origin"), self._jobs))
            if origins.count(None) == len(origins):
                return np.full(len(origins), -1, dtype=np.int64)
            return np.array([-1 if o is None else o for o in origins], dtype=np.int64)

        return self._keep("origin", build)

    def size_ranks(self) -> np.ndarray:
        """Each job's position in ``(size, release, id)`` order — the
        SJF order of router queues — as a read-only int64 array."""
        def build():
            n = len(self._jobs)
            rank = np.empty(n, dtype=np.int64)
            rank[np.lexsort((self.job_ids(), self.releases(), self.sizes()))] = np.arange(n)
            return rank

        return self._keep("size_rank", build)

    def total_volume(self) -> float:
        """Sum of router sizes (one hop's worth of total work)."""
        return float(sum(j.size for j in self._jobs))

    @property
    def is_unrelated(self) -> bool:
        """Whether any job carries per-leaf processing times."""
        return any(j.is_unrelated for j in self._jobs)

    def time_horizon(self) -> float:
        """Latest release time (0.0 for an empty set)."""
        return self._jobs[-1].release if self._jobs else 0.0

    def __repr__(self) -> str:
        return f"JobSet(n={len(self)}, unrelated={self.is_unrelated})"

    @staticmethod
    def build(
        releases: Sequence[float],
        sizes: Sequence[float],
        leaf_size_rows: Sequence[Mapping[int, float] | None] | None = None,
        origins: Sequence[int | None] | None = None,
        size_estimates: Sequence[float | None] | None = None,
    ) -> "JobSet":
        """Assemble a job set from parallel arrays.

        ``leaf_size_rows`` may be ``None`` (identical setting) or one
        mapping (or ``None``) per job; ``origins`` and
        ``size_estimates`` likewise (``None`` entries mean root origin /
        fully-known size).
        """
        if len(releases) != len(sizes):
            raise WorkloadError(
                f"releases ({len(releases)}) and sizes ({len(sizes)}) differ in length"
            )
        if leaf_size_rows is not None and len(leaf_size_rows) != len(releases):
            raise WorkloadError(
                f"leaf_size_rows ({len(leaf_size_rows)}) and releases "
                f"({len(releases)}) differ in length"
            )
        if origins is not None and len(origins) != len(releases):
            raise WorkloadError(
                f"origins ({len(origins)}) and releases ({len(releases)}) "
                "differ in length"
            )
        if size_estimates is not None and len(size_estimates) != len(releases):
            raise WorkloadError(
                f"size_estimates ({len(size_estimates)}) and releases "
                f"({len(releases)}) differ in length"
            )
        jobs = [
            Job(
                id=i,
                release=float(releases[i]),
                size=float(sizes[i]),
                leaf_sizes=None if leaf_size_rows is None else leaf_size_rows[i],
                origin=None if origins is None else origins[i],
                size_estimate=(
                    None
                    if size_estimates is None or size_estimates[i] is None
                    else float(size_estimates[i])
                ),
            )
            for i in range(len(releases))
        ]
        return JobSet(jobs)
