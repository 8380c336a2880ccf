"""The continuous-time event-driven simulation engine.

Semantics implemented (Section 2 of the paper):

* Jobs arrive at the root at their release times.  The root performs no
  processing: an arriving job is immediately available on the first node
  of its assigned processing path (the root-adjacent node ``R(v)``).
* A job occupies exactly one node at a time.  It becomes available on
  the next node of its path only once fully processed on the current one
  (store-and-forward).
* Each node processes at most one job at any moment, preemptively, at
  its speed from the :class:`~repro.sim.speed.SpeedProfile`.
* The per-node order is a pluggable priority (default SJF by *original*
  processing time on that node, ties by release then id — the paper's
  "oldest in class first" under class-rounded sizes).
* The leaf assignment is chosen by an
  :class:`AssignmentPolicy` at arrival (immediate dispatch) and never
  changes (non-migratory).

Event machinery
---------------
Two event sources exist: the sorted arrival list and per-node completion
predictions.  Completion events are pushed onto a heap tagged with the
node's *version*; any change to a node's queue bumps the version, so
stale events are skipped lazily.  The objectives are integrated per
job, with the compiled kernel's algebra: fractional flow is flow minus
a *deficit*, the integral of ``1 − rem/p_leaf`` at the leaf, which
each leaf settle, completion, drain, cancel and horizon closes exactly
(remaining work is constant while a job waits and linear while it
runs); :func:`~repro.sim.result.flow_integrals` sums the terms.

Incremental congestion aggregates
---------------------------------
The policies and lemma audits repeatedly query the paper's congestion
quantities — ``|Q_v(t)|``, the remaining volume routed through ``v``,
and the volume queued at a node.  Scanning the alive set for each query
costs O(arrivals x leaves x alive) over a run, so the engine maintains
them *incrementally*: per-node alive counts (``_through_count``),
remaining through-volumes (``_through_volume``) and queued volumes
(``_queue_volume``) are adjusted in O(path length) at the three mutation
points — release (:meth:`Engine._handle_arrival`), hop advance
(:meth:`Engine._advance_job`) and settle (:meth:`Engine._settle`) — and
read in O(1) via :meth:`SchedulerView.jobs_through_count`,
:meth:`SchedulerView.volume_through` and
:meth:`SchedulerView.queue_volume_at`.  The old alive-set scan survives
as the debug oracle behind ``check_invariants``.  See
``docs/architecture.md`` for the maintenance invariants.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Iterator
from heapq import heappop as _heappop, heappush as _heappush
from time import perf_counter
from typing import Protocol

import numpy as np

from repro.exceptions import (
    AssignmentError,
    InvariantViolation,
    SimulationError,
    TopologyError,
)
from repro.sim.counters import EngineCounters, global_counters
from repro.sim.result import JobRecord, ScheduleSegment, SimulationResult, flow_integrals
from repro.sim.tolerances import (
    CLOCK_EPS,
    DRIFT_RTOL,
    REL_EPS,
    ULP,
    finished_tol,
)
from repro.sim.speed import SpeedProfile
from repro.workload.events import Cancel, DynEvent, EventSchedule, NodeDown
from repro.workload.instance import Instance
from repro.workload.job import Job

__all__ = [
    "PriorityFn",
    "sjf_priority",
    "fifo_priority",
    "AssignmentPolicy",
    "SchedulerView",
    "EngineSink",
    "Engine",
    "simulate",
]

#: A per-node ordering: maps (instance, job, node) to a sortable key;
#: smaller keys run first.
PriorityFn = Callable[[Instance, Job, int], tuple]


def check_source(error: BaseException | None) -> None:
    """Raise what every call on a failed stream raises: a
    :class:`SimulationError` naming the exception its arrival source
    raised (``None``: the stream has not failed)."""
    if error is not None:
        raise SimulationError(
            f"the stream failed: its arrival source raised {error!r}"
        ) from error


def check_horizon(until: float | None) -> None:
    """Raise what a bounded run rejects: a horizon ``until`` that is not
    ``>= 0``, whether negative or NaN (no event time compares with
    NaN, so it bounds nothing)."""
    if until is not None and not until >= 0:
        raise SimulationError(f"until must be >= 0, got {until}")


def sjf_priority(instance: Instance, job: Job, node: int) -> tuple:
    """Shortest-Job-First by original processing time on the node.

    Ties break by release time ("the oldest job in the class") and then
    by id for full determinism.
    """
    return (instance.processing_time(job, node), job.release, job.id)


def fifo_priority(instance: Instance, job: Job, node: int) -> tuple:
    """First-in-first-out by release time — the ablation node policy."""
    return (job.release, job.id)


class AssignmentPolicy(Protocol):
    """Chooses the leaf for each arriving job (immediate dispatch)."""

    def assign(self, view: "SchedulerView", job: Job, now: float) -> int:
        """Return the leaf id ``job`` is dispatched to at time ``now``."""
        ...  # pragma: no cover


class _JobState:
    """Mutable runtime state of one released job."""

    __slots__ = (
        "job",
        "record",
        "idx",
        "remaining",
        "path",
        "pos_of",
        "leaf_time",
        "node_key",
        "leaf_key",
        "deficit",
        "prev_end",
    )

    def __init__(
        self, job: Job, record: JobRecord, pos_of: dict[int, int] | None = None
    ) -> None:
        self.job = job
        self.record = record
        self.path = record.path
        # Shared per-leaf position maps are precomputed by the engine;
        # direct construction (tests) falls back to building one here.
        self.pos_of = (
            pos_of
            if pos_of is not None
            else {v: i for i, v in enumerate(record.path)}
        )
        self.idx = 0
        self.remaining = 0.0
        self.leaf_time = job.size
        # Precomputed heap keys for the engine's priority fast path
        # (``None`` means "call the priority function").
        self.node_key: tuple | None = None
        self.leaf_key: tuple | None = None
        # The deficit closed so far, and the time of the last leaf
        # settle it closed at.  Before the first one the job has done no
        # leaf work (``remaining == leaf_time``), so every term that
        # reads ``prev_end`` then has a zero factor.
        self.deficit = 0.0
        self.prev_end = 0.0

    @property
    def current_node(self) -> int | None:
        return self.path[self.idx] if self.idx < len(self.path) else None

    @property
    def done(self) -> bool:
        return self.idx >= len(self.path)


class _NodeState:
    """Mutable runtime state of one processing node."""

    __slots__ = (
        "node_id",
        "speed",
        "is_leaf",
        "heap",
        "version",
        "active_id",
        "active_started",
        "active_rem_start",
        "down",
        "busy",
    )

    def __init__(self, node_id: int, speed: float, is_leaf: bool) -> None:
        self.node_id = node_id
        self.speed = speed
        self.is_leaf = is_leaf
        self.heap: list[tuple[tuple, int]] = []
        self.version = 0
        self.active_id: int | None = None
        self.active_started = 0.0
        self.active_rem_start = 0.0
        self.down = False
        # Service time of the closed spans, added where each span closes.
        self.busy = 0.0


#: Shared empty result for :meth:`SchedulerView.downed_nodes` — the
#: overwhelmingly common (event-free) case allocates nothing.
_NO_NODES: frozenset[int] = frozenset()


class SchedulerView:
    """Read-only window onto live engine state for assignment policies
    and sinks (:attr:`Engine.view`).

    The queries mirror the paper's notation at the current simulation
    time ``t``:

    * :meth:`queue_at` — the jobs *available to schedule* on a node
      (the jobs physically at the node);
    * :meth:`jobs_through` — ``Q_v(t)``: released jobs with ``v`` on
      their path not yet completed on ``v``;
    * :meth:`remaining_on` — ``p^A_{i,v}(t)``: the remaining processing
      of job ``i`` on node ``v`` (full if the job has not reached ``v``,
      zero once past it).

    The aggregate reads — :meth:`jobs_through_count`,
    :meth:`volume_through`, :meth:`queue_volume_at` — answer the same
    congestion questions in O(1) from the engine's incrementally
    maintained per-node counters.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine

    # -- static context -------------------------------------------------
    @property
    def instance(self) -> Instance:
        return self._engine.instance

    @property
    def tree(self):
        return self._engine.instance.tree

    @property
    def speeds(self) -> SpeedProfile:
        return self._engine.speeds

    @property
    def now(self) -> float:
        return self._engine.now

    def speed_of(self, node: int) -> float:
        return self._engine._nodes[node].speed

    # -- dynamic state ---------------------------------------------------
    def queue_at(self, node: int) -> tuple[int, ...]:
        """Ids of jobs currently available to schedule on ``node``,
        sorted by the node's priority key (highest priority first).

        The sort makes the order a documented contract: policies that
        iterate queues see the actual dispatch order rather than the
        internal heap-array layout, which is not a priority order and
        depends on the history of pushes and pops.
        """
        return tuple(jid for _, jid in sorted(self._engine._nodes[node].heap))

    def jobs_through(self, node: int) -> tuple[int, ...]:
        """``Q_v(t)``: alive jobs routed through ``node`` and not yet
        completed on it.

        For a root-adjacent node this equals :meth:`queue_at` (nothing is
        upstream of the first hop); for a leaf it is the alive jobs
        assigned to that leaf; in general it is computed by scanning the
        alive set.  For the cardinality or total volume alone, prefer the
        O(1) :meth:`jobs_through_count` / :meth:`volume_through`.
        """
        eng = self._engine
        if node in eng._root_adjacent:
            return self.queue_at(node)
        if node in eng._alive_at_leaf:
            return tuple(sorted(eng._alive_at_leaf[node]))
        out = []
        for jid in eng._alive:
            st = eng._states[jid]
            pos = st.pos_of.get(node)
            if pos is not None and st.idx <= pos:
                out.append(jid)
        return tuple(out)

    # -- O(1) aggregate reads -------------------------------------------
    def jobs_through_count(self, node: int) -> int:
        """``|Q_v(t)|`` — the size of :meth:`jobs_through`, in O(1)."""
        eng = self._engine
        if eng._counters is not None:
            eng._counters.aggregate_reads += 1
        try:
            return eng._through_count[node]
        except KeyError:
            raise TopologyError(f"unknown non-root node id {node}") from None

    def volume_through(self, node: int) -> float:
        """Total remaining volume of ``Q_v(t)`` on ``node``, in O(1).

        Equals ``sum(remaining_on(j, node) for j in jobs_through(node))``:
        full processing time for jobs still upstream, live remaining for
        the job currently at ``node``.  Exactly ``0.0`` when ``Q_v(t)``
        is empty.
        """
        eng = self._engine
        if eng._counters is not None:
            eng._counters.aggregate_reads += 1
        try:
            if eng._through_count[node] == 0:
                return 0.0
        except KeyError:
            raise TopologyError(f"unknown non-root node id {node}") from None
        vol = eng._through_volume[node] - eng._live_processed(eng._nodes[node], eng.now)
        return vol if vol > 0.0 else 0.0

    def queue_volume_at(self, node: int) -> float:
        """Total remaining volume physically queued at ``node``, in O(1).

        Equals ``sum(remaining_on(j, node) for j in queue_at(node))``.
        Exactly ``0.0`` when the queue is empty.
        """
        eng = self._engine
        if eng._counters is not None:
            eng._counters.aggregate_reads += 1
        try:
            ns = eng._nodes[node]
        except KeyError:
            raise TopologyError(f"unknown non-root node id {node}") from None
        if not ns.heap:
            return 0.0
        vol = eng._queue_volume[node] - eng._live_processed(ns, eng.now)
        return vol if vol > 0.0 else 0.0

    def alive_jobs(self) -> tuple[int, ...]:
        """Ids of all released, uncompleted jobs."""
        return tuple(sorted(self._engine._alive))

    def job(self, job_id: int) -> Job:
        return self._engine._states[job_id].job

    def assigned_leaf(self, job_id: int) -> int:
        return self._engine._states[job_id].record.leaf

    def current_node_of(self, job_id: int) -> int | None:
        """The node job ``job_id`` is currently available on (``None``
        once completed)."""
        return self._engine._states[job_id].current_node

    def remaining_on(self, job_id: int, node: int) -> float:
        """``p^A_{i,v}(t)`` — remaining processing of the job on ``node``.

        Zero for nodes already passed (or off-path), live remaining for
        the current node, full requirement for nodes not yet reached.
        """
        eng = self._engine
        st = eng._states[job_id]
        pos = st.pos_of.get(node)
        if pos is None or st.idx > pos or st.done:
            return 0.0
        if st.idx < pos:
            return eng.instance.processing_time(st.job, node)
        return eng._live_remaining(st)

    # -- dynamic events --------------------------------------------------
    def downed_nodes(self) -> frozenset[int]:
        """Ids of nodes currently down (empty on event-free runs).

        Down-aware policies exclude leaves whose processing path crosses
        a downed node; every other query keeps reporting the stalled
        queues truthfully (jobs neither advance nor migrate while their
        node is down).
        """
        down = self._engine._down
        return frozenset(down) if down else _NO_NODES

    def is_down(self, node: int) -> bool:
        """Whether ``node`` is currently down."""
        return node in self._engine._down


class EngineSink:
    """The engine's one hook protocol: a base class of no-op callbacks.

    Subclass it, override what you need and pass an instance as
    ``sink=``; whatever :meth:`build` returns becomes
    ``SimulationResult.trace``.  A sink only observes: results are
    bit-identical with or without one.  To audit live state, keep
    :attr:`Engine.view` from :meth:`attach` and read it in
    :meth:`before_advance` and :meth:`finalize`.
    """

    def attach(self, engine: "Engine") -> None:
        """Called once, from ``Engine.__init__``."""

    def before_advance(self, t: float) -> None:
        """Before each event, at its time ``t``, with the state after the
        previous event; also once at a bounded run's horizon."""

    def on_arrival(self, time: float, job_id: int, leaf: int) -> None:
        """Job ``job_id`` was released and dispatched to ``leaf``."""

    def on_available(self, time: float, job_id: int, node: int) -> None:
        """Job ``job_id`` became available on ``node`` of its path."""

    def on_service(self, node: int, job_id: int, start: float, end: float) -> None:
        """A maximal (node, job) processing interval just closed."""

    def on_hop_complete(self, time: float, job_id: int, node: int) -> None:
        """Job ``job_id`` finished processing on ``node``."""

    def on_finish(self, time: float, record: JobRecord) -> None:
        """The job of ``record`` completed on its leaf."""

    def on_reveal(self, time: float, job_id: int, size: float) -> None:
        """An estimated-size job completed; ``size`` is its true size."""

    def on_cancel(self, time: float, record: JobRecord, node: int) -> None:
        """The job of ``record`` (``cancelled_at`` set) left ``node``."""

    def on_node_down(self, time: float, node: int) -> None:
        """``node`` stopped serving."""

    def on_node_up(self, time: float, node: int) -> None:
        """``node`` resumed serving."""

    def finalize(self, now: float) -> None:
        """After the last event, with the final state."""

    def build(self, final_time: float) -> object:
        """What ``SimulationResult.trace`` carries."""
        return None


class Engine:
    """One simulation run over an :class:`~repro.workload.instance.Instance`.

    Parameters
    ----------
    instance:
        The instance to simulate.
    policy:
        The leaf :class:`AssignmentPolicy` (immediate dispatch).
    speeds:
        Per-node speeds; defaults to unit speed everywhere.
    priority:
        The per-node ordering; defaults to :func:`sjf_priority`.
    record_segments:
        When true, every maximal (node, job) processing interval is
        recorded — required by the dual-fitting and LP audits.
    check_invariants:
        When true, model invariants are asserted after every event
        (simulation slows down by a small constant factor).
    sink:
        Optional :class:`EngineSink` observing the run: the structured
        trace (:class:`~repro.obs.trace.TraceRecorder`) or a live-state
        audit such as the Lemma 2/3 experiments.  Whatever its
        :meth:`~EngineSink.build` returns is surfaced on
        ``SimulationResult.trace``.
    collect_counters:
        When true, tally :class:`~repro.sim.counters.EngineCounters`
        for this run (surfaced on ``SimulationResult.counters``).  When
        ``None`` (the default), collection follows the process-wide
        switch (:func:`~repro.sim.counters.enable_global_counters`);
        disabled collection costs nothing in the hot path.
    events:
        Optional :class:`~repro.workload.events.EventSchedule` of
        dynamic mid-run events — node breakdowns/repairs and job
        cancellations (see ``docs/dynamic-events.md``).  ``None`` (the
        default) is bit-identical to an empty schedule.  At equal times
        the engine processes completions first, then dynamic events,
        then arrivals.
    evict_finished:
        When true, a job's runtime state is dropped from the engine the
        moment it finishes or is cancelled, and the engine holds its
        record until :meth:`take_finished` takes it.  This is what
        bounds memory in the open-system streaming mode
        (:mod:`repro.service`), whose session takes the records after
        every step; the final :class:`~repro.sim.result.SimulationResult`
        then carries only the jobs still in flight, and integrals over
        every job.
    max_events:
        Safety bound on processed events; exceeding it raises
        :class:`~repro.exceptions.SimulationError`.  ``None`` disables
        the bound — required for unbounded streaming runs.
    """

    def __init__(
        self,
        instance: Instance,
        policy: AssignmentPolicy,
        speeds: SpeedProfile | None = None,
        *,
        priority: PriorityFn = sjf_priority,
        record_segments: bool = False,
        check_invariants: bool = False,
        max_events: int | None = 10_000_000,
        sink: EngineSink | None = None,
        collect_counters: bool | None = None,
        evict_finished: bool = False,
        events: EventSchedule | None = None,
    ) -> None:
        self.instance = instance
        self.policy = policy
        self.speeds = speeds or SpeedProfile.uniform(1.0)
        self.priority = priority
        self.record_segments = record_segments
        self.check_invariants = check_invariants
        self.max_events = max_events

        tree = instance.tree
        self._nodes: dict[int, _NodeState] = {}
        for node in tree:
            if node.is_root:
                continue
            self._nodes[node.id] = _NodeState(
                node.id, self.speeds.speed_of(tree, node.id), node.is_leaf
            )
        self._states: dict[int, _JobState] = {}
        self._alive: set[int] = set()
        self._alive_at_leaf: dict[int, set[int]] = {v: set() for v in tree.leaves}

        # Static per-leaf layout, computed once so arrivals cost O(path)
        # with no tree walks: processing paths, position maps (shared by
        # every job assigned to the leaf) and path depths (``d_v``).
        self._root_adjacent = frozenset(tree.root_children)
        self._leaf_paths: dict[int, tuple[int, ...]] = {
            leaf: tree.processing_path(leaf) for leaf in tree.leaves
        }
        self._leaf_pos: dict[int, dict[int, int]] = {
            leaf: {v: i for i, v in enumerate(path)}
            for leaf, path in self._leaf_paths.items()
        }
        self._leaf_depth: dict[int, int] = {
            leaf: len(path) for leaf, path in self._leaf_paths.items()
        }
        # (origin, leaf) -> (path, pos_of) for the arbitrary-origin
        # extension; populated lazily (most workloads are root-origin).
        self._origin_layouts: dict[tuple[int, int], tuple[tuple[int, ...], dict[int, int]]] = {}

        # Incremental congestion aggregates (see module docstring).
        self._through_count: dict[int, int] = {v: 0 for v in self._nodes}
        self._through_volume: dict[int, float] = {v: 0.0 for v in self._nodes}
        self._queue_volume: dict[int, float] = {v: 0.0 for v in self._nodes}

        # Priority fast path: for the two built-in orderings the heap key
        # is a pure function of (job, node kind), so it is computed once
        # per arrival instead of once per push.
        if priority is sjf_priority:
            self._prio_kind = 1
        elif priority is fifo_priority:
            self._prio_kind = 2
        else:
            self._prio_kind = 0

        self.now = 0.0
        self._events: list[tuple[float, int, int, int]] = []  # (t, version, seq, node)
        self._seq = 0
        self._num_events = 0

        # Jobs evicted and not yet taken, with their objective terms and
        # records (see _evict); the terms of taken ones are summed here.
        self._evicted: list[tuple[float, int, float, float, JobRecord]] = []
        self._evicted_alive = 0.0
        self._evicted_frac = 0.0

        self._segments: list[ScheduleSegment] | None = (
            [] if record_segments else None
        )
        # Dynamic-event state: the canonical (time, kind, id)-ordered
        # event tuple, a cursor into it, and the set of down node ids.
        if events is not None and events:
            events.validate_for(instance)
            self._dyn: tuple[DynEvent, ...] = events.events
        else:
            self._dyn = ()
        self._dyn_i = 0
        self._down: set[int] = set()

        self._view = SchedulerView(self)
        self._evict_finished = evict_finished
        self._finished = False
        # Open-system streaming state (see stream_start / _stream_loop):
        # the lazy arrival source and its one-job lookahead.
        self._arrivals_iter: Iterator[Job] | None = None
        self._pending_job: Job | None = None
        # What the arrival source raised, once it has (see stream_step).
        self._source_error: BaseException | None = None
        self.step_arrivals = 0  # jobs the last stream_step admitted
        self._result: SimulationResult | None = None
        self._run_seconds = 0.0
        if collect_counters is None:
            collect_counters = global_counters() is not None
        self._counters: EngineCounters | None = (
            EngineCounters(runs=1) if collect_counters else None
        )
        self._sink = sink
        if sink is not None:
            sink.attach(self)

    @property
    def view(self) -> SchedulerView:
        """The read-only :class:`SchedulerView` onto this run's live
        state — what policies are handed and what sinks audit."""
        return self._view

    @property
    def alive_count(self) -> int:
        """Number of released, uncompleted jobs — O(1)."""
        return len(self._alive)

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _live_remaining(self, st: _JobState) -> float:
        """Remaining processing of ``st`` on its current node, *now*."""
        if st.done:
            return 0.0
        node = self._nodes[st.path[st.idx]]
        if node.active_id == st.job.id:
            rem = node.active_rem_start - node.speed * (self.now - node.active_started)
            return max(rem, 0.0)
        return st.remaining

    def _live_processed(self, ns: _NodeState, at: float) -> float:
        """Work done by ``ns``'s active job from arming to ``at``, not yet
        settled into the static aggregates (0 when idle)."""
        if ns.active_id is None:
            return 0.0
        elapsed = at - ns.active_started
        if elapsed <= 0.0:
            return 0.0
        done = ns.speed * elapsed
        return done if done < ns.active_rem_start else ns.active_rem_start

    def _processing_on(self, ns: _NodeState, st: _JobState) -> float:
        """``p_{j,v}`` for a node on the job's path, without tree walks."""
        return st.leaf_time if ns.is_leaf else st.job.size

    def _settle(self, ns: _NodeState) -> None:
        """Fold elapsed processing into the active job's remaining and
        close its schedule segment.  Leaves the node with no active job;
        callers must follow with :meth:`_rearm`.

        This is the aggregate mutation point for *processing*: the work
        done since arming leaves the node's through/queued volumes here.
        """
        if self._counters is not None:
            self._counters.settle_calls += 1
        if ns.active_id is None:
            return
        st = self._states[ns.active_id]
        elapsed = self.now - ns.active_started
        if elapsed > 0.0:
            new_rem = ns.active_rem_start - ns.speed * elapsed
            if new_rem < 0.0:
                new_rem = 0.0
            delta = st.remaining - new_rem  # st.remaining == active_rem_start
            if delta != 0.0:
                node_id = ns.node_id
                self._through_volume[node_id] -= delta
                self._queue_volume[node_id] -= delta
                if self._counters is not None:
                    self._counters.aggregate_updates += 2
            st.remaining = new_rem
            ns.busy += elapsed
            if ns.is_leaf:
                pl, arem, astart = st.leaf_time, ns.active_rem_start, ns.active_started
                st.deficit += (pl - arem) / pl * (astart - st.prev_end) + (
                    2.0 * pl - arem - new_rem
                ) / (2.0 * pl) * (self.now - astart)
                st.prev_end = self.now
            if self._segments is not None:
                self._segments.append(
                    ScheduleSegment(ns.node_id, ns.active_id, ns.active_started, self.now)
                )
            if self._sink is not None:
                self._sink.on_service(
                    ns.node_id, ns.active_id, ns.active_started, self.now
                )
        else:
            st.remaining = ns.active_rem_start
        ns.active_id = None

    def _rearm(self, ns: _NodeState) -> None:
        """Start the highest-priority available job (if any) and schedule
        its completion event."""
        ns.version += 1
        if self._counters is not None:
            self._counters.rearm_calls += 1
        if not ns.heap:
            return
        _, jid = ns.heap[0]
        st = self._states[jid]
        ns.active_id = jid
        ns.active_started = self.now
        ns.active_rem_start = st.remaining
        finish = self.now + st.remaining / ns.speed
        self._seq += 1
        _heappush(self._events, (finish, ns.version, self._seq, ns.node_id))
        if self._counters is not None:
            self._counters.heap_pushes += 1

    def _advance(self, t: float) -> None:
        """Move simulated time to ``t``."""
        dt = t - self.now
        if dt > 0.0:
            self.now = t
        elif dt < -CLOCK_EPS:
            raise SimulationError(f"time went backwards: {self.now} -> {t}")

    def _evict(self, st: _JobState) -> None:
        """Drop a terminal job's state; its objective terms and record
        wait for :meth:`take_finished`."""
        self._evicted.append(
            (self.now, st.job.id, self.now - st.record.release, st.deficit, st.record)
        )
        del self._states[st.job.id]

    def take_finished(self, records: bool):
        """Hand over the jobs evicted since the last call, folding their
        objective terms, in (terminal time, job id) order — the order
        the compiled kernel hands its finished jobs back in, which its
        per-node sweeps can reproduce where the event heap's
        same-instant order cannot.  Returns the finished jobs' flow
        times, every terminal record (finished and cancelled alike)
        when ``records``, and the cancelled jobs' records."""
        evicted = self._evicted
        if not evicted:
            return (), (), ()
        self._evicted = []
        evicted.sort()  # ids are unique: records are never compared
        flows, cancelled = [], []
        for _, _, flow, deficit, record in evicted:
            self._evicted_alive += flow
            self._evicted_frac += flow - deficit
            if record.cancelled_at is None:
                flows.append(flow)
            else:
                cancelled.append(record)
        return flows, ([e[4] for e in evicted] if records else ()), cancelled

    def busy_totals(self) -> list[float]:
        """Every node's cumulative busy time at :attr:`now`, the running
        span included, in node order."""
        now = self.now
        return [
            ns.busy + (now - ns.active_started)
            if ns.active_id is not None and now > ns.active_started
            else ns.busy
            for ns in self._nodes.values()
        ]

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _enqueue(self, ns: _NodeState, st: _JobState) -> None:
        """Make ``st`` (just made available) queue on ``ns``, restarting
        the node only when the newcomer outranks the active job.

        When it does not outrank, the node's schedule is untouched: there
        is nothing to settle, the pending completion event stays valid
        (no version bump, so no stale event), and the active job's
        schedule segment is not split.  This keeps event-heap traffic
        proportional to actual preemptions instead of all pushes.
        """
        key = st.leaf_key if ns.is_leaf else st.node_key
        if key is None:
            key = self.priority(self.instance, st.job, ns.node_id)
        if ns.down:
            # A down node accepts queued work but never settles, drains
            # or rearms — the job stalls until the matching NodeUp.
            _heappush(ns.heap, (key, st.job.id))
            self._queue_volume[ns.node_id] += st.remaining
            if self._counters is not None:
                self._counters.heap_pushes += 1
                self._counters.aggregate_updates += 1
            return
        if ns.active_id is not None:
            if ns.heap[0][0] < key:
                _heappush(ns.heap, (key, st.job.id))
                self._queue_volume[ns.node_id] += st.remaining
                if self._counters is not None:
                    self._counters.heap_pushes += 1
                    self._counters.aggregate_updates += 1
                return
            self._settle(ns)
        self._drain_finished_top(ns)
        _heappush(ns.heap, (key, st.job.id))
        self._queue_volume[ns.node_id] += st.remaining
        if self._counters is not None:
            self._counters.heap_pushes += 1
            self._counters.aggregate_updates += 1
        self._rearm(ns)

    def _advance_job(self, ns: _NodeState, jid: int) -> None:
        """Pop ``jid`` (the fully-processed heap top of ``ns``) and move it
        to the next node of its path (or finish it).

        This is the *hop advance* aggregate mutation point: the job's
        residual leaves the node's count/volumes, and its full next-hop
        requirement enters the next node's queued volume.
        """
        _heappop(ns.heap)
        st = self._states[jid]
        node_id = ns.node_id
        residual = st.remaining
        self._through_count[node_id] -= 1
        self._through_volume[node_id] -= residual
        self._queue_volume[node_id] -= residual
        if self._counters is not None:
            self._counters.aggregate_updates += 3
        if ns.is_leaf:
            pl = st.leaf_time
            st.deficit += (pl - residual) / pl * (self.now - st.prev_end)
        st.remaining = 0.0
        st.record.completed_at.append(self.now)
        st.idx += 1
        sink = self._sink
        if sink is not None:
            sink.on_hop_complete(self.now, jid, node_id)
        if st.done:
            self._alive.discard(jid)
            self._alive_at_leaf[st.record.leaf].discard(jid)
            if sink is not None:
                sink.on_finish(self.now, st.record)
                if st.job.size_estimate is not None:
                    sink.on_reveal(self.now, jid, st.job.size)
            if self._evict_finished:
                self._evict(st)
            return
        nxt = self._nodes[st.path[st.idx]]
        st.remaining = self._processing_on(nxt, st)
        st.record.available_at.append(self.now)
        if sink is not None:
            sink.on_available(self.now, jid, nxt.node_id)
        self._enqueue(nxt, st)

    def _drain_finished_top(self, ns: _NodeState) -> None:
        """Complete every fully-processed job stranded at the heap top.

        A job whose remaining work reached zero is *done* on this node;
        it must advance before a simultaneous push can outrank it (ties
        at identical priority would otherwise re-queue finished work
        behind a full-size job).  More than one finished job can be
        queued at once — e.g. two jobs preempted at the brink of
        completion, released when a simultaneous completion settles the
        node — so the drain loops until the top has work left; the
        recursive advance settles downstream nodes the same way.
        """
        if ns.active_id is not None:
            return
        while ns.heap:
            _, jid = ns.heap[0]
            st = self._states[jid]
            p = self._processing_on(ns, st)
            if st.remaining > finished_tol(p):
                return
            if self._counters is not None:
                self._counters.drained_finished += 1
            self._advance_job(ns, jid)

    def _layout_for(
        self, job: Job, leaf: int
    ) -> tuple[tuple[int, ...], dict[int, int]]:
        """The (path, position-map) pair for ``job`` assigned to ``leaf``,
        validating the assignment exactly as the policy contract demands."""
        origin = job.origin
        tree = self.instance.tree
        if origin is None or origin == tree.root:
            layout = self._leaf_paths.get(leaf)
            if layout is None:
                raise AssignmentError(
                    f"policy assigned job {job.id} to non-leaf node {leaf!r}"
                )
            return layout, self._leaf_pos[leaf]
        if leaf not in self._leaf_paths:
            raise AssignmentError(
                f"policy assigned job {job.id} to non-leaf node {leaf!r}"
            )
        key = (origin, leaf)
        cached = self._origin_layouts.get(key)
        if cached is None:
            try:
                path = self.instance.processing_path_for(job, leaf)
            except TopologyError as exc:
                raise AssignmentError(
                    f"policy assigned job {job.id} to leaf {leaf} outside its "
                    f"origin's subtree: {exc}"
                ) from exc
            if not path:
                raise AssignmentError(
                    f"job {job.id}: empty processing path to leaf {leaf}"
                )
            cached = (path, {v: i for i, v in enumerate(path)})
            self._origin_layouts[key] = cached
        return cached

    def _handle_arrival(self, job: Job) -> None:
        # Partial information: the policy scores the arriving job by its
        # declared estimate (``masked()`` is identity when none is set);
        # engine-side priorities, aggregates and processing use the true
        # size, which is revealed at completion.
        leaf = self.policy.assign(self._view, job.masked(), self.now)
        path, pos_of = self._layout_for(job, leaf)
        p_leaf = job.processing_on_leaf(leaf)
        if not math.isfinite(p_leaf):
            raise AssignmentError(
                f"policy assigned job {job.id} to forbidden leaf {leaf} (p=inf)"
            )
        record = JobRecord(
            job_id=job.id,
            release=job.release,
            leaf=leaf,
            path=path,
            size_estimate=job.size_estimate,
        )
        st = _JobState(job, record, pos_of)
        st.leaf_time = p_leaf
        if self._prio_kind == 1:
            st.node_key = (job.size, job.release, job.id)
            st.leaf_key = (p_leaf, job.release, job.id)
        elif self._prio_kind == 2:
            st.node_key = st.leaf_key = (job.release, job.id)
        self._states[job.id] = st
        self._alive.add(job.id)
        self._alive_at_leaf[leaf].add(job.id)

        # Release mutation point: the whole path gains one routed job and
        # its full per-node requirement.
        size = job.size
        tc = self._through_count
        tv = self._through_volume
        for v in path:
            tc[v] += 1
            tv[v] += size
        if p_leaf != size:
            tv[leaf] += p_leaf - size
        if self._counters is not None:
            self._counters.aggregate_updates += len(path)

        first = self._nodes[path[0]]
        st.remaining = self._processing_on(first, st)
        record.available_at.append(self.now)
        if self._sink is not None:
            self._sink.on_arrival(self.now, job.id, leaf)
            self._sink.on_available(self.now, job.id, path[0])
        self._enqueue(first, st)

    def _handle_completion(self, ns: _NodeState) -> None:
        jid = ns.active_id
        if jid is None:
            # The active job was drained by a simultaneous event on
            # another node before this (now stale-by-settlement, but
            # version-valid) completion fired; nothing left to do except
            # restart whatever is queued.
            self._drain_finished_top(ns)
            self._rearm(ns)
            return
        # Specialised settle + hop advance for the hottest event path:
        # a valid completion leaves (numerically) zero work behind, so
        # the job departs this node in one step and its full pre-settle
        # remaining (== active_rem_start) exits the node's aggregates —
        # one fused update instead of settle-delta plus residual.
        counters = self._counters
        now = self.now
        st = self._states[jid]
        elapsed = now - ns.active_started
        new_rem = ns.active_rem_start - ns.speed * elapsed
        if new_rem > 0.0:  # pragma: no cover - numerical guard
            # completion_guard_tol(active_rem_start, speed, now), inlined —
            # keep in sync with repro.sim.tolerances.
            rs = ns.active_rem_start
            tol = 1e-7 * rs if rs > 1.0 else 1e-7
            t_scale = now if now >= 0.0 else -now
            clock = 256.0 * ULP * ns.speed * (t_scale if t_scale > 1.0 else 1.0)
            if tol < clock:
                tol = clock
            if new_rem > tol:
                raise SimulationError(
                    f"completion event fired with {new_rem} work left "
                    f"(job {jid} on node {ns.node_id})"
                )
        if counters is not None:
            counters.settle_calls += 1
            counters.aggregate_updates += 3
        sink = self._sink
        if elapsed > 0.0:
            ns.busy += elapsed
            if self._segments is not None:
                self._segments.append(
                    ScheduleSegment(ns.node_id, jid, ns.active_started, now)
                )
            if sink is not None:
                sink.on_service(ns.node_id, jid, ns.active_started, now)
        node_id = ns.node_id
        if ns.is_leaf:
            pl, arem, astart = st.leaf_time, ns.active_rem_start, ns.active_started
            st.deficit += (pl - arem) / pl * (astart - st.prev_end) + (
                2.0 * pl - arem
            ) / (2.0 * pl) * (now - astart)
        ns.active_id = None
        residual = st.remaining  # == active_rem_start: frozen while active
        self._through_count[node_id] -= 1
        self._through_volume[node_id] -= residual
        self._queue_volume[node_id] -= residual
        _heappop(ns.heap)
        st.remaining = 0.0
        st.record.completed_at.append(now)
        st.idx += 1
        if sink is not None:
            sink.on_hop_complete(now, jid, node_id)
        if st.idx >= len(st.path):
            self._alive.discard(jid)
            self._alive_at_leaf[st.record.leaf].discard(jid)
            if sink is not None:
                sink.on_finish(now, st.record)
                if st.job.size_estimate is not None:
                    sink.on_reveal(now, jid, st.job.size)
            if self._evict_finished:
                self._evict(st)
        else:
            nxt = self._nodes[st.path[st.idx]]
            st.remaining = st.leaf_time if nxt.is_leaf else st.job.size
            st.record.available_at.append(now)
            if sink is not None:
                sink.on_available(now, jid, nxt.node_id)
            self._enqueue(nxt, st)
        # Inlined _rearm(ns): restart the (possibly new) heap top.
        ns.version += 1
        if counters is not None:
            counters.rearm_calls += 1
        heap = ns.heap
        if heap:
            nxt_jid = heap[0][1]
            nxt_st = self._states[nxt_jid]
            ns.active_id = nxt_jid
            ns.active_started = now
            rem = nxt_st.remaining
            ns.active_rem_start = rem
            self._seq += 1
            _heappush(
                self._events, (now + rem / ns.speed, ns.version, self._seq, node_id)
            )
            if counters is not None:
                counters.heap_pushes += 1

    # ------------------------------------------------------------------
    # dynamic events (node breakdowns/repairs, cancellations)
    # ------------------------------------------------------------------
    def _handle_dyn(self, ev: DynEvent) -> None:
        """Apply one dynamic event at ``self.now == ev.time``."""
        if type(ev) is Cancel:
            self._handle_cancel(ev.job_id)
        elif type(ev) is NodeDown:
            self._handle_node_down(ev.node)
        else:
            self._handle_node_up(ev.node)

    def _handle_node_down(self, node: int) -> None:
        """Node ``node`` stops serving: settle the active run, complete
        any zero-remaining heap tops *at the down instant* (a job whose
        work hit exactly zero has finished — the completions-first tie
        rule, which the exact-replay oracle shares), invalidate the
        pending completion prediction, and mark the node down."""
        ns = self._nodes[node]
        self._settle(ns)
        self._drain_finished_top(ns)
        # _settle does not bump the version (its callers normally rearm,
        # which does).  A down node must not rearm, so bump here or the
        # stale completion event would restart the node mid-outage.
        ns.version += 1
        ns.down = True
        self._down.add(node)
        if self._sink is not None:
            self._sink.on_node_down(self.now, node)

    def _handle_node_up(self, node: int) -> None:
        """Node ``node`` resumes serving: drain (arrivals while down
        carry full work, so this is a guard, not a work source) and
        restart the highest-priority stalled job."""
        ns = self._nodes[node]
        ns.down = False
        self._down.discard(node)
        self._drain_finished_top(ns)
        self._rearm(ns)
        if self._sink is not None:
            self._sink.on_node_up(self.now, node)

    def _handle_cancel(self, job_id: int) -> None:
        """Withdraw ``job_id`` if it is alive; otherwise a defined no-op
        (unknown id, not yet released, or already finished)."""
        st = self._states.get(job_id)
        if st is None or st.done:
            return
        cur = st.path[st.idx]
        ns = self._nodes[cur]
        if ns.active_id == job_id:
            # In service: settle folds the elapsed work (closing the
            # schedule segment), then the job — still the heap top —
            # is popped and the node restarted on the next job.
            self._settle(ns)
            if st.remaining <= finished_tol(self._processing_on(ns, st)):
                # Brink of completion: completions come before events,
                # so the job finishes this hop first and the cancel then
                # applies wherever it now sits (a no-op after its last).
                self._drain_finished_top(ns)
                self._rearm(ns)
                self._handle_cancel(job_id)
                return
            _heappop(ns.heap)
            self._drain_finished_top(ns)
            self._rearm(ns)
        else:
            # Queued (possibly on a down node): remove its heap entry.
            # Removing a non-minimum entry keeps heap[0] — and with it
            # the active job's pending completion event — valid, so the
            # version is deliberately NOT bumped.
            heap = ns.heap
            for pos, (_, jid) in enumerate(heap):
                if jid == job_id:
                    heap[pos] = heap[-1]
                    heap.pop()
                    heapq.heapify(heap)
                    break

        # Aggregate mutation point: the cancelled job's residual leaves
        # its current node's volumes and its future requirements leave
        # every remaining node of its path.
        rem = st.remaining
        self._queue_volume[cur] -= rem
        tc = self._through_count
        tv = self._through_volume
        path = st.path
        for pos in range(st.idx, len(path)):
            v = path[pos]
            tc[v] -= 1
            tv[v] -= rem if pos == st.idx else self._processing_on(
                self._nodes[v], st
            )
        if self._counters is not None:
            self._counters.aggregate_updates += len(path) - st.idx + 1

        if ns.is_leaf:
            # The fraction ``rem / p_leaf`` held since the last settle.
            pl = st.leaf_time
            st.deficit += (pl - rem) / pl * (self.now - st.prev_end)

        self._alive.discard(job_id)
        self._alive_at_leaf[st.record.leaf].discard(job_id)
        st.idx = len(path)
        st.remaining = 0.0
        st.record.cancelled_at = self.now
        if self._sink is not None:
            self._sink.on_cancel(self.now, st.record, cur)
        if self._evict_finished:
            self._evict(st)

    # ------------------------------------------------------------------
    # main loop (open-system core; batch run() is the closed special case)
    # ------------------------------------------------------------------
    def stream_start(self, arrivals: Iterable[Job]) -> None:
        """Attach the lazy arrival source and claim the engine for a run.

        ``arrivals`` may be any iterable of release-ordered
        :class:`~repro.workload.job.Job` — a list, a ``JobSet``, or an
        *infinite generator* (see :mod:`repro.workload.arrivals`).  Jobs
        are pulled one at a time with a single-job lookahead, so an
        unbounded stream never materialises.  Out-of-order releases
        surface as the engine's usual "time went backwards"
        :class:`~repro.exceptions.SimulationError`.
        """
        if self._finished:
            raise SimulationError("an Engine instance can only run once")
        self._finished = True
        self._arrivals_iter = iter(arrivals)
        try:
            self._pending_job = next(self._arrivals_iter, None)
        except BaseException as exc:
            self._source_error = exc
            raise

    def _stream_loop(self, until: float | None) -> None:
        """Process events (admissions and completions) in time order.

        Returns when the next event lies past ``until`` — after advancing
        time exactly to ``until`` so the result covers the full window
        — or, with ``until=None``, when both the arrival source and the
        event heap are exhausted.  Re-enterable: per-call state is only
        the arrival lookahead, written back on every exit path.
        """
        counters = self._counters
        sink = self._sink
        run_started = perf_counter() if counters is not None else 0.0
        events = self._events
        nodes = self._nodes
        inf = math.inf
        max_events = self.max_events
        if max_events is None:
            max_events = inf
        it = self._arrivals_iter
        pending = self._pending_job
        admitted = 0
        dyn = self._dyn
        dyn_i = self._dyn_i
        n_dyn = len(dyn)

        try:
            while True:
                # Earliest valid completion event.
                while events:
                    t, version, _, node_id = events[0]
                    if nodes[node_id].version == version:
                        break
                    _heappop(events)
                    if counters is not None:
                        counters.stale_events_skipped += 1
                next_completion = events[0][0] if events else inf
                next_arrival = pending.release if pending is not None else inf
                next_dyn = dyn[dyn_i].time if dyn_i < n_dyn else inf
                if until is not None and (
                    min(next_completion, next_arrival, next_dyn) > until
                ):
                    self._advance(until)
                    if sink is not None:
                        # Show the sink the horizon before run() or
                        # stream_result() settle the in-flight work.
                        sink.before_advance(until)
                    break
                if (
                    next_completion is inf
                    and next_arrival is inf
                    and next_dyn is inf
                ):
                    break
                self._num_events += 1
                if self._num_events > max_events:
                    raise SimulationError(
                        f"exceeded max_events={self.max_events}; "
                        "likely a policy or engine bug"
                    )
                phase_started = perf_counter() if counters is not None else 0.0
                # Tie rule at equal instants: completions first, then
                # dynamic events, then arrivals.
                if next_completion <= next_arrival and next_completion <= next_dyn:
                    t, version, _, node_id = _heappop(events)
                    if sink is not None:
                        sink.before_advance(t)
                    # Inlined _advance(t).
                    dt = t - self.now
                    if dt > 0.0:
                        self.now = t
                    elif dt < -CLOCK_EPS:
                        raise SimulationError(
                            f"time went backwards: {self.now} -> {t}"
                        )
                    self._handle_completion(nodes[node_id])
                    if counters is not None:
                        counters.events_processed += 1
                        counters.completions += 1
                        counters.completion_seconds += perf_counter() - phase_started
                elif next_dyn <= next_arrival:
                    ev = dyn[dyn_i]
                    dyn_i += 1
                    if sink is not None:
                        sink.before_advance(next_dyn)
                    self._advance(next_dyn)
                    self._handle_dyn(ev)
                    if counters is not None:
                        counters.events_processed += 1
                        counters.dyn_events += 1
                else:
                    if sink is not None:
                        sink.before_advance(next_arrival)
                    self._advance(next_arrival)
                    self._handle_arrival(pending)
                    admitted += 1
                    try:
                        pending = next(it, None)
                    except BaseException as exc:
                        self._source_error = exc
                        raise
                    if counters is not None:
                        counters.events_processed += 1
                        counters.arrivals += 1
                        counters.arrival_seconds += perf_counter() - phase_started
                if self.check_invariants:
                    self._assert_invariants()
        finally:
            self._pending_job = pending
            self._dyn_i = dyn_i
            self.step_arrivals = admitted
            if counters is not None:
                self._run_seconds += perf_counter() - run_started

    def stream_step(self, *, until: float) -> float:
        """Advance the open system exactly to time ``until``.

        Processes every admission and completion at or before ``until``
        and moves the clock to ``until``.  Nodes are *not* settled —
        in-flight work keeps running across steps — so per-job results
        are bit-identical however the timeline is sliced into steps.
        Returns the new :attr:`now` (== ``until``).  Afterwards
        :attr:`step_arrivals` counts the jobs the step admitted, and an
        evicting engine hands the jobs it ended over through
        :meth:`take_finished`.

        A step whose arrival source raises re-raises that exception,
        with every event before the failing pull processed.  The stream
        is then failed: every later ``stream_step`` and
        :meth:`stream_idle` raises :class:`SimulationError` naming it
        (as ``__cause__``), while :meth:`stream_result` still builds
        the result at the failure.
        """
        self.step_arrivals = 0
        if self._arrivals_iter is None:
            raise SimulationError("stream_step() before stream_start()")
        check_source(self._source_error)
        if self._result is not None:
            raise SimulationError("stream_step() after stream_result()")
        if until < self.now - CLOCK_EPS:
            raise SimulationError(
                f"stream_step until={until} is before now={self.now}"
            )
        self._stream_loop(until)
        return self.now

    def stream_idle(self) -> bool:
        """True when the stream can produce no further events: the
        arrival source is exhausted and no admitted job is alive (any
        events left on the heap are provably stale).  Raises on a failed
        stream (see :meth:`stream_step`)."""
        check_source(self._source_error)
        return self._pending_job is None and not self._alive

    def stream_result(self, *, verify: bool = False) -> SimulationResult:
        """Close the stream and build the final result.

        Settles every node at the current time so recorded segments and
        trace spans cover exactly ``[0, now]``.  Idempotent — repeated
        calls return the same :class:`SimulationResult`.  With
        ``evict_finished=True`` the result carries only still-in-flight
        jobs; the ended ones were handed over by :meth:`take_finished`.
        ``gauge_state`` then holds each node's settled queue depth,
        queued volume, through-count and busy time, in node order.
        """
        if self._arrivals_iter is None:
            raise SimulationError("stream_result() before stream_start()")
        if self._result is None:
            self._settle_at_horizon()
            nodes = self._nodes
            self.gauge_state = (
                [len(ns.heap) for ns in nodes.values()],
                [self._queue_volume[v] for v in nodes],
                [self._through_count[v] for v in nodes],
                [ns.busy for ns in nodes.values()],
            )
        return self._build_result(verify=verify)

    def _settle_at_horizon(self) -> None:
        """Settle every node and close the deficit of every job at its
        leaf, so segments, trace spans and integrals cover ``[0, now]``."""
        for ns in self._nodes.values():
            self._settle(ns)
            if ns.is_leaf:
                for _, jid in ns.heap:
                    st = self._states[jid]
                    pl = st.leaf_time
                    st.deficit += (pl - st.remaining) / pl * (self.now - st.prev_end)

    def _build_result(self, *, verify: bool) -> SimulationResult:
        if self._result is not None:
            return self._result
        counters = self._counters
        sink = self._sink
        trace = None
        if sink is not None:
            sink.finalize(self.now)
            trace = sink.build(self.now)
            if counters is not None and trace is not None:
                counters.trace_records += len(trace)
        if counters is not None:
            counters.run_seconds += self._run_seconds
            self._run_seconds = 0.0
            aggregate = global_counters()
            if aggregate is not None and aggregate is not counters:
                aggregate.merge(counters)
        result = SimulationResult.from_records(
            {jid: st.record for jid, st in self._states.items()},
            instance=self.instance,
            speeds=self.speeds,
            fractional_flow=0.0,
            alive_integral=0.0,
            num_events=self._num_events,
            segments=self._segments,
            counters=counters,
            trace=trace,
        )
        # The integrals are summed from the result's own columns, plus the
        # terms of the evicted jobs, folded as they are taken.
        self.take_finished(False)
        alive, frac = flow_integrals(
            result.releases, result.completion_times, result.cancel_times,
            np.array([st.deficit for st in self._states.values()]), self.now,
        )
        result.alive_integral = self._evicted_alive + alive
        result.fractional_flow = self._evicted_frac + frac
        if verify:
            result.verify_complete()
        self._result = result
        return result

    def run(self, *, until: float | None = None) -> SimulationResult:
        """Simulate until every released job completes.

        The batch entry point: streams the instance's (finite) job set
        through the open-system core in one uninterrupted step.

        Parameters
        ----------
        until:
            Optional time horizon.  When set, the run stops at the first
            event past ``until`` (time is advanced exactly to ``until``
            so the integrals cover ``[0, until]``); jobs still in flight
            stay unfinished in the result (``records`` with partial
            completion lists — use
            :meth:`~repro.sim.result.SimulationResult.completed_records`).
            Jobs released after ``until`` are not admitted.
        """
        self.stream_start(self.instance.jobs)
        check_horizon(until)
        self._stream_loop(until)
        if until is not None:
            self._settle_at_horizon()
        return self._build_result(verify=until is None)

    # ------------------------------------------------------------------
    # invariants (enabled via check_invariants=True)
    # ------------------------------------------------------------------
    def _assert_invariants(self) -> None:
        seen: dict[int, int] = {}
        for ns in self._nodes.values():
            # Each queued job must actually be at this node.
            for _, jid in ns.heap:
                st = self._states[jid]
                if st.done or st.path[st.idx] != ns.node_id:
                    raise InvariantViolation(
                        f"job {jid} queued on node {ns.node_id} but is at "
                        f"{'done' if st.done else st.path[st.idx]}"
                    )
                if jid in seen:
                    raise InvariantViolation(
                        f"job {jid} queued on two nodes: {seen[jid]}, {ns.node_id}"
                    )
                seen[jid] = ns.node_id
            # A down node must be idle (its queue stalls, it never arms)
            # and the down flag must agree with the engine's down set.
            if ns.down:
                if ns.active_id is not None:
                    raise InvariantViolation(
                        f"down node {ns.node_id} has active job {ns.active_id}"
                    )
                if ns.node_id not in self._down:
                    raise InvariantViolation(
                        f"node {ns.node_id} flagged down but absent from the "
                        "down set"
                    )
            elif ns.node_id in self._down:
                raise InvariantViolation(
                    f"node {ns.node_id} in the down set but not flagged down"
                )
            # The active job must be the heap minimum.
            if ns.active_id is not None:
                if not ns.heap or ns.heap[0][1] != ns.active_id:
                    raise InvariantViolation(
                        f"node {ns.node_id} active job {ns.active_id} is not "
                        "the queue minimum"
                    )
        for jid in self._alive:
            st = self._states[jid]
            if st.done:
                raise InvariantViolation(f"done job {jid} still in alive set")
            rem = self._live_remaining(st)
            p = self.instance.processing_time(st.job, st.path[st.idx])
            # The lower band must admit anything finished_tol treats as
            # zero, or a job the drain just declared finished could fail
            # the invariant it satisfies semantically.
            if rem < -finished_tol(p) or rem > p * (1.0 + REL_EPS):
                raise InvariantViolation(
                    f"job {jid} remaining {rem} outside [0, {p}]"
                )
        self._assert_aggregates()

    def _assert_aggregates(self) -> None:
        """The debug oracle for the incremental congestion aggregates: a
        brute-force alive-set scan must reproduce every per-node count
        and (within float-drift tolerance) every volume the O(1) reads
        report."""
        count = {v: 0 for v in self._nodes}
        volume = {v: 0.0 for v in self._nodes}
        queued = {v: 0.0 for v in self._nodes}
        for jid in self._alive:
            st = self._states[jid]
            live = self._live_remaining(st)
            for pos in range(st.idx, len(st.path)):
                v = st.path[pos]
                count[v] += 1
                if pos == st.idx:
                    volume[v] += live
                    queued[v] += live
                else:
                    volume[v] += self._processing_on(self._nodes[v], st)
        view = self._view
        for v in self._nodes:
            if count[v] != self._through_count[v]:
                raise InvariantViolation(
                    f"node {v}: tracked through-count {self._through_count[v]}, "
                    f"scanned {count[v]}"
                )
            got = view.volume_through(v)
            tol = DRIFT_RTOL * max(1.0, volume[v])
            if abs(got - volume[v]) > tol:
                raise InvariantViolation(
                    f"node {v}: volume_through drift: tracked {got}, "
                    f"scanned {volume[v]}"
                )
            got_q = view.queue_volume_at(v)
            if abs(got_q - queued[v]) > DRIFT_RTOL * max(1.0, queued[v]):
                raise InvariantViolation(
                    f"node {v}: queue_volume_at drift: tracked {got_q}, "
                    f"scanned {queued[v]}"
                )


def simulate(
    instance: Instance,
    policy: AssignmentPolicy,
    *,
    speeds: SpeedProfile | None = None,
    priority: PriorityFn = sjf_priority,
    record_segments: bool = False,
    check_invariants: bool = False,
    sink: EngineSink | None = None,
    until: float | None = None,
    collect_counters: bool | None = None,
    events: EventSchedule | None = None,
) -> SimulationResult:
    """Convenience wrapper: build an :class:`Engine` and run it.

    Every option is keyword-only, matching the :mod:`repro.api` facade
    (the positional ``speeds`` form was removed after its one-release
    deprecation window).
    """
    return Engine(
        instance,
        policy,
        speeds,
        priority=priority,
        record_segments=record_segments,
        check_invariants=check_invariants,
        sink=sink,
        collect_counters=collect_counters,
        events=events,
    ).run(until=until)
