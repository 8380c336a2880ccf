"""Structured simulation tracing: span records and per-node gauges.

:class:`TraceRecorder` is the engine-side collector behind the
observability layer: an :class:`~repro.sim.engine.EngineSink`, passed
as ``sink=``.  Every hook site costs one ``is None`` test when no sink
is attached, and the engine's behaviour (event order, completion
times, registry output) is identical with tracing on or off — the
recorder only observes.

What gets recorded
------------------
* **Points** — instants in the job lifecycle: ``arrival`` (dispatch to a
  leaf), ``available`` (the job reached a node of its path),
  ``hop_complete`` (it finished processing there) and ``finish`` (it
  completed on its leaf).
* **Service spans** — maximal (node, job) processing intervals, the same
  intervals ``record_segments`` captures, but recorded independently so
  tracing does not force segment retention on the result.
* **Gauges** — sampled per-node state at a configurable cadence
  (``gauge_interval``): queue depth, queued volume, the paper's
  ``|Q_v(t)|`` through-count, and the exact busy time / utilization of
  the window ending at the sample.  Samples taken at an event time use
  the *pre-event* state (the state that held on the half-open interval
  ending at the sample), with the active run's progress — in queued
  volume and busy time — evaluated at the sample instant.

:meth:`TraceRecorder.build` assembles a :class:`SimulationTrace`: the
raw points and service spans plus *derived* spans — per-hop ``queue_wait``
gaps (intervals a job sat at a node without being processed, including
preemption gaps) and whole-job ``job`` spans (release to completion).
Exporters live in :mod:`repro.obs.export`; the JSONL schema is
documented and validated by :mod:`repro.obs.schema`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.sim.engine import EngineSink
from repro.sim.result import JobRecord

__all__ = [
    "TraceConfig",
    "TracePoint",
    "TraceSpan",
    "GaugeSample",
    "TraceEvent",
    "SimulationTrace",
    "TraceRecorder",
    "crosscheck_trace",
    "POINT_KINDS",
    "SPAN_KINDS",
    "EVENT_KINDS",
]

#: Valid ``TracePoint.kind`` values.
POINT_KINDS = ("arrival", "available", "hop_complete", "finish")

#: Valid ``TraceSpan.kind`` values.
SPAN_KINDS = ("service", "queue_wait", "job")

#: Valid ``TraceEvent.kind`` values (the dynamic-event lifecycle of
#: ``docs/dynamic-events.md``: breakdown, repair, withdrawal, and the
#: true-size revelation at completion of an estimated-size job).
EVENT_KINDS = ("node_down", "node_up", "cancel", "reveal")

#: Gaps shorter than this fraction of the hop duration are not emitted
#: as ``queue_wait`` spans (float noise between back-to-back segments).
_GAP_RTOL = 1e-9


@dataclass(frozen=True, slots=True)
class TraceConfig:
    """Tracing switches.

    Attributes
    ----------
    gauge_interval:
        Cadence (simulation seconds) of the per-node gauge samples;
        ``None`` disables gauges entirely.
    gauge_nodes:
        Nodes to sample (``None`` = every non-root node).
    record_points:
        Record job-lifecycle points (arrival/available/hop_complete/
        finish).
    record_spans:
        Record per-(node, job) service spans.
    """

    gauge_interval: float | None = None
    gauge_nodes: tuple[int, ...] | None = None
    record_points: bool = True
    record_spans: bool = True

    def __post_init__(self) -> None:
        if self.gauge_interval is not None and not (self.gauge_interval > 0.0):
            raise ValueError(
                f"gauge_interval must be positive, got {self.gauge_interval}"
            )


@dataclass(frozen=True, slots=True)
class TracePoint:
    """One instant in a job's lifecycle.

    ``node`` is the assigned leaf for ``arrival``/``finish`` points and
    the path node involved otherwise.
    """

    kind: str
    time: float
    job_id: int
    node: int


@dataclass(frozen=True, slots=True)
class TraceSpan:
    """One interval: ``service`` (node processed job), ``queue_wait``
    (job sat at node unprocessed) or ``job`` (release to completion;
    ``node`` is the assigned leaf)."""

    kind: str
    start: float
    end: float
    job_id: int
    node: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class GaugeSample:
    """Per-node state at one sample time.

    ``busy_s`` is the exact processing time the node performed in the
    window ``(prev_sample, time]`` and ``utilization`` is that divided
    by the window length; both are exact (service is piecewise linear
    between events), so summing ``busy_s`` over a node's samples
    reproduces its total service time.
    """

    time: float
    node: int
    queue_depth: int
    queue_volume: float
    through_count: int
    busy_s: float
    utilization: float


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One dynamic-event lifecycle record.

    ``node`` is set for ``node_down``/``node_up`` and for ``cancel``
    (the node the job was withdrawn from); ``job_id`` for ``cancel`` and
    ``reveal``; ``size`` is the revealed true size of a ``reveal``.
    """

    kind: str
    time: float
    node: int | None = None
    job_id: int | None = None
    size: float | None = None


@dataclass
class SimulationTrace:
    """The assembled trace of one simulation run.

    Attributes
    ----------
    meta:
        Run metadata: schema id, instance name, job/node counts, the
        gauge cadence and the final simulation time.
    points / spans / gauges:
        The records, each in time order (spans by start time).
    events:
        Dynamic-event lifecycle records (breakdown / repair / cancel /
        reveal), in processing order; empty for event-free runs without
        size estimates, so existing consumers see no change.
    """

    meta: dict
    points: list[TracePoint] = field(default_factory=list)
    spans: list[TraceSpan] = field(default_factory=list)
    gauges: list[GaugeSample] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    # -- queries --------------------------------------------------------
    def points_of(self, kind: str) -> list[TracePoint]:
        """All points of one kind, in time order."""
        return [p for p in self.points if p.kind == kind]

    def events_of(self, kind: str) -> list[TraceEvent]:
        """All dynamic-event records of one kind, in time order."""
        return [e for e in self.events if e.kind == kind]

    def spans_of(self, kind: str) -> list[TraceSpan]:
        """All spans of one kind."""
        return [s for s in self.spans if s.kind == kind]

    def spans_for_job(self, job_id: int) -> list[TraceSpan]:
        """Every span mentioning one job."""
        return [s for s in self.spans if s.job_id == job_id]

    def node_busy_s(self, node: int) -> float:
        """Total service time one node performed (from service spans)."""
        return sum(
            s.duration for s in self.spans if s.kind == "service" and s.node == node
        )

    def gauges_for(self, node: int) -> list[GaugeSample]:
        """Gauge samples of one node, in time order."""
        return [g for g in self.gauges if g.node == node]

    def __len__(self) -> int:
        return (
            len(self.points)
            + len(self.spans)
            + len(self.gauges)
            + len(self.events)
        )


def crosscheck_trace(result) -> list[str]:
    """Cross-check a run's trace against its other outputs.

    Takes a :class:`~repro.sim.result.SimulationResult` produced with
    both ``sink=TraceRecorder()`` and ``record_segments=True`` and
    returns a list of human-readable discrepancy descriptions (empty
    when consistent):

    * every completed job has exactly one ``finish`` point, at the
      record's completion time;
    * ``arrival`` points land on the assigned leaf at the job's release;
    * the multiset of ``service`` spans equals the multiset of recorded
      segments (tracing must not perturb or re-derive the schedule);
    * per-node busy time from spans matches segment totals;
    * every cancelled record has exactly one ``cancel`` event at its
      ``cancelled_at`` instant (and vice versa), and every finished job
      carrying a size estimate has a ``reveal`` event at its completion
      quoting the true size.

    Used by the fuzzing battery (:mod:`repro.testing.checks`); exact
    equality is intentional — both sides quote the same engine floats.

    A trace pruned by window retirement (``meta["retired"]``, see
    :meth:`TraceRecorder.retire`) is checked in *subset* mode: records
    that would live in retired windows are allowed to be absent, and the
    service-span multiset need only be contained in the segments rather
    than equal to them.
    """
    problems: list[str] = []
    trace = result.trace
    if trace is None:
        return ["result has no trace; run with sink=TraceRecorder()"]
    retired = bool(trace.meta.get("retired"))
    finishes = {p.job_id: p for p in trace.points_of("finish")}
    if len(finishes) != len(trace.points_of("finish")):
        problems.append("duplicate finish points")
    for jid, rec in result.records.items():
        if not rec.finished:
            continue
        p = finishes.get(jid)
        if p is None:
            if not retired:
                problems.append(f"job {jid}: completed but no finish point")
        elif p.time != rec.completion:
            problems.append(
                f"job {jid}: finish point at {p.time}, record says {rec.completion}"
            )
        elif p.node != rec.path[-1]:
            problems.append(
                f"job {jid}: finish point on node {p.node}, leaf is {rec.path[-1]}"
            )
    arrivals = {p.job_id: p for p in trace.points_of("arrival")}
    for jid, rec in result.records.items():
        p = arrivals.get(jid)
        if p is None:
            if not retired:
                problems.append(f"job {jid}: no arrival point")
        elif p.node != rec.path[-1]:
            problems.append(
                f"job {jid}: arrival point on node {p.node}, leaf is {rec.path[-1]}"
            )
    if result.segments is not None:
        seg_set = sorted(
            (s.start, s.end, s.job_id, s.node) for s in result.segments
        )
        span_set = sorted(
            (s.start, s.end, s.job_id, s.node) for s in trace.spans_of("service")
        )
        if retired:
            seg_multiset: dict[tuple, int] = {}
            for item in seg_set:
                seg_multiset[item] = seg_multiset.get(item, 0) + 1
            for item in span_set:
                left = seg_multiset.get(item, 0)
                if left == 0:
                    problems.append(
                        f"service span {item} not among recorded segments"
                    )
                else:
                    seg_multiset[item] = left - 1
        elif seg_set != span_set:
            problems.append(
                f"service spans ({len(span_set)}) differ from recorded "
                f"segments ({len(seg_set)})"
            )
    cancels = {e.job_id: e for e in trace.events_of("cancel")}
    if len(cancels) != len(trace.events_of("cancel")):
        problems.append("duplicate cancel events")
    for jid, rec in result.records.items():
        if rec.cancelled:
            e = cancels.pop(jid, None)
            if e is None:
                if not retired:
                    problems.append(f"job {jid}: cancelled but no cancel event")
            elif e.time != rec.cancelled_at:
                problems.append(
                    f"job {jid}: cancel event at {e.time}, record says "
                    f"{rec.cancelled_at}"
                )
    for jid in cancels:
        problems.append(f"cancel event for job {jid} which is not cancelled")
    reveals = {e.job_id: e for e in trace.events_of("reveal")}
    for jid, rec in result.records.items():
        if not rec.finished or rec.size_estimate is None:
            continue
        e = reveals.get(jid)
        if e is None:
            if not retired:
                problems.append(f"job {jid}: estimated size but no reveal event")
        elif e.time != rec.completion:
            problems.append(
                f"job {jid}: reveal at {e.time}, completion is {rec.completion}"
            )
    return problems


class TraceRecorder(EngineSink):
    """Low-overhead engine sink collecting a :class:`SimulationTrace`.

    Pass one as ``sink=`` to :class:`~repro.sim.engine.Engine` (or
    :func:`~repro.sim.engine.simulate` / :func:`repro.api.simulate`), or
    use :func:`repro.api.trace_run`; after the run the assembled trace
    is available on ``SimulationResult.trace``.  A recorder observes
    exactly one engine run; reusing one raises
    :class:`~repro.exceptions.SimulationError`.
    """

    def __init__(self, config: TraceConfig | None = None, **kwargs) -> None:
        if config is not None and kwargs:
            raise TypeError("pass either a TraceConfig or keyword switches, not both")
        self.config = config if config is not None else TraceConfig(**kwargs)
        self._engine = None
        self._built: SimulationTrace | None = None
        # raw records
        self._points: list[TracePoint] = []
        self._service: list[TraceSpan] = []
        self._gauges: list[GaugeSample] = []
        self._events: list[TraceEvent] = []
        # gauge state
        self._interval = self.config.gauge_interval
        self._sample_k = 1  # index of the next cadence point
        self._last_sample_t = 0.0
        self._busy_acc: dict[int, float] = {}
        self._busy_at_last: dict[int, float] = {}
        self._gauge_ids: tuple[int, ...] = ()
        self._record_points = self.config.record_points
        self._record_spans = self.config.record_spans
        # Window-retirement tally (open-system mode); all zero for batch
        # runs, in which case build() leaves the meta line unchanged.
        self._retired = {"points": 0, "spans": 0, "gauges": 0, "events": 0}

    # -- engine protocol ------------------------------------------------
    def attach(self, engine) -> None:
        """Bind to an engine (called from ``Engine.__init__``)."""
        if self._engine is not None:
            raise SimulationError(
                "a TraceRecorder can only observe one Engine run; build a new one"
            )
        self._engine = engine
        node_ids = tuple(engine._nodes)
        if self.config.gauge_nodes is not None:
            unknown = set(self.config.gauge_nodes) - set(node_ids)
            if unknown:
                raise SimulationError(
                    f"gauge_nodes contains unknown node ids: {sorted(unknown)}"
                )
            node_ids = tuple(self.config.gauge_nodes)
        self._gauge_ids = node_ids
        self._busy_acc = {v: 0.0 for v in engine._nodes}
        self._busy_at_last = {v: 0.0 for v in node_ids}

    def on_arrival(self, time: float, job_id: int, leaf: int) -> None:
        if self._record_points:
            self._points.append(TracePoint("arrival", time, job_id, leaf))

    def on_available(self, time: float, job_id: int, node: int) -> None:
        if self._record_points:
            self._points.append(TracePoint("available", time, job_id, node))

    def on_hop_complete(self, time: float, job_id: int, node: int) -> None:
        if self._record_points:
            self._points.append(TracePoint("hop_complete", time, job_id, node))

    def on_finish(self, time: float, record: JobRecord) -> None:
        if self._record_points:
            self._points.append(TracePoint("finish", time, record.job_id, record.leaf))

    # -- dynamic-event lifecycle (no on/off switch: event-free runs
    # without size estimates never reach these sites, so the common
    # path is unchanged) --------------------------------------------
    def on_node_down(self, time: float, node: int) -> None:
        self._events.append(TraceEvent("node_down", time, node=node))

    def on_node_up(self, time: float, node: int) -> None:
        self._events.append(TraceEvent("node_up", time, node=node))

    def on_cancel(self, time: float, record: JobRecord, node: int) -> None:
        """The job of ``record`` was withdrawn while at ``node``."""
        self._events.append(TraceEvent("cancel", time, node=node, job_id=record.job_id))

    def on_reveal(self, time: float, job_id: int, size: float) -> None:
        """An estimated-size job completed; its true size is revealed."""
        self._events.append(TraceEvent("reveal", time, job_id=job_id, size=size))

    def on_service(self, node: int, job_id: int, start: float, end: float) -> None:
        """A maximal (node, job) processing interval just closed."""
        if end > start:
            self._busy_acc[node] += end - start
            if self._record_spans:
                self._service.append(TraceSpan("service", start, end, job_id, node))

    def before_advance(self, t: float) -> None:
        """Emit gauge samples at every cadence point up to (and
        including) ``t``, using the pre-event state.

        Called from the engine's main loop just before simulated time
        advances to the next event at ``t``, and at a bounded run's
        horizon; between events every sampled quantity is either
        constant (queue membership) or linear (busy time), so the
        samples are exact.
        """
        if self._interval is None:
            return
        next_t = self._sample_k * self._interval
        while next_t <= t:
            self._sample(next_t)
            self._sample_k += 1
            next_t = self._sample_k * self._interval

    def finalize(self, now: float) -> None:
        """Close the trace at the end of the run: emit cadence points
        the final advance stepped past plus one trailing partial-window
        sample at ``now``, so busy time integrates to the exact total."""
        if self._interval is not None:
            self.before_advance(now)
            if now > self._last_sample_t:
                self._sample(now)

    def retire(self, *, before: float) -> dict[str, int]:
        """Drop records that belong entirely to closed windows.

        Removes points at ``time <= before``, service spans with
        ``end <= before`` and gauges at ``time <= before``; cumulative
        drop counts are kept and surfaced as the ``retired`` entry of the
        trace meta so a pruned trace is self-describing.  This is what
        bounds recorder memory in the open-system streaming mode: the
        session retires each window as it closes.  Returns the counts
        dropped *by this call*.  Raises after :meth:`build` — a built
        trace is immutable.
        """
        if self._built is not None:
            raise SimulationError("cannot retire records after build()")
        dropped = {"points": 0, "spans": 0, "gauges": 0, "events": 0}
        if self._points:
            kept = [p for p in self._points if p.time > before]
            dropped["points"] = len(self._points) - len(kept)
            self._points = kept
        if self._service:
            kept_s = [s for s in self._service if s.end > before]
            dropped["spans"] = len(self._service) - len(kept_s)
            self._service = kept_s
        if self._gauges:
            kept_g = [g for g in self._gauges if g.time > before]
            dropped["gauges"] = len(self._gauges) - len(kept_g)
            self._gauges = kept_g
        if self._events:
            kept_e = [e for e in self._events if e.time > before]
            dropped["events"] = len(self._events) - len(kept_e)
            self._events = kept_e
        for key, n in dropped.items():
            self._retired[key] = self._retired.get(key, 0) + n
        return dropped

    def cumulative_busy(self, node: int, at: float) -> float:
        """Exact total busy time of ``node`` over ``[0, at]``, including
        the in-flight partial of the active service span.  Unaffected by
        :meth:`retire` (the accumulator survives pruning) — this is the
        cumulative-utilization read of the streaming session."""
        return self._cum_busy(node, at)

    # -- internals ------------------------------------------------------
    def _cum_busy(self, node: int, at: float) -> float:
        """Exact cumulative busy time of ``node`` up to time ``at``
        (settled spans plus the in-flight partial)."""
        eng = self._engine
        total = self._busy_acc[node]
        ns = eng._nodes[node]
        if ns.active_id is not None and at > ns.active_started:
            total += at - ns.active_started
        return total

    def _sample(self, at: float) -> None:
        eng = self._engine
        window = at - self._last_sample_t
        for v in self._gauge_ids:
            ns = eng._nodes[v]
            depth = len(ns.heap)
            if depth:
                qvol = eng._queue_volume[v] - eng._live_processed(ns, at)
                if qvol < 0.0:
                    qvol = 0.0
            else:
                qvol = 0.0
            cum = self._cum_busy(v, at)
            busy = cum - self._busy_at_last[v]
            if busy < 0.0:  # pragma: no cover - float guard
                busy = 0.0
            self._busy_at_last[v] = cum
            self._gauges.append(
                GaugeSample(
                    time=at,
                    node=v,
                    queue_depth=depth,
                    queue_volume=qvol,
                    through_count=eng._through_count[v],
                    busy_s=busy,
                    utilization=busy / window if window > 0.0 else 0.0,
                )
            )
        self._last_sample_t = at

    # -- assembly -------------------------------------------------------
    def build(self, final_time: float) -> SimulationTrace:
        """Assemble the :class:`SimulationTrace` (idempotent)."""
        if self._built is not None:
            return self._built
        eng = self._engine
        instance = eng.instance if eng is not None else None
        meta = {
            "instance": getattr(instance, "name", None) or "unnamed",
            "jobs": len(instance.jobs) if instance is not None else 0,
            "nodes": len(eng._nodes) if eng is not None else 0,
            "gauge_interval": self._interval,
            "final_time": final_time,
        }
        if any(self._retired.values()):
            meta["retired"] = dict(self._retired)
        spans = list(self._service)
        spans.extend(self._derived_spans())
        spans.sort(key=lambda s: (s.start, s.end, s.node, s.job_id, s.kind))
        self._built = SimulationTrace(
            meta=meta,
            points=sorted(self._points, key=lambda p: (p.time, p.job_id)),
            spans=spans,
            gauges=self._gauges,
            # stable sort: same-instant events keep engine processing
            # order (completions/reveals before dyn events).
            events=sorted(self._events, key=lambda e: e.time),
        )
        return self._built

    def _derived_spans(self) -> list[TraceSpan]:
        """``queue_wait`` gaps per (job, hop) and whole-``job`` spans,
        derived from the recorded points and service spans."""
        if not self._record_points:
            return []
        available: dict[tuple[int, int], float] = {}
        completed: dict[tuple[int, int], float] = {}
        arrived: dict[int, tuple[float, int]] = {}
        finished: dict[int, float] = {}
        for p in self._points:
            if p.kind == "available":
                available[(p.job_id, p.node)] = p.time
            elif p.kind == "hop_complete":
                completed[(p.job_id, p.node)] = p.time
            elif p.kind == "arrival":
                arrived[p.job_id] = (p.time, p.node)
            elif p.kind == "finish":
                finished[p.job_id] = p.time
        service_by_hop: dict[tuple[int, int], list[TraceSpan]] = {}
        if self._record_spans:
            for s in self._service:
                service_by_hop.setdefault((s.job_id, s.node), []).append(s)
        out: list[TraceSpan] = []
        for jid, (release, leaf) in arrived.items():
            end = finished.get(jid)
            if end is not None:
                out.append(TraceSpan("job", release, end, jid, leaf))
        if not self._record_spans:
            return out
        for key, avail in available.items():
            jid, node = key
            hop_end = completed.get(key)
            if hop_end is None:
                hop_end = math.inf  # job still in flight at the horizon
            tol = _GAP_RTOL * max(1.0, hop_end - avail if hop_end < math.inf else 1.0)
            cursor = avail
            for s in sorted(service_by_hop.get(key, ()), key=lambda s: s.start):
                if s.start - cursor > tol:
                    out.append(TraceSpan("queue_wait", cursor, s.start, jid, node))
                cursor = max(cursor, s.end)
            if hop_end < math.inf and hop_end - cursor > tol:
                # trailing wait can only come from zero-work drains; keep
                # the timeline gap explicit rather than silently absorbed
                out.append(TraceSpan("queue_wait", cursor, hop_end, jid, node))
        return out
