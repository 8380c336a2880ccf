"""The open-system streaming session.

:class:`StreamSession` drives an engine's re-enterable stream loop
(``stream_step``) over a lazy — possibly infinite — arrival source,
folding metrics window by window:

* jobs are admitted one lookahead at a time, never materialised as an
  :class:`~repro.workload.instance.Instance` job set;
* finished and cancelled jobs are **evicted** from the engine the
  moment they end; the engine holds their records until the session
  takes them at the end of each engine step (``take_finished``), bins
  the flow times once into two fixed-bin streaming histograms
  (:mod:`repro.service.metrics`) — cumulative and the open window's —
  and hands the records to the callbacks, so memory is bounded by the
  number of jobs *in flight*, not the number streamed;
* a closing window keeps only its counts, its flow histogram and every
  node's busy total at its two boundaries (the ``keep_windows`` latest
  are retained); its :class:`WindowStats` — per-node utilization is
  the busy time between the boundaries — is built when first read, so
  a window nobody reads costs no summary; a session traced with
  ``record_points`` / ``record_spans`` *retires* its recorder's
  records as each window closes
  (:meth:`~repro.obs.trace.TraceRecorder.retire`), keeping the trace
  bounded too.

A session runs on the python engine (:class:`~repro.sim.engine.Engine`)
or, when ``backend="c"`` and the compiled kernel plans the policy,
priority and setting, on a kernel session
(:class:`~repro.sim.backends.c_backend.CStreamEngine`).  Both report
each step's admissions, its ended jobs in (terminal time, job id)
order and every node's busy time through the same interface, so one
fold serves both and the histograms, callbacks and integrals agree
exactly.  The python engine is the only one for per-event traces,
invariant checks and dynamic events; a c session asked for one of them
warns and runs python.

The batch path is the closed special case: :func:`repro.api.simulate`
is one uninterrupted step over a finite source with eviction off.
Construct sessions through :func:`repro.api.open_system`, which resolves
policy/backend names exactly like ``simulate()``.
"""

from __future__ import annotations

import warnings
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import SimulationError
from repro.obs.trace import GaugeSample, SimulationTrace, TraceConfig, TraceRecorder
from repro.service.metrics import StreamingHistogram, StreamSnapshot, WindowStats
from repro.sim.engine import Engine, PriorityFn, sjf_priority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import AssignmentPolicy
    from repro.sim.result import SimulationResult
    from repro.sim.speed import SpeedProfile
    from repro.workload.events import EventSchedule
    from repro.workload.instance import Instance
    from repro.workload.job import Job

__all__ = ["StreamSession"]


@dataclass(slots=True)
class _ClosedWindow:
    """A closed window as the fold leaves it: its counts, its flow
    histogram and every node's busy total at its end and at its start;
    ``stats`` holds its :class:`WindowStats` once built."""

    index: int
    end: float
    arrivals: int
    completions: int
    cancelled: int
    hist: StreamingHistogram | None
    busy: list[float] | None
    busy_prev: list[float] | None
    stats: WindowStats | None = None


def _c_decline(record_points, record_spans, check_invariants, events):
    """Why a c session must run python instead (``None``: it need not)."""
    if record_points or record_spans:
        return "record_points/record_spans need the per-event trace"
    if check_invariants:
        return "check_invariants audits the python engine's state"
    if events is not None and len(events):
        return "dynamic events in streams run on the python engine only"
    return None


class StreamSession:
    """A live open-system run: ``step(until=...)`` / ``drain()`` /
    ``snapshot()`` / ``close()``.

    Parameters
    ----------
    instance:
        The simulation *context*: tree, endpoint setting and name.  Its
        job set is ignored — jobs come from ``arrivals``.
    arrivals:
        Release-ordered iterable of :class:`~repro.workload.job.Job`;
        may be an infinite generator (see
        :func:`repro.workload.arrivals.job_stream`).
    policy / speeds / priority / check_invariants:
        As for :class:`~repro.sim.engine.Engine`.
    window:
        Aggregation window length (simulation seconds).  Metrics fold
        and trace records retire every time a boundary ``k * window``
        passes.
    keep_windows:
        How many closed windows to retain (older ones are dropped —
        bounded memory), each as its histogram and busy totals until
        its :class:`WindowStats` is first read; the cumulative
        aggregates always cover the whole run.
    record_points / record_spans:
        Attach a :class:`TraceRecorder` for per-event lifecycle points,
        service spans and dynamic-event records.  Off by default: they
        are retired with their window anyway, so they only matter if
        you inspect ``result.trace`` after :meth:`close`.
    histogram:
        Optional :class:`StreamingHistogram` prototype; its bin layout
        (``low``/``high``/``bins``) is copied for the cumulative and
        per-window flow histograms.  The session never adds to the
        prototype itself.
    events:
        Optional :class:`~repro.workload.events.EventSchedule` of
        dynamic mid-run events (node breakdowns/repairs, cancellations).
        Cancelled jobs count as *cancellations*, never as completions:
        they stay out of the flow histograms and the window/snapshot
        completion counters (``WindowStats.cancelled`` /
        ``StreamSnapshot.cancelled_total`` track them instead).
    on_finish:
        Optional callback called with each finished
        :class:`~repro.sim.result.JobRecord` — the only place completed
        records are observable, since the engine evicts them.
    on_cancel:
        Same, for records withdrawn by a dynamic cancel event (their
        ``cancelled_at`` is set; they never reach ``on_finish``).  Both
        callbacks run at the end of each engine step, finished and
        cancelled records alike in (terminal time, job id) order.
    backend:
        ``"python"`` or ``"c"`` (resolved by
        :func:`repro.api.open_system`).  A ``"c"`` session runs on the
        compiled kernel when it plans the policy, priority and setting
        and none of ``record_points``, ``record_spans``,
        ``check_invariants`` or ``events`` is asked for; otherwise it
        warns with the reason and runs python.
    """

    def __init__(
        self,
        *,
        instance: "Instance",
        arrivals: Iterable["Job"],
        policy: "AssignmentPolicy",
        window: float = 10.0,
        keep_windows: int = 16,
        speeds: "SpeedProfile | None" = None,
        priority: PriorityFn = sjf_priority,
        check_invariants: bool = False,
        record_points: bool = False,
        record_spans: bool = False,
        histogram: StreamingHistogram | None = None,
        events: "EventSchedule | None" = None,
        on_finish=None,
        on_cancel=None,
        backend: str = "python",
    ) -> None:
        if not window > 0.0:
            raise SimulationError(f"window must be positive, got {window}")
        if keep_windows < 1:
            raise SimulationError(f"keep_windows must be >= 1, got {keep_windows}")
        self.window = float(window)
        proto = histogram if histogram is not None else StreamingHistogram()
        self._hist_layout = {"low": proto.low, "high": proto.high,
                             "bins": proto.bins}
        self._cum_hist = StreamingHistogram(**self._hist_layout)
        self._win_hist = StreamingHistogram(**self._hist_layout)
        self._on_finish = on_finish
        self._on_cancel = on_cancel
        # Only dynamic events cancel jobs.
        self._want_records = on_finish is not None or (
            on_cancel is not None and bool(events)
        )
        self._arrivals_total = self._completions_total = self._cancelled_total = 0
        self._arrivals_win = self._completions_win = self._cancelled_win = 0
        # What a callback raised, once one has (see step).
        self._failure: BaseException | None = None
        self._recorder: TraceRecorder | None = None
        engine = None
        if backend == "c":
            engine = self._open_c(
                instance, policy, speeds, priority,
                _c_decline(record_points, record_spans, check_invariants, events),
            )
        self._backend = "python" if engine is None else "c"
        if engine is None:
            if record_points or record_spans:
                self._recorder = TraceRecorder(TraceConfig(
                    record_points=record_points, record_spans=record_spans,
                ))
            engine = Engine(
                instance,
                policy,
                speeds,
                priority=priority,
                check_invariants=check_invariants,
                max_events=None,
                sink=self._recorder,
                events=events,
                evict_finished=True,
            )
        self._engine = engine
        self._node_ids = tuple(
            v for v in instance.tree.node_ids if v != instance.tree.root
        )
        self._busy_prev = [0.0] * len(self._node_ids)
        self._windows_closed = 0
        self._windows: deque[_ClosedWindow] = deque(maxlen=keep_windows)
        self._result: "SimulationResult | None" = None
        engine.stream_start(arrivals)

    @staticmethod
    def _open_c(instance, policy, speeds, priority, reason):
        """A kernel session for this run, or ``None`` with a warning
        naming why it runs python."""
        if reason is None:
            from repro.sim.backends.c_backend import CKernelInapplicable, CStreamEngine

            try:
                return CStreamEngine(instance, policy, speeds, priority=priority)
            except CKernelInapplicable as exc:
                reason = f"the c kernel has no plan for {exc}"
        warnings.warn(
            f"open_system runs this session on the python engine: {reason}",
            RuntimeWarning,
            stacklevel=4,
        )
        return None

    # -- lifecycle ------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._engine.now

    @property
    def backend(self) -> str:
        """The engine the session runs on: ``"python"`` or ``"c"``."""
        return self._backend

    @property
    def closed(self) -> bool:
        return self._result is not None

    @property
    def windows(self) -> tuple[WindowStats, ...]:
        """The retained closed windows, oldest first."""
        return tuple(map(self._window_stats, self._windows))

    @property
    def last_window(self) -> WindowStats | None:
        return self._window_stats(self._windows[-1]) if self._windows else None

    def idle(self) -> bool:
        """True when the arrival source is exhausted and no job is in
        flight — nothing further can happen.  Raises on a failed
        session (see :meth:`step`)."""
        self._check_callbacks()
        return self._engine.stream_idle()

    def step(self, *, until: float | None = None) -> float:
        """Advance the open system to ``until`` (default: the next
        window boundary), folding and retiring every window whose
        boundary passes on the way.  Returns the new :attr:`now`.

        The ``on_finish`` / ``on_cancel`` callbacks run at the end of
        each engine step.  If the arrival source or a callback raises,
        this step re-raises its exception and the session is failed:
        every later :meth:`step`, :meth:`drain` and :meth:`idle` raises
        :class:`~repro.exceptions.SimulationError` naming it (as
        ``__cause__``), while :meth:`snapshot` and :meth:`close` still
        read the state at the failure (see ``docs/streaming.md``).
        """
        if self._result is not None:
            raise SimulationError("session is closed")
        self._check_callbacks()
        engine = self._engine
        w = self.window
        if until is None:
            until = (self._windows_closed + 1) * w
        if until < engine.now:
            raise SimulationError(
                f"step until={until} is before now={engine.now}"
            )
        boundary = (self._windows_closed + 1) * w
        while boundary <= until:
            self._engine_step(boundary)
            self._fold_window(boundary)
            boundary = (self._windows_closed + 1) * w
        if until > engine.now:
            self._engine_step(until)
        return engine.now

    def drain(self) -> float:
        """Step window by window until the stream is idle (every admitted
        job finished and the arrival source exhausted).  Only meaningful
        for *finite* streams — an infinite source never drains.  Returns
        the final :attr:`now`."""
        while not self.idle():
            self.step()
        return self.now

    def snapshot(self) -> StreamSnapshot:
        """The cumulative live view at the current time (cheap: O(nodes)
        plus the histogram summaries)."""
        engine = self._engine
        now = engine.now
        if now > 0.0:
            utilization = {
                v: b / now for v, b in zip(self._node_ids, engine.busy_totals())
            }
        else:
            utilization = dict.fromkeys(self._node_ids, 0.0)
        return StreamSnapshot(
            time=now,
            window=self.window,
            windows_closed=self._windows_closed,
            jobs_in_flight=engine.alive_count,
            arrivals_total=self._arrivals_total,
            completions_total=self._completions_total,
            cancelled_total=self._cancelled_total,
            flow=self._cum_hist.summary(),
            utilization=utilization,
            last_window=self.last_window,
        )

    def close(self) -> "SimulationResult":
        """Finish observing and build the final
        :class:`~repro.sim.result.SimulationResult` (idempotent).

        Does *not* drain the stream — call :meth:`drain` first if every
        admitted job should complete.  The result carries only jobs
        still in flight (ended ones were evicted) and the retained
        tail of the trace; ``result.trace.meta["retired"]`` records what
        window retirement dropped.
        """
        if self._result is None:
            result = self._engine.stream_result(verify=False)
            result.trace = self._closing_trace(result.trace)
            self._result = result
        return self._result

    # -- internals ------------------------------------------------------
    def _check_callbacks(self) -> None:
        """Raise what every call on a session failed by a callback
        raises."""
        if self._failure is not None:
            raise SimulationError(
                f"the session failed: a callback raised {self._failure!r}"
            ) from self._failure

    def _engine_step(self, until: float) -> None:
        """One engine step, then its arrivals and ended jobs into the
        tallies and callbacks — also when the step raised, so the
        snapshot stays consistent."""
        engine = self._engine
        try:
            engine.stream_step(until=until)
        finally:
            n = engine.step_arrivals
            self._arrivals_total += n
            self._arrivals_win += n
            flows, records, cancelled = engine.take_finished(self._want_records)
            if flows:
                self._cum_hist.add_many(flows, self._win_hist)
            self._completions_total += len(flows)
            self._completions_win += len(flows)
            self._cancelled_total += len(cancelled)
            self._cancelled_win += len(cancelled)
            try:
                for record in records:
                    callback = (
                        self._on_finish if record.cancelled_at is None
                        else self._on_cancel
                    )
                    if callback is not None:
                        callback(record)
            except BaseException as exc:
                self._failure = exc
                raise

    def _fold_window(self, boundary: float) -> None:
        """Close the window ending at ``boundary``: keep what its
        :class:`WindowStats` is built from, then retire everything the
        recorder holds for it."""
        busy = self._engine.busy_totals()
        self._windows.append(_ClosedWindow(
            self._windows_closed, boundary, self._arrivals_win,
            self._completions_win, self._cancelled_win, self._win_hist,
            busy, self._busy_prev,
        ))
        self._busy_prev = busy
        self._windows_closed += 1
        self._arrivals_win = self._completions_win = self._cancelled_win = 0
        self._win_hist = StreamingHistogram(**self._hist_layout)
        if self._recorder is not None:
            self._recorder.retire(before=boundary)

    def _window_stats(self, closed: _ClosedWindow) -> WindowStats:
        """``closed``'s :class:`WindowStats`, built on first read and
        kept (its histogram and busy totals are let go then)."""
        if closed.stats is None:
            w = self.window
            utilization = {}
            for v, b, prev in zip(self._node_ids, closed.busy, closed.busy_prev):
                b -= prev
                if b < 0.0:  # pragma: no cover - float guard
                    b = 0.0
                utilization[v] = b / w
            closed.stats = WindowStats(
                index=closed.index,
                start=closed.end - w,
                end=closed.end,
                arrivals=closed.arrivals,
                completions=closed.completions,
                cancelled=closed.cancelled,
                flow=closed.hist.summary(),
                utilization=utilization,
            )
            closed.hist = closed.busy = closed.busy_prev = None
        return closed.stats

    def _closing_trace(self, recorded: SimulationTrace | None) -> SimulationTrace:
        """The closing trace: its meta, with the gauge samples every
        window fold retired, and the trailing sample at ``now`` of the
        nodes' settled state (queue depth and volume, through-count,
        busy time since the last boundary); a traced session adds its
        recorder's points, spans and events (``recorded``) and their
        retired counts."""
        engine = self._engine
        instance = engine.instance
        now = engine.now
        meta = {
            "instance": getattr(instance, "name", None) or "unnamed",
            "jobs": len(instance.jobs),
            "nodes": len(self._node_ids),
            "gauge_interval": self.window,
            "final_time": now,
        }
        retired = {"points": 0, "spans": 0, "gauges": 0, "events": 0}
        if recorded is not None:
            retired.update(recorded.meta.get("retired", {}))
        retired["gauges"] = self._windows_closed * len(self._node_ids)
        if any(retired.values()):
            meta["retired"] = retired
        gauges = []
        last = self._windows_closed * self.window
        if now > last:
            window = now - last
            depth, qvol, through, busy = engine.gauge_state
            for v, d, q, c, b, prev in zip(
                self._node_ids, depth, qvol, through, busy, self._busy_prev
            ):
                q = q if d else 0.0
                if q < 0.0:
                    q = 0.0
                b -= prev
                if b < 0.0:  # pragma: no cover - float guard
                    b = 0.0
                gauges.append(GaugeSample(
                    time=now, node=v, queue_depth=d, queue_volume=q,
                    through_count=c, busy_s=b,
                    utilization=b / window if window > 0.0 else 0.0,
                ))
        trace = SimulationTrace(meta=meta, gauges=gauges)
        if recorded is not None:
            trace.points, trace.spans, trace.events = (
                recorded.points, recorded.spans, recorded.events
            )
        return trace
