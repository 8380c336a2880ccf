"""The open-system streaming session.

:class:`StreamSession` drives an engine's re-enterable stream loop
(``stream_step``) over a lazy — possibly infinite — arrival source,
folding metrics window by window:

* jobs are admitted one lookahead at a time, never materialised as an
  :class:`~repro.workload.instance.Instance` job set;
* finished jobs are **evicted** from the engine the moment they complete
  (``evict=True``); their flow times land in fixed-bin streaming
  histograms (:mod:`repro.service.metrics`) — cumulative and per-window
  — so memory is bounded by the number of jobs *in flight*, not the
  number streamed;
* per-node utilization is the exact busy time each engine reports at a
  window boundary, differenced against the previous one, and the trace
  recorder's points/spans/gauges are *retired* as each window closes
  (:meth:`~repro.obs.trace.TraceRecorder.retire`), keeping the trace
  bounded too.

A session runs on the python engine (:class:`~repro.sim.engine.Engine`)
or, when ``backend="c"`` and the compiled kernel plans the policy,
priority and setting, on a kernel session
(:class:`~repro.sim.backends.c_backend.CStreamEngine`); both hand each
engine step's finished jobs over in (completion time, job id) order, so
the histograms, callbacks and integrals agree exactly.  The python
engine is the only one for per-event traces, invariant checks, dynamic
events and ``evict=False``; a c session asked for one of them warns and
runs python.

The batch path is the closed special case: :func:`repro.api.simulate`
is one uninterrupted step over a finite source with eviction off.
Construct sessions through :func:`repro.api.open_system`, which resolves
policy/backend names exactly like ``simulate()``.
"""

from __future__ import annotations

import warnings
from collections import deque
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.exceptions import SimulationError
from repro.obs.trace import (
    GaugeSample,
    SimulationTrace,
    TraceConfig,
    TracePoint,
    TraceRecorder,
)
from repro.service.metrics import StreamingHistogram, StreamSnapshot, WindowStats
from repro.sim.engine import Engine, PriorityFn, sjf_priority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import AssignmentPolicy
    from repro.sim.result import JobRecord, SimulationResult
    from repro.sim.speed import SpeedProfile
    from repro.workload.events import EventSchedule
    from repro.workload.instance import Instance
    from repro.workload.job import Job

__all__ = ["StreamSession"]


class _Tally:
    """A session's counts, flow histograms and callbacks, fed by either
    engine."""

    def __init__(self, cum_hist, win_hist, on_finish, on_cancel) -> None:
        self.cum_hist = cum_hist
        self.win_hist = win_hist
        self.user_on_finish = on_finish
        self.user_on_cancel = on_cancel
        self.arrivals_total = self.completions_total = self.cancelled_total = 0
        self.arrivals_win = self.completions_win = self.cancelled_win = 0

    def fold_finished(self, flows, records) -> None:
        """Fold one engine step's finished jobs, already in (completion
        time, job id) order: histograms, counts, then callbacks."""
        cum, win = self.cum_hist.add, self.win_hist.add
        for flow in flows:
            cum(flow)
            win(flow)
        self.completions_total += len(flows)
        self.completions_win += len(flows)
        if self.user_on_finish is not None:
            for record in records:
                self.user_on_finish(record)


class _SessionRecorder(TraceRecorder, _Tally):
    """The python engine's one sink in a session: its windowed trace
    recorder, which also tallies arrivals and cancellations (cumulative
    and per window) and holds each step's finished records for the
    session to fold.  ``on_arrival``/``on_finish`` inline the base
    class's point recording, so each event costs one call."""

    def __init__(self, config, *tally) -> None:
        TraceRecorder.__init__(self, config)
        _Tally.__init__(self, *tally)
        self._finished: list[tuple[float, int, "JobRecord"]] = []

    def on_arrival(self, time: float, job_id: int, leaf: int) -> None:
        self.arrivals_total += 1
        self.arrivals_win += 1
        if self._record_points:
            self._points.append(TracePoint("arrival", time, job_id, leaf))

    def on_finish(self, time: float, record: "JobRecord") -> None:
        self._finished.append((time, record.job_id, record))
        if self._record_points:
            self._points.append(TracePoint("finish", time, record.job_id, record.leaf))

    def on_cancel(self, time: float, record: "JobRecord", node: int) -> None:
        # A cancellation is not a completion: the censored flow time
        # must not pollute the histograms or the completion counters.
        self.cancelled_total += 1
        self.cancelled_win += 1
        super().on_cancel(time, record, node)
        if self.user_on_cancel is not None:
            self.user_on_cancel(record)

    def take_finished(self, records: bool):
        """The step's finished jobs in (completion time, id) order:
        their flow times and records."""
        finished = self._finished
        if not finished:
            return (), ()
        finished.sort()  # ids are unique: records are never compared
        self._finished = []
        recs = [r for _, _, r in finished]
        return [r.flow_time for r in recs], recs

    def busy_totals(self, now: float) -> list[float]:
        return [self.cumulative_busy(v, now) for v in self._gauge_ids]


def _c_decline(record_points, record_spans, check_invariants, events, evict):
    """Why a c session must run python instead (``None``: it need not)."""
    if record_points or record_spans:
        return "record_points/record_spans need the per-event trace"
    if check_invariants:
        return "check_invariants audits the python engine's state"
    if events is not None and len(events):
        return "dynamic events in streams run on the python engine only"
    if not evict:
        return "evict=False keeps every record in the python engine"
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
        and completed records/trace spans retire every time a boundary
        ``k * window`` passes.
    keep_windows:
        How many closed :class:`WindowStats` to retain (older ones are
        dropped — bounded memory); the cumulative aggregates always
        cover the whole run.
    record_points / record_spans:
        Forwarded to the session's :class:`TraceRecorder`.  Off by
        default: lifecycle points and service spans are retired with
        their window anyway, so they only matter if you inspect
        ``result.trace`` after :meth:`close`.
    histogram:
        Optional :class:`StreamingHistogram` prototype; its bin layout
        (``low``/``high``/``bins``) is copied for the cumulative and
        per-window flow histograms.
    events:
        Optional :class:`~repro.workload.events.EventSchedule` of
        dynamic mid-run events (node breakdowns/repairs, cancellations).
        Cancelled jobs count as *cancellations*, never as completions:
        they stay out of the flow histograms and the window/snapshot
        completion counters (``WindowStats.cancelled`` /
        ``StreamSnapshot.cancelled_total`` track them instead).
    on_finish:
        Optional callback called with each finished
        :class:`~repro.sim.result.JobRecord` — with eviction on, the
        only place completed records are observable.  Each engine
        step's records arrive at its end, in (completion time, job id)
        order.
    on_cancel:
        Same, for records withdrawn by a dynamic cancel event (their
        ``cancelled_at`` is set; they never reach ``on_finish``).
    evict:
        Evict finished jobs from the engine (default).  ``False`` keeps
        every record for :meth:`close` — batch-equivalent output, at
        batch memory cost; only sensible for finite streams.
    backend:
        ``"python"`` or ``"c"`` (resolved by
        :func:`repro.api.open_system`).  A ``"c"`` session runs on the
        compiled kernel when it plans the policy, priority and setting
        and none of ``record_points``, ``record_spans``,
        ``check_invariants``, ``events`` or ``evict=False`` is asked
        for; otherwise it warns with the reason and runs python.
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
        evict: bool = True,
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
        tally = (
            proto if proto.count == 0 else StreamingHistogram(**self._hist_layout),
            StreamingHistogram(**self._hist_layout),
            on_finish,
            on_cancel,
        )
        engine = None
        if backend == "c":
            engine = self._open_c(
                instance, policy, speeds, priority,
                _c_decline(record_points, record_spans, check_invariants,
                           events, evict),
            )
        if engine is not None:
            self._recorder = None
            self._tally = _Tally(*tally)
            self._take_finished = engine.take_finished
            self._busy_totals = engine.busy_totals
        else:
            recorder = self._recorder = _SessionRecorder(
                TraceConfig(
                    gauge_interval=self.window,
                    record_points=record_points,
                    record_spans=record_spans,
                ),
                *tally,
            )
            engine = Engine(
                instance,
                policy,
                speeds,
                priority=priority,
                check_invariants=check_invariants,
                max_events=None,
                sink=recorder,
                events=events,
                evict_finished=evict,
            )
            self._tally = recorder
            self._take_finished = recorder.take_finished
            self._busy_totals = lambda: recorder.busy_totals(engine.now)
        self._engine = engine
        self._want_records = on_finish is not None
        self._node_ids = tuple(
            v for v in instance.tree.node_ids if v != instance.tree.root
        )
        self._busy_prev = [0.0] * len(self._node_ids)
        self._windows_closed = 0
        self._windows: deque[WindowStats] = deque(maxlen=keep_windows)
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
        return "python" if self._recorder is not None else "c"

    @property
    def closed(self) -> bool:
        return self._result is not None

    @property
    def windows(self) -> tuple[WindowStats, ...]:
        """The retained closed windows, oldest first."""
        return tuple(self._windows)

    @property
    def last_window(self) -> WindowStats | None:
        return self._windows[-1] if self._windows else None

    def idle(self) -> bool:
        """True when the arrival source is exhausted and no job is in
        flight — nothing further can happen."""
        return self._engine.stream_idle()

    def step(self, *, until: float | None = None) -> float:
        """Advance the open system to ``until`` (default: the next
        window boundary), folding and retiring every window whose
        boundary passes on the way.  Returns the new :attr:`now`.
        """
        if self._result is not None:
            raise SimulationError("session is closed")
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
        tally = self._tally
        if now > 0.0:
            utilization = {
                v: b / now for v, b in zip(self._node_ids, self._busy_totals())
            }
        else:
            utilization = dict.fromkeys(self._node_ids, 0.0)
        return StreamSnapshot(
            time=now,
            window=self.window,
            windows_closed=self._windows_closed,
            jobs_in_flight=engine.alive_count,
            arrivals_total=tally.arrivals_total,
            completions_total=tally.completions_total,
            cancelled_total=tally.cancelled_total,
            flow=tally.cum_hist.summary(),
            utilization=utilization,
            last_window=self.last_window,
        )

    def close(self) -> "SimulationResult":
        """Finish observing and build the final
        :class:`~repro.sim.result.SimulationResult` (idempotent).

        Does *not* drain the stream — call :meth:`drain` first if every
        admitted job should complete.  The result carries only jobs
        still in flight (finished ones were evicted) and the retained
        tail of the trace; ``result.trace.meta["retired"]`` records what
        window retirement dropped.
        """
        if self._result is None:
            result = self._engine.stream_result(verify=False)
            if self._recorder is None:
                result.trace = self._c_trace()
            self._result = result
        return self._result

    # -- internals ------------------------------------------------------
    def _engine_step(self, until: float) -> None:
        """One engine step, then its finished jobs into the tallies."""
        engine = self._engine
        engine.stream_step(until=until)
        if self._recorder is None:
            self._tally.arrivals_total += engine.step_arrivals
            self._tally.arrivals_win += engine.step_arrivals
        self._tally.fold_finished(*self._take_finished(self._want_records))

    def _fold_window(self, boundary: float) -> None:
        """Close the window ending at ``boundary``: roll up its stats,
        then retire everything the recorder holds for it."""
        w = self.window
        tally = self._tally
        busy = self._busy_totals()
        utilization = {}
        for v, b, prev in zip(self._node_ids, busy, self._busy_prev):
            b -= prev
            if b < 0.0:  # pragma: no cover - float guard
                b = 0.0
            utilization[v] = b / w
        self._busy_prev = busy
        stats = WindowStats(
            index=self._windows_closed,
            start=boundary - w,
            end=boundary,
            arrivals=tally.arrivals_win,
            completions=tally.completions_win,
            cancelled=tally.cancelled_win,
            flow=tally.win_hist.summary(),
            utilization=utilization,
        )
        self._windows.append(stats)
        self._windows_closed += 1
        tally.arrivals_win = tally.completions_win = tally.cancelled_win = 0
        tally.win_hist = StreamingHistogram(**self._hist_layout)
        if self._recorder is not None:
            self._recorder.retire(before=boundary)

    def _c_trace(self) -> SimulationTrace:
        """A c session's closing trace, as the python session's recorder
        builds it: its meta, with the gauge samples every window fold
        retired, and the trailing sample at ``now`` of the nodes'
        settled state (queue depth and volume, through-count, busy time
        since the last boundary)."""
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
        retired = self._windows_closed * len(self._node_ids)
        if retired:
            meta["retired"] = {"points": 0, "spans": 0, "gauges": retired, "events": 0}
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
        return SimulationTrace(meta=meta, gauges=gauges)
