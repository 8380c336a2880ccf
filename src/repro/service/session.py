"""The open-system streaming session.

:class:`StreamSession` drives the engine's re-enterable stream loop
(:meth:`~repro.sim.engine.Engine.stream_step`) over a lazy — possibly
infinite — arrival source, folding metrics window by window:

* jobs are admitted one lookahead at a time, never materialised as an
  :class:`~repro.workload.instance.Instance` job set;
* finished jobs are **evicted** from the engine the moment they complete
  (``evict_finished=True``); their flow times land in fixed-bin
  streaming histograms (:mod:`repro.service.metrics`) — cumulative and
  per-window — so memory is bounded by the number of jobs *in flight*,
  not the number streamed;
* per-node utilization reuses the exact windowed gauges of
  :class:`~repro.obs.trace.TraceRecorder` (cadence = the window length),
  and the recorder's points/spans/gauges are *retired* as each window
  closes (:meth:`~repro.obs.trace.TraceRecorder.retire`), keeping the
  trace bounded too.

The batch path is the closed special case: :func:`repro.api.simulate`
is one uninterrupted step over a finite source with eviction off.
Construct sessions through :func:`repro.api.open_system`, which resolves
policy/backend names exactly like ``simulate()``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.exceptions import SimulationError
from repro.obs.trace import TraceConfig, TracePoint, TraceRecorder
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


class _SessionRecorder(TraceRecorder):
    """The session's one engine sink: its windowed trace recorder, which
    also tallies arrivals, completions and cancellations (cumulative and
    per window), folds flow times into the histograms and hands records
    to the session's callbacks.  ``on_arrival``/``on_finish`` inline the
    base class's point recording, so each event costs one call."""

    def __init__(self, config, cum_hist, win_hist, on_finish, on_cancel) -> None:
        super().__init__(config)
        self.cum_hist = cum_hist
        self.win_hist = win_hist
        self.user_on_finish = on_finish
        self.user_on_cancel = on_cancel
        self.arrivals_total = self.completions_total = self.cancelled_total = 0
        self.arrivals_win = self.completions_win = self.cancelled_win = 0

    def on_arrival(self, time: float, job_id: int, leaf: int) -> None:
        self.arrivals_total += 1
        self.arrivals_win += 1
        if self._record_points:
            self._points.append(TracePoint("arrival", time, job_id, leaf))

    def on_finish(self, time: float, record: "JobRecord") -> None:
        self.completions_total += 1
        self.completions_win += 1
        flow = record.flow_time
        self.cum_hist.add(flow)
        self.win_hist.add(flow)
        if self._record_points:
            self._points.append(TracePoint("finish", time, record.job_id, record.leaf))
        if self.user_on_finish is not None:
            self.user_on_finish(record)

    def on_cancel(self, time: float, record: "JobRecord", node: int) -> None:
        # A cancellation is not a completion: the censored flow time
        # must not pollute the histograms or the completion counters.
        self.cancelled_total += 1
        self.cancelled_win += 1
        super().on_cancel(time, record, node)
        if self.user_on_cancel is not None:
            self.user_on_cancel(record)


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
        only place completed records are observable.
    on_cancel:
        Same, for records withdrawn by a dynamic cancel event (their
        ``cancelled_at`` is set; they never reach ``on_finish``).
    evict:
        Evict finished jobs from the engine (default).  ``False`` keeps
        every record for :meth:`close` — batch-equivalent output, at
        batch memory cost; only sensible for finite streams.
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
    ) -> None:
        if not window > 0.0:
            raise SimulationError(f"window must be positive, got {window}")
        if keep_windows < 1:
            raise SimulationError(f"keep_windows must be >= 1, got {keep_windows}")
        self.window = float(window)
        proto = histogram if histogram is not None else StreamingHistogram()
        self._hist_layout = {"low": proto.low, "high": proto.high,
                             "bins": proto.bins}
        self._recorder = _SessionRecorder(
            TraceConfig(
                gauge_interval=self.window,
                record_points=record_points,
                record_spans=record_spans,
            ),
            cum_hist=proto if proto.count == 0 else StreamingHistogram(
                **self._hist_layout
            ),
            win_hist=StreamingHistogram(**self._hist_layout),
            on_finish=on_finish,
            on_cancel=on_cancel,
        )
        self._engine = Engine(
            instance,
            policy,
            speeds,
            priority=priority,
            check_invariants=check_invariants,
            max_events=None,
            sink=self._recorder,
            events=events,
            evict_finished=evict,
        )
        self._windows_closed = 0
        self._windows: deque[WindowStats] = deque(maxlen=keep_windows)
        self._result: "SimulationResult | None" = None
        self._engine.stream_start(arrivals)

    # -- lifecycle ------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._engine.now

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
            engine.stream_step(until=boundary)
            self._fold_window(boundary)
            boundary = (self._windows_closed + 1) * w
        if until > engine.now:
            engine.stream_step(until=until)
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
        recorder = self._recorder
        if now > 0.0:
            utilization = {
                v: recorder.cumulative_busy(v, now) / now
                for v in engine._nodes
            }
        else:
            utilization = {v: 0.0 for v in engine._nodes}
        return StreamSnapshot(
            time=now,
            window=self.window,
            windows_closed=self._windows_closed,
            jobs_in_flight=engine.alive_count,
            arrivals_total=recorder.arrivals_total,
            completions_total=recorder.completions_total,
            cancelled_total=recorder.cancelled_total,
            flow=recorder.cum_hist.summary(),
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
            self._result = self._engine.stream_result(verify=False)
        return self._result

    # -- internals ------------------------------------------------------
    def _fold_window(self, boundary: float) -> None:
        """Close the window ending at ``boundary``: roll up its stats,
        then retire everything the recorder holds for it."""
        w = self.window
        recorder = self._recorder
        busy: dict[int, float] = dict.fromkeys(self._engine._nodes, 0.0)
        for g in recorder._gauges:
            # Post-retirement the recorder only holds gauges newer than
            # the previous boundary, so `<= boundary` selects exactly
            # this window's samples.
            if g.time <= boundary:
                busy[g.node] += g.busy_s
        stats = WindowStats(
            index=self._windows_closed,
            start=boundary - w,
            end=boundary,
            arrivals=recorder.arrivals_win,
            completions=recorder.completions_win,
            cancelled=recorder.cancelled_win,
            flow=recorder.win_hist.summary(),
            utilization={v: b / w for v, b in busy.items()},
        )
        self._windows.append(stats)
        self._windows_closed += 1
        recorder.arrivals_win = recorder.completions_win = recorder.cancelled_win = 0
        recorder.win_hist = StreamingHistogram(**self._hist_layout)
        recorder.retire(before=boundary)
