"""Lightweight engine performance counters.

:class:`EngineCounters` tallies where event-processing time goes inside
:class:`~repro.sim.engine.Engine`: events by kind, stale-event skips,
settle/rearm calls, heap pushes, and wall-clock per phase.  Collection
is off by default and costs one ``is None`` test per increment site when
disabled, so the hot path is unaffected.

Two ways to enable collection:

* per run — ``Engine(..., collect_counters=True)`` (or the same keyword
  on :func:`~repro.sim.engine.simulate`); the run's counters appear on
  ``SimulationResult.counters``;
* per process — :func:`enable_global_counters`; every subsequent run
  also merges its counters into a process-wide aggregate readable via
  :func:`global_counters`.  The experiment runner uses this to meter
  whole experiments (which run many simulations internally) without
  threading a flag through every call site.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = [
    "EngineCounters",
    "enable_global_counters",
    "disable_global_counters",
    "global_counters_enabled",
    "global_counters",
    "reset_global_counters",
]


@dataclass(slots=True)
class EngineCounters:
    """Tallies for one simulation run (or a merged aggregate of runs).

    Attributes
    ----------
    runs:
        Number of engine runs merged into this struct (1 for a single
        ``SimulationResult``).
    events_processed:
        Events handled by the main loop (arrivals + completions +
        dynamic events).
    arrivals / completions / dyn_events:
        The split of ``events_processed`` by kind (``dyn_events`` counts
        node breakdowns/repairs and cancellations from an
        :class:`~repro.workload.events.EventSchedule`).
    stale_events_skipped:
        Version-invalidated completion predictions popped and discarded.
    settle_calls / rearm_calls:
        Node bookkeeping operations (queue changes).
    heap_pushes:
        Pushes onto per-node priority heaps.
    drained_finished:
        Finished jobs advanced by the zero-remaining drain (ties at
        identical priority).
    aggregate_reads:
        O(1) congestion-aggregate queries answered by the view
        (``jobs_through_count`` / ``volume_through`` /
        ``queue_volume_at``).
    aggregate_updates:
        Per-node incremental adjustments to the congestion aggregates at
        the three mutation points (release, hop advance, settle).
    lp_memo_hits / lp_memo_misses:
        Lookups answered by / solved through the memoized lower-bound
        service of :mod:`repro.analysis.ratios` (counted only while
        global collection is on; the LP solver runs outside the engine,
        so per-run counters never see these).
    trace_records:
        Trace records (points + spans + gauge samples) collected when a
        :class:`~repro.obs.trace.TraceRecorder` was the engine's sink; 0
        when tracing was off.
    arrival_seconds / completion_seconds:
        Wall-clock spent inside the two event handlers.
    run_seconds:
        Wall-clock of the whole ``Engine.run`` call(s).
    """

    runs: int = 0
    events_processed: int = 0
    arrivals: int = 0
    completions: int = 0
    dyn_events: int = 0
    stale_events_skipped: int = 0
    settle_calls: int = 0
    rearm_calls: int = 0
    heap_pushes: int = 0
    drained_finished: int = 0
    aggregate_reads: int = 0
    aggregate_updates: int = 0
    lp_memo_hits: int = 0
    lp_memo_misses: int = 0
    trace_records: int = 0
    arrival_seconds: float = 0.0
    completion_seconds: float = 0.0
    run_seconds: float = 0.0

    def merge(self, other: "EngineCounters") -> "EngineCounters":
        """Add ``other``'s tallies into this struct (and return self)."""
        for f in fields(EngineCounters):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (picklable, JSON-friendly)."""
        return {f.name: getattr(self, f.name) for f in fields(EngineCounters)}

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "EngineCounters":
        """Inverse of :meth:`as_dict`; unknown keys are ignored."""
        known = {f.name for f in fields(EngineCounters)}
        out = cls()
        for k, v in data.items():
            if k in known:
                setattr(out, k, v)
        return out

    @property
    def events_per_second(self) -> float:
        """Throughput over the measured run wall-clock (0 if unmeasured)."""
        if self.run_seconds <= 0.0:
            return 0.0
        return self.events_processed / self.run_seconds


# -- process-wide aggregation ------------------------------------------
_global: EngineCounters | None = None


def enable_global_counters() -> EngineCounters:
    """Turn on process-wide collection; returns the (fresh) aggregate."""
    global _global
    _global = EngineCounters()
    return _global


def disable_global_counters() -> None:
    """Turn process-wide collection off (per-run flags still work)."""
    global _global
    _global = None


def global_counters_enabled() -> bool:
    return _global is not None


def global_counters() -> EngineCounters | None:
    """The process-wide aggregate, or ``None`` when disabled."""
    return _global


def reset_global_counters() -> None:
    """Zero the aggregate without disabling collection."""
    if _global is not None:
        enable_global_counters()
