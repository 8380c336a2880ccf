"""Steady-state metrics for the open-system streaming mode.

Three pieces, all O(1) memory per recorded value:

* :class:`StreamingHistogram` — a fixed-bin log-spaced histogram for
  flow-time percentiles over unbounded streams.  Quantiles are
  *conservative*: the reported value is the upper edge of the bin the
  rank falls in (clamped to the exact observed min/max), so p95/p99
  never under-report; count/sum/min/max/mean are exact.
* :class:`WindowStats` — the roll-up of one closed window:
  arrival/completion rates, the window's flow-time percentiles and
  exact per-node utilization (from the engine's per-node busy time).
  A session keeps each retained window's histogram and busy totals and
  builds its ``WindowStats`` when it is first read.
* :class:`StreamSnapshot` — the cumulative live view behind
  ``StreamSession.snapshot()`` and the HTTP ``/snapshot`` endpoint,
  serialised under the ``snapshot/v1`` schema and checked by
  :func:`validate_snapshot` (the CI streaming-smoke contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "StreamingHistogram",
    "WindowStats",
    "StreamSnapshot",
    "SNAPSHOT_SCHEMA",
    "validate_snapshot",
]

#: Bump on any field change; readers reject other versions.
SNAPSHOT_SCHEMA = "snapshot/v1"

#: Quantiles every summary reports.
_QUANTILES = (0.5, 0.95, 0.99)


def _bad_value(value) -> ValueError:
    return ValueError(f"histogram values must be finite and >= 0, got {value}")


class StreamingHistogram:
    """Fixed-bin log-spaced histogram over non-negative values.

    ``bins`` bins cover ``[low, high]`` with logarithmically spaced
    edges, plus an underflow and an overflow bin, so memory is constant
    regardless of how many values stream through.  The defaults span
    1e-3..1e5 — six decades around typical simulated flow times; a
    value's bin is off by at most one edge ratio
    (``(high/low)**(1/bins)``, ~14% at the defaults), which bounds the
    quantile error.
    """

    __slots__ = ("low", "high", "bins", "_scale", "_log_low", "_counts",
                 "count", "total", "min", "max")

    def __init__(self, *, low: float = 1e-3, high: float = 1e5,
                 bins: int = 128) -> None:
        if not 0.0 < low < high:
            raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.low = low
        self.high = high
        self.bins = bins
        self._log_low = math.log(low)
        self._scale = bins / (math.log(high) - self._log_low)
        # [underflow] + bins + [overflow]
        self._counts = [0] * (bins + 2)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Record one value (must be finite and >= 0)."""
        if not (value >= 0.0) or not math.isfinite(value):
            raise _bad_value(value)
        if value < self.low:
            idx = 0
        elif value >= self.high:
            idx = self.bins + 1
        else:
            idx = 1 + int((math.log(value) - self._log_low) * self._scale)
            if idx > self.bins:  # pragma: no cover - float edge guard
                idx = self.bins
        self._counts[idx] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_many(self, values, also: "StreamingHistogram") -> None:
        """:meth:`add` each value of the sequence ``values`` here and to
        ``also``, a histogram of the same layout, binning each value once.

        Both end exactly as after one :meth:`add` per value on each
        (the totals stay left-to-right sums), and a bad value raises
        :meth:`add`'s error before either histogram changes.
        """
        low, high, top = self.low, self.high, self.bins + 1
        log_low, scale = self._log_low, self._scale
        log, inf = math.log, math.inf
        idxs = []
        put = idxs.append
        for value in values:
            if value < low:
                if not value >= 0.0:
                    raise _bad_value(value)
                put(0)
            elif value >= high:
                if value == inf:
                    raise _bad_value(value)
                put(top)
            elif value == value:
                idx = 1 + int((log(value) - log_low) * scale)
                put(idx if idx < top else top - 1)
            else:
                raise _bad_value(value)
        counts, also_counts = self._counts, also._counts
        total, lo, hi = self.total, self.min, self.max
        also_total, also_lo, also_hi = also.total, also.min, also.max
        for value, idx in zip(values, idxs):
            counts[idx] += 1
            also_counts[idx] += 1
            total += value
            also_total += value
            if value < lo:
                lo = value
            if value > hi:
                hi = value
            if value < also_lo:
                also_lo = value
            if value > also_hi:
                also_hi = value
        self.count += len(idxs)
        also.count += len(idxs)
        self.total, self.min, self.max = total, lo, hi
        also.total, also.min, also.max = also_total, also_lo, also_hi

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def _bin_upper(self, idx: int) -> float:
        """Upper edge of bin ``idx`` (0 = underflow, bins+1 = overflow)."""
        if idx == 0:
            return self.low
        if idx >= self.bins + 1:
            return self.max
        return math.exp(self._log_low + idx / self._scale)

    def quantile(self, q: float) -> float | None:
        """Conservative ``q``-quantile (upper bin edge, clamped to the
        observed ``[min, max]``); ``None`` while empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for idx, c in enumerate(self._counts):
            seen += c
            if seen >= rank:
                value = self._bin_upper(idx)
                return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def summary(self) -> dict:
        """The JSON-ready roll-up used by snapshots and window stats."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            **{f"p{int(q * 100)}": self.quantile(q) for q in _QUANTILES},
        }


@dataclass(frozen=True, slots=True)
class WindowStats:
    """Roll-up of one closed aggregation window ``(start, end]``.

    ``utilization`` is exact (from the engine's per-node busy time);
    ``flow`` is the window's completion flow-time summary in
    :meth:`StreamingHistogram.summary` shape.  ``cancelled`` counts jobs
    withdrawn by a dynamic :class:`~repro.workload.events.Cancel` event
    inside the window — they are *not* completions and contribute
    nothing to ``flow`` or ``completion_rate``.
    """

    index: int
    start: float
    end: float
    arrivals: int
    completions: int
    flow: dict
    utilization: dict[int, float] = field(default_factory=dict)
    cancelled: int = 0

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def arrival_rate(self) -> float:
        return self.arrivals / self.length if self.length > 0 else 0.0

    @property
    def completion_rate(self) -> float:
        return self.completions / self.length if self.length > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "arrivals": self.arrivals,
            "completions": self.completions,
            "cancelled": self.cancelled,
            "arrival_rate": self.arrival_rate,
            "completion_rate": self.completion_rate,
            "flow": dict(self.flow),
            "utilization": {str(v): u for v, u in self.utilization.items()},
        }


@dataclass(frozen=True, slots=True)
class StreamSnapshot:
    """The cumulative live view of an open-system run at time ``time``.

    Serialised as ``snapshot/v1`` by :meth:`to_dict`; the HTTP facade
    returns exactly this document from ``/snapshot``.
    """

    time: float
    window: float
    windows_closed: int
    jobs_in_flight: int
    arrivals_total: int
    completions_total: int
    flow: dict
    utilization: dict[int, float]
    cancelled_total: int = 0
    last_window: WindowStats | None = None

    @property
    def arrival_rate(self) -> float:
        return self.arrivals_total / self.time if self.time > 0 else 0.0

    @property
    def completion_rate(self) -> float:
        return self.completions_total / self.time if self.time > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "schema": SNAPSHOT_SCHEMA,
            "time": self.time,
            "window": self.window,
            "windows_closed": self.windows_closed,
            "jobs_in_flight": self.jobs_in_flight,
            "arrivals_total": self.arrivals_total,
            "completions_total": self.completions_total,
            "cancelled_total": self.cancelled_total,
            "arrival_rate": self.arrival_rate,
            "completion_rate": self.completion_rate,
            "flow": dict(self.flow),
            "utilization": {str(v): u for v, u in self.utilization.items()},
            "last_window": (
                self.last_window.to_dict() if self.last_window is not None else None
            ),
        }


_SNAPSHOT_REQUIRED = {
    "schema", "time", "window", "windows_closed", "jobs_in_flight",
    "arrivals_total", "completions_total", "cancelled_total",
    "arrival_rate", "completion_rate", "flow", "utilization",
    "last_window",
}
_FLOW_REQUIRED = {"count", "mean", "min", "max", "p50", "p95", "p99"}


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_flow(flow: object, where: str, errors: list[str]) -> None:
    if not isinstance(flow, dict):
        errors.append(f"{where} must be an object")
        return
    missing = _FLOW_REQUIRED - flow.keys()
    if missing:
        errors.append(f"{where} missing keys: {sorted(missing)}")
        return
    if not _is_int(flow["count"]) or flow["count"] < 0:
        errors.append(f"{where}.count must be an integer >= 0")
    for key in ("mean", "min", "max", "p50", "p95", "p99"):
        val = flow[key]
        if val is None:
            if flow.get("count"):
                errors.append(f"{where}.{key} is null but count > 0")
        elif not _is_num(val) or val < 0:
            errors.append(f"{where}.{key} must be a number >= 0 or null")


def validate_snapshot(obj: object) -> list[str]:
    """Validate a parsed ``snapshot/v1`` document.

    Returns human-readable problem strings (empty for a valid
    snapshot).  This is the contract the CI streaming-smoke job and the
    HTTP tests hold ``/snapshot`` to.
    """
    errors: list[str] = []
    if not isinstance(obj, dict):
        return ["snapshot is not a JSON object"]
    missing = _SNAPSHOT_REQUIRED - obj.keys()
    if missing:
        return [f"missing keys: {sorted(missing)}"]
    extra = obj.keys() - _SNAPSHOT_REQUIRED
    if extra:
        errors.append(f"unknown keys: {sorted(extra)}")
    if obj["schema"] != SNAPSHOT_SCHEMA:
        errors.append(f"schema {obj['schema']!r} != {SNAPSHOT_SCHEMA!r}")
    for key in ("time", "window", "arrival_rate", "completion_rate"):
        if not _is_num(obj[key]) or obj[key] < 0:
            errors.append(f"{key} must be a number >= 0")
    for key in ("windows_closed", "jobs_in_flight", "arrivals_total",
                "completions_total", "cancelled_total"):
        if not _is_int(obj[key]) or obj[key] < 0:
            errors.append(f"{key} must be an integer >= 0")
    _check_flow(obj["flow"], "flow", errors)
    util = obj["utilization"]
    if not isinstance(util, dict):
        errors.append("utilization must be an object")
    else:
        for node, u in util.items():
            if not _is_num(u) or u < 0:
                errors.append(f"utilization[{node!r}] must be a number >= 0")
    last = obj["last_window"]
    if last is not None:
        if not isinstance(last, dict):
            errors.append("last_window must be an object or null")
        else:
            for key in ("index", "arrivals", "completions", "cancelled"):
                if key not in last or not _is_int(last[key]) or last[key] < 0:
                    errors.append(f"last_window.{key} must be an integer >= 0")
            if "flow" in last:
                _check_flow(last["flow"], "last_window.flow", errors)
            else:
                errors.append("last_window.flow is missing")
    return errors
