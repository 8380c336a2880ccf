"""Dynamic event schedules: node breakdowns, repairs, and cancellations.

The engine's workload space is otherwise static: a fixed tree, a fixed
job set, sizes known at release.  An :class:`EventSchedule` injects
mid-run changes — the scenario pack ROADMAP names after RK0731's event
narrator and Dinitz–Moseley's reconfigurable networks:

* :class:`NodeDown` / :class:`NodeUp` — a non-root node stops serving at
  ``time``; queued jobs stall there (store-and-forward still holds: they
  neither advance nor migrate) until the matching ``NodeUp``.
* :class:`Cancel` — a job is withdrawn at ``time``: removed from
  whichever queue holds it, truncated if in service, and recorded with a
  *cancelled* terminal state instead of a completion.

Event semantics are defined once (``docs/dynamic-events.md``) and
implemented four times — python engine, C kernel, and both fuzz
oracles — so schedules validate aggressively here: a malformed schedule
must fail loudly at construction, never diverge silently mid-run.

Ordering contract (shared by every implementation): events are stored
sorted by ``(time, kind_rank, node-or-job id)`` with ``down < up <
cancel`` at equal instants, and at equal times the engine processes
*completions first, then dynamic events, then arrivals* — a job that
finishes exactly when its node fails has finished, and a cancel firing
exactly at its job's release is a no-op (the job was not yet admitted,
so it runs to completion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.exceptions import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.instance import Instance

__all__ = ["NodeDown", "NodeUp", "Cancel", "EventSchedule", "DynEvent"]


def _check_time(kind: str, time: float) -> None:
    if not math.isfinite(time) or time < 0:
        raise WorkloadError(
            f"{kind} time must be finite and >= 0, got {time}"
        )


@dataclass(frozen=True, slots=True)
class NodeDown:
    """Node ``node`` stops serving at ``time``."""

    time: float
    node: int

    def __post_init__(self) -> None:
        _check_time("NodeDown", self.time)
        if self.node < 0:
            raise WorkloadError(f"NodeDown node must be >= 0, got {self.node}")


@dataclass(frozen=True, slots=True)
class NodeUp:
    """Node ``node`` resumes serving at ``time``."""

    time: float
    node: int

    def __post_init__(self) -> None:
        _check_time("NodeUp", self.time)
        if self.node < 0:
            raise WorkloadError(f"NodeUp node must be >= 0, got {self.node}")


@dataclass(frozen=True, slots=True)
class Cancel:
    """Job ``job_id`` is withdrawn at ``time``.

    A cancel is effective only while the job is alive: cancels at or
    before the job's release, after its completion, or naming a job the
    run never admits are recorded no-ops (the schedule stays valid — an
    open-system stream cannot know its job ids up front).
    """

    time: float
    job_id: int

    def __post_init__(self) -> None:
        _check_time("Cancel", self.time)
        if self.job_id < 0:
            raise WorkloadError(f"Cancel job_id must be >= 0, got {self.job_id}")


DynEvent = NodeDown | NodeUp | Cancel

#: Tie-break rank at equal event times (down before up before cancel).
_KIND_RANK = {NodeDown: 0, NodeUp: 1, Cancel: 2}

_KIND_NAME = {NodeDown: "node_down", NodeUp: "node_up", Cancel: "cancel"}
_NAME_KIND = {name: cls for cls, name in _KIND_NAME.items()}


def _sort_key(ev: DynEvent) -> tuple[float, int, int]:
    rank = _KIND_RANK[type(ev)]
    ident = ev.job_id if isinstance(ev, Cancel) else ev.node
    return (ev.time, rank, ident)


class EventSchedule:
    """An immutable, validated, time-ordered dynamic-event schedule.

    Validation enforced at construction:

    * every node's down/up events strictly alternate, starting with a
      ``NodeDown``, at strictly increasing times;
    * every ``NodeDown`` has a matching ``NodeUp`` (no node stays down
      forever — a permanently failed node would stall its queued jobs
      past any horizon and batch runs must terminate);
    * at most one ``Cancel`` per job id.

    Node and job *existence* is checked separately by
    :meth:`validate_for`, so a schedule can be built before the instance
    it will run against (open-system streams).
    """

    __slots__ = ("_events", "_cancel_times", "_down_intervals")

    def __init__(self, events: "Iterator[DynEvent] | list[DynEvent] | tuple[DynEvent, ...]" = ()) -> None:
        ordered = sorted(events, key=_sort_key)
        for ev in ordered:
            if not isinstance(ev, (NodeDown, NodeUp, Cancel)):
                raise WorkloadError(
                    f"unknown event type {type(ev).__name__}; expected "
                    "NodeDown, NodeUp or Cancel"
                )
        cancel_times: dict[int, float] = {}
        open_down: dict[int, float] = {}
        last_touch: dict[int, float] = {}
        intervals: dict[int, list[tuple[float, float]]] = {}
        for ev in ordered:
            if isinstance(ev, Cancel):
                if ev.job_id in cancel_times:
                    raise WorkloadError(
                        f"job {ev.job_id} cancelled more than once"
                    )
                cancel_times[ev.job_id] = ev.time
                continue
            prev = last_touch.get(ev.node)
            if prev is not None and not ev.time > prev:
                raise WorkloadError(
                    f"node {ev.node}: down/up events must be strictly "
                    f"increasing in time (got {ev.time} after {prev})"
                )
            last_touch[ev.node] = ev.time
            if isinstance(ev, NodeDown):
                if ev.node in open_down:
                    raise WorkloadError(
                        f"node {ev.node}: NodeDown at {ev.time} while "
                        f"already down since {open_down[ev.node]}"
                    )
                open_down[ev.node] = ev.time
            else:
                start = open_down.pop(ev.node, None)
                if start is None:
                    raise WorkloadError(
                        f"node {ev.node}: NodeUp at {ev.time} without a "
                        "preceding NodeDown"
                    )
                intervals.setdefault(ev.node, []).append((start, ev.time))
        if open_down:
            node, start = next(iter(open_down.items()))
            raise WorkloadError(
                f"node {node}: NodeDown at {start} has no matching NodeUp "
                "(every outage must end — a forever-down node never drains)"
            )
        self._events: tuple[DynEvent, ...] = tuple(ordered)
        self._cancel_times = cancel_times
        self._down_intervals = {v: tuple(iv) for v, iv in intervals.items()}

    # -- container protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[DynEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> DynEvent:
        return self._events[index]

    def __bool__(self) -> bool:
        return bool(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSchedule):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        downs = sum(1 for e in self._events if isinstance(e, NodeDown))
        return (
            f"EventSchedule(n={len(self._events)}, outages={downs}, "
            f"cancels={len(self._cancel_times)})"
        )

    # -- queries ---------------------------------------------------------
    @property
    def events(self) -> tuple[DynEvent, ...]:
        """All events in canonical ``(time, kind, id)`` order."""
        return self._events

    def cancel_times(self) -> dict[int, float]:
        """``job id -> cancel time`` (a copy)."""
        return dict(self._cancel_times)

    def down_intervals(self) -> dict[int, tuple[tuple[float, float], ...]]:
        """``node -> ((down, up), ...)`` outage intervals, time-ordered."""
        return dict(self._down_intervals)

    def validate_for(self, instance: "Instance") -> None:
        """Check the schedule against an instance: down/up nodes must be
        existing non-root nodes.  Cancel job ids are *not* required to
        exist (unknown-job cancels are defined no-ops)."""
        tree = instance.tree
        nodes = set(tree.node_ids)
        for ev in self._events:
            if isinstance(ev, Cancel):
                continue
            if ev.node not in nodes:
                raise WorkloadError(
                    f"{_KIND_NAME[type(ev)]} at {ev.time}: node {ev.node} "
                    "is not in the tree"
                )
            if ev.node == tree.root:
                raise WorkloadError(
                    f"{_KIND_NAME[type(ev)]} at {ev.time}: the root holds "
                    "no queue and cannot go down"
                )

    # -- serialisation ---------------------------------------------------
    def to_doc(self) -> list[dict]:
        """JSON-ready list form (used by the fuzz corpus)."""
        out: list[dict] = []
        for ev in self._events:
            doc: dict = {"kind": _KIND_NAME[type(ev)], "time": ev.time}
            if isinstance(ev, Cancel):
                doc["job"] = ev.job_id
            else:
                doc["node"] = ev.node
            out.append(doc)
        return out

    @staticmethod
    def from_doc(doc: "list[dict] | None") -> "EventSchedule":
        events: list[DynEvent] = []
        for item in doc or ():
            kind = _NAME_KIND.get(item.get("kind"))
            if kind is None:
                raise WorkloadError(
                    f"unknown event kind {item.get('kind')!r} in document"
                )
            if kind is Cancel:
                events.append(Cancel(float(item["time"]), int(item["job"])))
            else:
                events.append(kind(float(item["time"]), int(item["node"])))
        return EventSchedule(events)
