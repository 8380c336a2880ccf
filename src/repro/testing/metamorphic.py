"""Metamorphic relations: model-level symmetries the engine must obey.

Each relation transforms an instance in a way whose effect on the
schedule is *provable from the Section-2 model alone*, re-runs the
engine on the transformed instance, and compares against the prediction.
Unlike the oracles, these need no second implementation — the engine is
checked against itself under symmetry — so they catch bugs the oracles
share (a misreading of the model reproduced faithfully twice).

All relations freeze the base run's assignment (via
:class:`~repro.core.assignment.FixedAssignment`) so they test the
*scheduling* model, not policy decisions, which are under no obligation
to be symmetric.

Soundness notes (the restrictions are load-bearing):

* ``relabel`` and ``scale`` predict bitwise equality: doubling ids
  preserves every tie-break order, and doubling sizes *and* speeds
  cancels exactly in binary floating point (``2p / 2s == p / s``).
* ``time_shift`` predicts an exact shift of the schedule, checked to
  ``1e-9`` because the shift rides through sums that may re-round.
* ``speed_monotonicity`` is restricted to **FIFO** priority.  Under SJF
  the relation is *false* in general: speeding a node up can let a
  small job reach a downstream node earlier, preempt a big job there,
  and delay it past its original completion.  FIFO never reorders, so
  completions are a monotone ``max``/``+``/``/`` recursion in speed.
* ``drop_lowest`` is restricted to **SJF on identical endpoints** and
  removes the job with the globally largest ``(size, release, id)``
  key.  That job ranks last at *every* node, and under preemptive
  priority a lower-ranked job is invisible to higher-ranked ones, so
  every other completion must be bitwise unchanged.  Dropping any
  *other* job is not predictable this way (removal anomalies are real).

Dynamic events ride through the symmetries: ``relabel`` renames cancel
targets, ``time_shift`` translates event times with the releases, and
``scale`` passes the schedule through untouched (doubling sizes *and*
speeds leaves the timeline bitwise identical, so absolute event times
still land on the same instants).  ``speed_monotonicity`` additionally
skips any case with cancels — under a cancel the relation is false even
for FIFO: speeding the network up can complete a job *before* its
cancel fires, resurrecting work that then delays its queue-mates.
Outage-only schedules are safe (an outage frees no capacity and the
completion recursion stays monotone).  Two relations exist only for
events:

* ``empty_events`` — an explicitly empty schedule must reproduce the
  event-free run bitwise (the ``events=None`` and ``EventSchedule()``
  code paths may not diverge);
* ``idle_outage`` — a breakdown/repair pair appended strictly after the
  last activity must change nothing: completions, cancellations,
  ``fractional_flow`` and ``alive_integral`` bitwise (the integrals are
  per-job terms, and no job is alive during the outage).
"""

from __future__ import annotations

from repro.core.assignment import FixedAssignment
from repro.sim.engine import simulate
from repro.sim.speed import SpeedProfile
from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp
from repro.workload.instance import Instance
from repro.workload.job import Job, JobSet

__all__ = ["RELATIONS", "run_relations"]

_SHIFT = 4.0
_SHIFT_TOL = 1e-9
_MONO_TOL = 1e-9


def _with_jobs(instance: Instance, jobs: list[Job]) -> Instance:
    return Instance(instance.tree, JobSet(jobs), instance.setting, instance.name)


def _rerun(case, instance, assignment, *, speeds="inherit", events="inherit"):
    if speeds == "inherit":
        speeds = case.speeds()
    if events == "inherit":
        events = case.events
    return simulate(
        instance,
        FixedAssignment(assignment),
        speeds=speeds,
        priority=case.priority_fn(),
        events=events,
    )


def _compare(base, other, *, id_map=None, shift=0.0, tol=0.0, name=""):
    problems: list[str] = []
    for jid, rec in base.records.items():
        ojid = jid if id_map is None else id_map[jid]
        orec = other.records.get(ojid)
        if orec is None:
            problems.append(f"{name}: job {jid} missing from transformed run")
            continue
        if rec.cancelled:
            if not orec.cancelled:
                problems.append(
                    f"{name}: job {jid} cancelled in base but completed "
                    f"in transformed run"
                )
            elif abs(orec.cancelled_at - (rec.cancelled_at + shift)) > tol:
                problems.append(
                    f"{name}: job {jid} expected cancellation at "
                    f"{rec.cancelled_at + shift}, got {orec.cancelled_at}"
                )
            continue
        if not orec.finished:
            problems.append(f"{name}: job {jid} missing from transformed run")
            continue
        want = rec.completion + shift
        if abs(orec.completion - want) > tol:
            problems.append(
                f"{name}: job {jid} expected completion {want}, got "
                f"{orec.completion} (diff {orec.completion - want:.3e})"
            )
    return problems


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------
def relabel(case, base) -> list[str]:
    """Doubling every job id (order-preserving) changes nothing."""
    inst = case.instance
    jobs = [
        Job(j.id * 2, j.release, j.size, j.leaf_sizes, j.origin, j.size_estimate)
        for j in inst.jobs
    ]
    assignment = {jid * 2: leaf for jid, leaf in base.assignment().items()}
    events = case.events
    if events is not None and events:
        events = EventSchedule(
            Cancel(ev.time, ev.job_id * 2) if isinstance(ev, Cancel) else ev
            for ev in events
        )
    other = _rerun(case, _with_jobs(inst, jobs), assignment, events=events)
    return _compare(
        base, other, id_map={j: 2 * j for j in base.records}, name="relabel"
    )


def time_shift(case, base) -> list[str]:
    """Shifting every release by a constant shifts the schedule by it.

    Event times translate with the releases — the whole timeline moves
    as one rigid body, breakdown windows and cancel instants included.
    """
    inst = case.instance
    jobs = [
        Job(j.id, j.release + _SHIFT, j.size, j.leaf_sizes, j.origin, j.size_estimate)
        for j in inst.jobs
    ]
    events = case.events
    if events is not None and events:
        events = EventSchedule(
            type(ev)(ev.time + _SHIFT, ev.job_id if isinstance(ev, Cancel) else ev.node)
            for ev in events
        )
    other = _rerun(case, _with_jobs(inst, jobs), base.assignment(), events=events)
    return _compare(base, other, shift=_SHIFT, tol=_SHIFT_TOL, name="time_shift")


def scale(case, base) -> list[str]:
    """Doubling all sizes and all speeds cancels bitwise."""
    inst = case.instance
    jobs = []
    for j in inst.jobs:
        leaf_sizes = None
        if j.leaf_sizes is not None:
            leaf_sizes = {v: p * 2.0 for v, p in j.leaf_sizes.items()}
        estimate = None if j.size_estimate is None else j.size_estimate * 2.0
        jobs.append(
            Job(j.id, j.release, j.size * 2.0, leaf_sizes, j.origin, estimate)
        )
    profile = case.speeds() or SpeedProfile.uniform(1.0)
    # events inherit unchanged: the timeline is bitwise identical, so
    # absolute breakdown/cancel instants keep hitting the same states.
    other = _rerun(
        case, _with_jobs(inst, jobs), base.assignment(), speeds=profile.scaled(2.0)
    )
    return _compare(base, other, name="scale")


def speed_monotonicity(case, base) -> list[str]:
    """FIFO only, no cancels: doubling every speed never delays any
    completion.

    A single cancel breaks the relation even under FIFO — on the fast
    network a job can finish *before* its cancel fires, and the work it
    then occupies the node with delays jobs the slow network ran
    immediately.  Outages are harmless: they are absolute unavailability
    windows and the completion recursion stays monotone through them.
    """
    if case.config.priority != "fifo":
        return []
    if case.events is not None and case.events.cancel_times():
        return []
    profile = case.speeds() or SpeedProfile.uniform(1.0)
    other = _rerun(case, case.instance, base.assignment(), speeds=profile.scaled(2.0))
    problems = []
    for jid, rec in base.records.items():
        orec = other.records.get(jid)
        if orec is None or not orec.finished:
            problems.append(f"speed_monotonicity: job {jid} missing")
            continue
        if orec.completion > rec.completion + _MONO_TOL:
            problems.append(
                f"speed_monotonicity: job {jid} slower on faster network "
                f"({rec.completion} -> {orec.completion})"
            )
    return problems


def drop_lowest(case, base) -> list[str]:
    """SJF/identical only: removing the globally lowest-priority job
    leaves every other completion bitwise unchanged."""
    inst = case.instance
    if case.config.priority != "sjf" or inst.setting.value != "identical":
        return []
    if len(inst.jobs) < 2:
        return []
    victim = max(inst.jobs, key=lambda j: (j.size, j.release, j.id))
    jobs = [j for j in inst.jobs if j.id != victim.id]
    assignment = {
        jid: leaf for jid, leaf in base.assignment().items() if jid != victim.id
    }
    # The event schedule passes through as-is: a cancel naming the
    # removed victim becomes a defined no-op, and the victim is invisible
    # to every surviving job whether it completed or was cancelled.
    other = _rerun(case, _with_jobs(inst, jobs), assignment)
    problems = []
    for jid, rec in base.records.items():
        if jid == victim.id:
            continue
        orec = other.records.get(jid)
        if orec is None:
            problems.append(f"drop_lowest: job {jid} missing")
            continue
        if rec.cancelled:
            if not orec.cancelled or orec.cancelled_at != rec.cancelled_at:
                problems.append(
                    f"drop_lowest: job {jid} cancellation moved after "
                    f"removing unrelated job {victim.id}"
                )
            continue
        if not orec.finished:
            problems.append(f"drop_lowest: job {jid} missing")
            continue
        if orec.completion != rec.completion:
            problems.append(
                f"drop_lowest: job {jid} moved {rec.completion} -> "
                f"{orec.completion} after removing unrelated job {victim.id}"
            )
    return problems


def empty_events(case, base) -> list[str]:
    """An explicitly empty schedule reproduces the event-free run
    bitwise.

    Only meaningful on event-free cases: the ``events=None`` fast path
    and the ``EventSchedule()`` path share the engine loop but take
    different branches at construction, and this pins them together —
    the acceptance criterion that event-free runs stay bit-exact against
    the pre-events engine rides on exactly this equivalence.
    """
    if case.events is not None and case.events:
        return []
    other = _rerun(
        case, case.instance, base.assignment(), events=EventSchedule()
    )
    return _compare(base, other, name="empty_events") + _integrals_moved(
        base, other, "empty_events"
    )


def _integrals_moved(base, other, name: str) -> list[str]:
    """Both integrals, compared bitwise."""
    return [
        f"{name}: {label} moved {ours!r} -> {theirs!r}"
        for label, ours, theirs in (
            ("fractional_flow", base.fractional_flow, other.fractional_flow),
            ("alive_integral", base.alive_integral, other.alive_integral),
        )
        if ours != theirs
    ]


def idle_outage(case, base) -> list[str]:
    """A breakdown/repair pair strictly after the last activity is a
    no-op.

    The outage lands ``16`` time units past both the base run's last
    terminal instant and the last scheduled event, on the smallest
    non-root node; nothing is queued anywhere, so completions,
    cancellations and both integrals must be bitwise unchanged.
    """
    tree = case.instance.tree
    nodes = [v for v in tree.node_ids if v != tree.root]
    if not nodes:
        return []
    last = 0.0
    for rec in base.records.values():
        last = max(last, rec.cancelled_at if rec.cancelled else rec.completion)
    if case.events is not None:
        for ev in case.events:
            last = max(last, ev.time)
    t0 = last + 16.0
    node = min(nodes)
    extra = list(case.events) if case.events is not None else []
    extra += [NodeDown(t0, node), NodeUp(t0 + 1.0, node)]
    other = _rerun(
        case, case.instance, base.assignment(), events=EventSchedule(extra)
    )
    return _compare(base, other, name="idle_outage") + _integrals_moved(
        base, other, "idle_outage"
    )


#: name -> relation; each takes ``(case, base_result)`` and returns
#: failure descriptions (empty = relation holds).
RELATIONS = {
    "relabel": relabel,
    "time_shift": time_shift,
    "scale": scale,
    "speed_monotonicity": speed_monotonicity,
    "drop_lowest": drop_lowest,
    "empty_events": empty_events,
    "idle_outage": idle_outage,
}


def run_relations(case, base, names=None) -> dict[str, list[str]]:
    """Run the (selected) relations; returns ``name -> problems`` for
    relations that failed."""
    out: dict[str, list[str]] = {}
    for name, fn in RELATIONS.items():
        if names is not None and name not in names:
            continue
        problems = fn(case, base)
        if problems:
            out[name] = problems
    return out
