"""The per-case check battery.

:func:`run_checks` runs one case through every layer of the oracle
hierarchy (``docs/testing.md``) and returns the failures:

1. **engine** — the run itself must succeed, with per-event internal
   invariant assertions enabled.
2. **exact_oracle** — completions must match the event-free recursive
   replay (:mod:`repro.testing.exact`) to ``1e-9`` relative.
3. **dt_reference** — on small, well-separated cases, completions must
   match the fixed-step simulator (:mod:`repro.testing.reference`)
   within its ``O(dt)`` error band.  Gated because near-tie cases
   legitimately diverge: a single tick decides which of two almost-equal
   jobs runs first, which is a rounding artefact, not an engine bug.
4. **validate_schedule** — the recorded segments must satisfy the
   post-hoc model invariants (:mod:`repro.sim.invariants`).
5. **trace_consistency** — the structured trace must agree with the
   records and segments (:func:`repro.obs.trace.crosscheck_trace`), and
   tracing must not perturb completions (traced vs untraced runs are
   compared bitwise).
6. **counters** — engine performance counters must be arithmetically
   consistent with the run (completion events at least one per job,
   zero heap leftovers).
7. **metamorphic** — the symmetry relations of
   :mod:`repro.testing.metamorphic`.
8. **stream** (opt-in: ``repro fuzz --stream``) — the case streamed
   through an open-system session, sliced at random, must reproduce an
   unsliced run bit for bit and its flow summaries must rebuild from its
   ``on_finish`` records; a share of the cases also streams a source
   that raises mid-stream, which must fail the session cleanly.  With
   ``--backends`` the same sessions on the kernel must equal the python
   ones (``stream_backends``; see :mod:`repro.testing.stream`).
9. **backends** (opt-in: ``repro fuzz --backends``) — the compiled
   kernel (:mod:`repro.sim.backends.c_backend`) must replay the case
   with the identical assignment and cancellations, per-hop times,
   records and total flow time, all exactly ``==`` to the reference
   engine's — a third independent implementation in the differential
   battery.  Cases the kernel's planner declines, and hosts without a
   C compiler, skip it; a ``plans`` tally passed to :func:`run_checks`
   counts which.

Every failure carries the check name, so the shrinker can preserve *the
same* failure while minimising (``repro.testing.shrink``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.exceptions import TreeSchedError
from repro.obs.trace import TraceRecorder, crosscheck_trace
from repro.sim.engine import simulate
from repro.sim.invariants import validate_schedule
from repro.testing.exact import exact_replay
from repro.testing.generate import FuzzCase
from repro.testing.metamorphic import run_relations
from repro.testing.reference import reference_simulate
from repro.testing.stream import STREAM_CHECK, check_stream

__all__ = [
    "ALL_CHECKS",
    "BACKEND_CHECK",
    "PLAN_OUTCOMES",
    "STREAM_CHECK",
    "CheckFailure",
    "run_checks",
]

#: Relative tolerance for exact-oracle agreement: both sides use the
#: same arithmetic forms, so observed disagreement is ~1 ulp; anything
#: beyond 1e-9 is a real divergence.
_EXACT_RTOL = 1e-9

#: dt-reference gate: only cases small and well-separated enough that
#: the fixed-step simulator's tick rounding cannot flip a decision.
_DT_MAX_JOBS = 8
_DT_SIZE_FAMILIES = ("uniform", "pareto")
_DT_ARRIVAL_FAMILIES = ("poisson", "bursts")

ALL_CHECKS = (
    "engine",
    "exact_oracle",
    "dt_reference",
    "validate_schedule",
    "trace_consistency",
    "counters",
    "metamorphic",
)

#: Opt-in cross-backend differential check (``repro fuzz --backends``):
#: not in :data:`ALL_CHECKS` because it roughly doubles per-case cost.
BACKEND_CHECK = "backends"

#: Where the backend check ran a case: on the kernel, declined by its
#: planner (the python engine would run it), or skipped for want of a
#: compiler.
PLAN_OUTCOMES = ("planned", "declined", "unavailable")


@dataclass(frozen=True)
class CheckFailure:
    """One failed check on one case."""

    check: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.check}] {self.message}"


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def run_checks(
    case: FuzzCase, *, dt: float = 0.01, checks=None, plans: Counter | None = None,
    raising: Counter | None = None,
) -> list[CheckFailure]:
    """Run the battery on one case; returns the failures (empty = pass).

    ``checks`` restricts the battery to a subset of :data:`ALL_CHECKS`
    (the ``engine`` run always happens — everything depends on it), and
    may add the opt-in :data:`BACKEND_CHECK` and :data:`STREAM_CHECK`.
    When the backend check runs, ``plans`` (if given) gains one count
    under ``(outcome, "setting/policy")`` — and, with the stream check,
    one under ``(outcome, "stream/setting/policy")`` — ``outcome`` one of
    :data:`PLAN_OUTCOMES`.  With the stream check, ``raising`` (if given)
    counts its raising-source runs per engine (``"python"``, ``"c"``).
    """
    selected = set(ALL_CHECKS if checks is None else checks)
    unknown = selected - set(ALL_CHECKS) - {BACKEND_CHECK, STREAM_CHECK}
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    failures: list[CheckFailure] = []

    events = case.events
    recorder = TraceRecorder(gauge_interval=None)
    try:
        base = simulate(
            case.instance,
            case.policy(),
            speeds=case.speeds(),
            priority=case.priority_fn(),
            record_segments=True,
            check_invariants=True,
            collect_counters=True,
            sink=recorder,
            events=events,
        )
    except (TreeSchedError, AssertionError) as exc:
        return [CheckFailure("engine", f"{type(exc).__name__}: {exc}")]
    if len(base.records) != len(case.instance.jobs):
        return [
            CheckFailure(
                "engine",
                f"only {len(base.records)} of {len(case.instance.jobs)} "
                "jobs dispatched",
            )
        ]
    # Completeness is terminal-state based: every released job must end
    # finished or (event-bearing cases only) cancelled.
    non_terminal = sorted(
        j for j, r in base.records.items() if not r.finished and not r.cancelled
    )
    if non_terminal:
        return [
            CheckFailure(
                "engine", f"jobs in non-terminal state: {non_terminal[:10]}"
            )
        ]
    stray_cancelled = sorted(j for j, r in base.records.items() if r.cancelled)
    if stray_cancelled and (
        events is None
        or any(j not in events.cancel_times() for j in stray_cancelled)
    ):
        return [
            CheckFailure(
                "engine",
                f"jobs cancelled without a matching event: {stray_cancelled[:10]}",
            )
        ]
    assignment = base.assignment()

    if "exact_oracle" in selected:
        try:
            oracle = exact_replay(
                case.instance,
                assignment,
                speeds=case.speeds(),
                priority=case.priority_fn(),
                events=events,
            )
        except TreeSchedError as exc:
            failures.append(
                CheckFailure("exact_oracle", f"oracle raised {exc}")
            )
        else:
            # The oracle must agree on terminal states too: it returns
            # completions exactly for the non-cancelled jobs.
            for jid, rec in base.records.items():
                if rec.cancelled:
                    if jid in oracle:
                        failures.append(
                            CheckFailure(
                                "exact_oracle",
                                f"job {jid}: engine cancelled at "
                                f"{rec.cancelled_at!r}, exact replay completed "
                                f"at {oracle[jid]!r}",
                            )
                        )
                    continue
                if jid not in oracle:
                    failures.append(
                        CheckFailure("exact_oracle", f"job {jid} missing")
                    )
                elif _rel_diff(oracle[jid], rec.completion) > _EXACT_RTOL:
                    failures.append(
                        CheckFailure(
                            "exact_oracle",
                            f"job {jid}: engine {rec.completion!r}, "
                            f"exact replay {oracle[jid]!r}",
                        )
                    )

    if "dt_reference" in selected and _dt_applicable(case):
        # Escalation ladder: a tick can flip a scheduling decision when
        # two event times are within the reference's accumulated error,
        # cascading far beyond the per-hop tolerance.  Such artefacts
        # vanish as dt shrinks (the error band tightens 5x per rung);
        # a genuine engine bug stays put.  Only a disagreement that
        # survives every rung is reported.
        cancel_times = events.cancel_times() if events is not None else {}
        for rung, step in enumerate((dt, dt / 5.0, dt / 25.0)):
            tol = _dt_tol(case, base, step)
            reference = reference_simulate(
                case.instance,
                assignment,
                dt=step,
                speeds=case.speeds(),
                events=events,
            )
            disagreements = []
            for jid, rec in base.records.items():
                got = reference.get(jid)
                if rec.cancelled:
                    # A terminal-state disagreement is only tolerable as a
                    # tick-scale near-tie at the cancel instant.
                    if got is not None and abs(got - rec.cancelled_at) > tol:
                        disagreements.append(
                            f"job {jid}: engine cancelled at "
                            f"{rec.cancelled_at}, reference completed at "
                            f"{got} (dt {step}, tol {tol})"
                        )
                    continue
                if got is None:
                    c = cancel_times.get(jid)
                    if c is None or abs(rec.completion - c) > tol:
                        disagreements.append(f"job {jid} never completed")
                elif abs(got - rec.completion) > tol:
                    disagreements.append(
                        f"job {jid}: engine {rec.completion}, reference "
                        f"{got} (dt {step}, tol {tol})"
                    )
            if not disagreements:
                break
        else:
            for message in disagreements:
                failures.append(CheckFailure("dt_reference", message))

    if "validate_schedule" in selected:
        try:
            validate_schedule(base)
        except TreeSchedError as exc:
            failures.append(CheckFailure("validate_schedule", str(exc)))

    if "trace_consistency" in selected:
        for problem in crosscheck_trace(base):
            failures.append(CheckFailure("trace_consistency", problem))
        untraced = simulate(
            case.instance,
            case.policy(),
            speeds=case.speeds(),
            priority=case.priority_fn(),
            events=events,
        )
        for jid, rec in base.records.items():
            other = untraced.records[jid]
            if rec.cancelled or other.cancelled:
                if other.cancelled_at != rec.cancelled_at:
                    failures.append(
                        CheckFailure(
                            "trace_consistency",
                            f"job {jid}: tracing changed cancellation "
                            f"{other.cancelled_at!r} -> {rec.cancelled_at!r}",
                        )
                    )
            elif other.completion != rec.completion:
                failures.append(
                    CheckFailure(
                        "trace_consistency",
                        f"job {jid}: tracing changed completion "
                        f"{other.completion!r} -> {rec.completion!r}",
                    )
                )

    if "counters" in selected and base.counters is not None:
        c = base.counters
        n = len(case.instance.jobs)
        if c.runs != 1:
            failures.append(CheckFailure("counters", f"runs = {c.runs}, not 1"))
        if c.events_processed != c.arrivals + c.completions + c.dyn_events:
            failures.append(
                CheckFailure(
                    "counters",
                    f"events_processed {c.events_processed} != arrivals "
                    f"{c.arrivals} + completions {c.completions} + "
                    f"dyn_events {c.dyn_events}",
                )
            )
        n_dyn = len(events) if events is not None else 0
        if c.dyn_events != n_dyn:
            failures.append(
                CheckFailure(
                    "counters",
                    f"dyn_events {c.dyn_events} for a schedule of {n_dyn}",
                )
            )
        if c.arrivals != n:
            failures.append(
                CheckFailure(
                    "counters", f"{c.arrivals} arrival events for {n} jobs"
                )
            )
        if base.trace is not None and c.trace_records != len(base.trace):
            failures.append(
                CheckFailure(
                    "counters",
                    f"trace_records {c.trace_records} != trace size "
                    f"{len(base.trace)}",
                )
            )

    if "metamorphic" in selected:
        for name, problems in run_relations(case, base).items():
            for problem in problems:
                failures.append(CheckFailure("metamorphic", problem))

    if BACKEND_CHECK in selected:
        outcome, problems = _check_backends(case, base, assignment)
        failures.extend(problems)
        if plans is not None:
            plans[outcome, f"{case.config.setting}/{case.config.policy}"] += 1

    if STREAM_CHECK in selected:
        failures.extend(
            check_stream(
                case, backends=BACKEND_CHECK in selected, plans=plans, raising=raising
            )
        )

    return failures


def _check_backends(
    case: FuzzCase, base, assignment
) -> tuple[str, list[CheckFailure]]:
    """Differential replay on the compiled kernel.

    The kernel promises a bit-identical schedule, so the bar is exact
    ``==``: the same leaf assignment, the same cancellations and, per
    job, the same per-hop completion / hand-off times; then the whole
    record mapping (``alt.records == base.records``, which also covers
    release, path and size estimate, and reads every lazily built c
    record), ``total_flow_time()`` (read off the c result's summary
    columns, not its records) and both integrals, which the two engines
    close per job with the same algebra and sum in one function.

    ``num_events`` is deliberately *not* compared: on tie-heavy cases
    two hop completions on adjacent nodes can land on the same instant,
    and whether the engine counts the second as its own event or folds
    it into the first's cascade (an uncounted drain whose scheduled
    event goes stale) depends on its event-heap insertion order — an
    implementation detail of the lazy event queue, invisible in the
    schedule.  The per-hop timelines compared here are the schedule.

    Returns the plan outcome (one of :data:`PLAN_OUTCOMES`) with the
    failures.
    """
    from repro.sim.backends import c_build
    from repro.sim.backends.c_backend import CEngine, CKernelInapplicable

    if not c_build.availability()[0]:
        return "unavailable", []
    try:
        eng = CEngine(
            case.instance,
            case.policy(),
            case.speeds(),
            priority=case.priority_fn(),
            events=case.events,
        )
    except CKernelInapplicable:
        return "declined", []
    except c_build.CKernelUnavailable:
        return "unavailable", []
    try:
        alt = eng.run()
    except (TreeSchedError, AssertionError) as exc:
        return "planned", [
            CheckFailure(
                "backends", f"c backend raised {type(exc).__name__}: {exc}"
            )
        ]
    failures: list[CheckFailure] = []
    alt_assignment = alt.assignment()
    if alt_assignment != assignment:
        moved = {
            jid: (assignment.get(jid), alt_assignment.get(jid))
            for jid in set(assignment) | set(alt_assignment)
            if assignment.get(jid) != alt_assignment.get(jid)
        }
        failures.append(
            CheckFailure("backends", f"assignment diverged (engine, c): {moved}")
        )
    for jid, rec in base.records.items():
        got = alt.records.get(jid)
        if got is None:
            failures.append(CheckFailure("backends", f"job {jid} missing on c"))
            continue
        if got.cancelled_at != rec.cancelled_at:
            failures.append(
                CheckFailure(
                    "backends",
                    f"job {jid}: terminal state engine "
                    f"cancelled_at={rec.cancelled_at!r}, c "
                    f"cancelled_at={got.cancelled_at!r}",
                )
            )
        for label, ours, theirs in (
            ("completed_at", rec.completed_at, got.completed_at),
            ("available_at", rec.available_at, got.available_at),
        ):
            if ours != theirs:
                failures.append(
                    CheckFailure(
                        "backends",
                        f"job {jid}: {label} engine {ours!r}, c {theirs!r}",
                    )
                )
    if not failures and alt.records != base.records:
        differ = sorted(
            j
            for j in set(base.records) | set(alt.records)
            if base.records.get(j) != alt.records.get(j)
        )
        failures.append(
            CheckFailure("backends", f"records differ (engine, c): jobs {differ[:10]}")
        )
    for label, ours, theirs in (
        ("total_flow_time", base.total_flow_time(), alt.total_flow_time()),
        ("fractional_flow", base.fractional_flow, alt.fractional_flow),
        ("alive_integral", base.alive_integral, alt.alive_integral),
    ):
        if ours != theirs:
            failures.append(
                CheckFailure("backends", f"{label} engine {ours!r}, c {theirs!r}")
            )
    return "planned", failures


def _dt_applicable(case: FuzzCase) -> bool:
    cfg = case.config
    return (
        len(case.instance.jobs) <= _DT_MAX_JOBS
        and cfg.priority == "sjf"  # the reference hard-codes SJF keys
        and cfg.sizes in _DT_SIZE_FAMILIES
        and cfg.arrivals in _DT_ARRIVAL_FAMILIES
        and not case.shrunk  # shrinking moves sizes onto tie-heavy grids
    )


def _dt_tol(case: FuzzCase, base, dt: float) -> float:
    from repro.sim.speed import SpeedProfile

    profile = case.speeds() or SpeedProfile.uniform(1.0)
    top_speed = max(profile.speeds_for(case.instance.tree).values())
    longest = max(len(rec.path) for rec in base.records.values())
    n_events = len(case.events) if case.events is not None else 0
    return dt * (longest + 4 + n_events) * max(1.0, top_speed) + 1e-9
