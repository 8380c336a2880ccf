"""The streaming checks of the fuzz battery (``repro fuzz --stream``).

Each case runs through :class:`~repro.service.session.StreamSession`
with eviction and window retirement on, stepped by a seeded random mix
of window-aligned ``step()`` calls and incommensurate ``step(until=)``
slices, over the case's jobs in a seeded *source order* (equal releases
reversed half the time, so ids need not ascend).  The checks:

* **stream** — every finished record, every cancelled record and every
  in-flight record's timeline prefix equal, bit for bit, the records of
  one unsliced python-engine run over the same source; with
  ``record_points``/``record_spans`` on, the session's closing trace
  passes :func:`~repro.obs.trace.crosscheck_trace` against the closing
  records plus every record the callbacks received (subset mode once a
  window retired).
  Every snapshot's ``flow`` and every retained window's ``flow`` must
  equal histograms rebuilt from the ``on_finish`` records: one
  ``add`` per flow, into a cumulative histogram and into that of the
  window open when the callback ran.
* **stream_backends** (with ``--backends``) — the same session on the
  compiled kernel must equal the python one on every step's
  ``snapshot().to_dict()``, every :class:`WindowStats`, the ``on_finish``
  record sequence and the closing result: records, both integrals, trace
  gauges and retired counts.  Cases with dynamic events, per-event
  tracing or a plan the batch planner declines count as declined.

A share of the cases (drawn from a stream of their own, so the plans
above stay as they were) also run a **raising source**: the same plan
over a source that raises after its first ``k`` jobs.  The step that pulls the fault must re-raise it; afterwards
``step``, ``drain`` and ``idle`` must raise ``SimulationError`` with it
as ``__cause__``, the snapshot must account for every admitted job
(``arrivals_total == completions_total + cancelled_total +
jobs_in_flight``) and ``close()`` must return.  With ``--backends`` a
planned case runs it on both engines, whose snapshots must be ``==``
on every step before the failing one.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, groupby, repeat

import numpy as np

from repro.exceptions import SimulationError, TreeSchedError
from repro.obs.trace import crosscheck_trace
from repro.service.metrics import StreamingHistogram
from repro.sim.engine import Engine

__all__ = ["STREAM_CHECK", "STREAM_BACKEND_CHECK", "StreamPlan", "check_stream", "stream_plan"]

STREAM_CHECK = "stream"
STREAM_BACKEND_CHECK = "stream_backends"

#: Window lengths, in units of the case's mean job size.
_WINDOWS = (0.5, 1.0, 2.5, 4.0)

#: Share of the cases that also run a raising source.
_RAISING_SHARE = 0.25

#: Window steps a raising-source run may take past its plan before its
#: source must have raised.
_RAISING_EXTRA_STEPS = 10_000


class _SourceFault(RuntimeError):
    """What a raising-source run's arrival source raises."""


@dataclass(frozen=True)
class StreamPlan:
    """How one case is streamed: its source order, window, step
    horizons (``None``: the next window boundary) and trace switches."""

    source: tuple
    window: float
    untils: tuple
    record: bool


def stream_plan(case):
    """The case's seeded stream plan, with the records of one unsliced
    python-engine run over its source (whose last terminal instant
    scales the slicing)."""
    rng = np.random.default_rng([case.config.seed, 0x57EA])
    jobs = list(case.instance.jobs)
    if rng.random() < 0.5:
        # Equal releases in descending id order.
        jobs = [j for _, g in groupby(jobs, key=lambda j: j.release) for j in reversed(list(g))]
    ref = _reference(case, jobs)
    makespan = max(
        (r.cancelled_at if r.cancelled else r.completion for r in ref.values()),
        default=1.0,
    )
    window = float(np.mean([j.size for j in jobs])) * float(rng.choice(_WINDOWS))
    # Stop early a third of the time, so some cases close in flight.
    horizon = makespan * (float(rng.uniform(0.3, 1.0)) if rng.random() < 1 / 3 else 1.5)
    untils, t = [], 0.0
    while t < horizon and len(untils) < 400:
        if rng.random() < 0.5:
            untils.append(None)
            t = (math.floor(t / window) + 1) * window
        else:
            t += window * float(rng.uniform(0.0, 2.0))
            untils.append(t)
    return StreamPlan(tuple(jobs), window, tuple(untils), bool(rng.random() < 0.3)), ref


def _raising_at(case) -> int | None:
    """How many jobs the case's raising source yields before it raises
    (``None``: the case runs none), from a stream of its own."""
    rng = np.random.default_rng([case.config.seed, 0x57EA, 0xFA17])
    n = len(case.instance.jobs)
    if not n or rng.random() >= _RAISING_SHARE:
        return None
    return 1 + int(rng.random() * n)


def _raising_source(jobs, k: int):
    yield from jobs[:k]
    raise _SourceFault(f"the arrival source broke after {k} jobs")


class _Session:
    """A session of the plan, its callbacks' records and its snapshots:
    ``opened[i]`` is the window that was open when ``finished[i]`` was
    handed out, ``marks[s]`` the number of finished records by
    ``snaps[s]``."""

    def __init__(self, case, plan: StreamPlan, backend: str, arrivals=None) -> None:
        from repro.service.session import StreamSession

        self.finished: list = []
        self.cancelled: list = []
        self.opened: list[int] = []
        self.snaps: list[dict] = []
        self.marks: list[int] = []
        self.session = StreamSession(
            instance=case.instance,
            arrivals=plan.source if arrivals is None else arrivals,
            policy=case.policy(),
            window=plan.window,
            speeds=case.speeds(),
            priority=case.priority_fn(),
            record_points=plan.record,
            record_spans=plan.record,
            events=case.events,
            on_finish=self._on_finish,
            on_cancel=self.cancelled.append,
            backend=backend,
        )

    def _on_finish(self, record) -> None:
        self.finished.append(record)
        self.opened.append(self.session._windows_closed)

    def step(self, until) -> None:
        """One step of the plan, then the snapshot after it."""
        sess = self.session
        if until is None or until >= sess.now:
            sess.step(until=until)
        self.snaps.append(sess.snapshot().to_dict())
        self.marks.append(len(self.finished))


def _drive(run: _Session, plan: StreamPlan):
    """Step ``run`` through the plan; the snapshot after each step, the
    closed windows and the closing result."""
    for until in plan.untils:
        run.step(until)
    windows = [w.to_dict() for w in run.session.windows]
    return run.snaps, windows, run.session.close()


def _fold_problems(run: _Session, windows: list) -> list[str]:
    """The session's flow summaries against histograms rebuilt from its
    ``on_finish`` records, one ``add`` per flow."""
    cum = StreamingHistogram()
    per_window: defaultdict[int, StreamingHistogram] = defaultdict(StreamingHistogram)
    problems, done = [], 0
    for s, (snap, mark) in enumerate(zip(run.snaps, run.marks)):
        for record, index in zip(run.finished[done:mark], run.opened[done:mark]):
            cum.add(record.flow_time)
            per_window[index].add(record.flow_time)
        done = mark
        if snap["flow"] != cum.summary():
            problems.append(f"snapshot {s} flow {snap['flow']} != on_finish {cum.summary()}")
    closed = windows + [snap["last_window"] for snap in run.snaps if snap["last_window"]]
    for doc in closed:
        want = per_window[doc["index"]].summary()
        if doc["flow"] != want:
            problems.append(f"window {doc['index']} flow {doc['flow']} != on_finish {want}")
    return problems


def _run_raising(case, plan: StreamPlan, backend: str, k: int):
    """The plan over a source raising after ``k`` jobs, stepped past the
    plan a window at a time until the fault: the snapshots before the
    failing step and what the failed session got wrong."""
    run = _Session(case, plan, backend, _raising_source(plan.source, k))
    sess = run.session
    for until in chain(plan.untils, repeat(None, _RAISING_EXTRA_STEPS)):
        try:
            run.step(until)
        except _SourceFault as exc:
            fault = exc
            break
    else:
        return run.snaps, [f"{backend}: the source never raised"]
    problems = []
    for name in ("step", "drain", "idle"):
        try:
            getattr(sess, name)()
        except SimulationError as exc:
            if exc.__cause__ is not fault:
                problems.append(f"{backend}: {name}() raised {exc!r} caused by {exc.__cause__!r}")
        except Exception as exc:
            problems.append(f"{backend}: {name}() raised {exc!r}")
        else:
            problems.append(f"{backend}: {name}() returned on a failed session")
    snap = sess.snapshot()
    ended = snap.completions_total + snap.cancelled_total + snap.jobs_in_flight
    if snap.arrivals_total != ended:
        problems.append(f"{backend}: {snap.arrivals_total} arrivals, {ended} ended or in flight")
    result = sess.close()
    if len(result.records) != snap.jobs_in_flight:
        problems.append(
            f"{backend}: close() holds {len(result.records)} records, "
            f"{snap.jobs_in_flight} in flight"
        )
    return run.snaps, problems


def _reference(case, source):
    """One unsliced python-engine run over ``source``: its records."""
    engine = Engine(
        case.instance, case.policy(), case.speeds(),
        priority=case.priority_fn(), events=case.events,
    )
    engine.stream_start(source)
    engine.stream_step(until=math.inf)
    return engine.stream_result(verify=False).records


def _plan_outcome(case, plan: StreamPlan) -> str:
    """Where a c session of this case runs, by the batch planner's gate."""
    from repro.sim.backends import c_build
    from repro.sim.backends.c_backend import CEngine, CKernelInapplicable

    if not c_build.availability()[0]:
        return "unavailable"
    if plan.record or (case.events is not None and len(case.events)):
        return "declined"
    try:
        CEngine(case.instance, case.policy(), case.speeds(), priority=case.priority_fn())
    except CKernelInapplicable:
        return "declined"
    return "planned"


def check_stream(
    case, *, backends: bool = False, plans: Counter | None = None,
    raising: Counter | None = None,
):
    """The streaming checks on one case; returns their failures.
    ``raising`` (if given) counts the raising-source runs per engine."""
    from repro.testing.checks import CheckFailure

    def fail(check, message):
        failures.append(CheckFailure(check, message))

    failures: list = []
    try:
        plan, ref = stream_plan(case)
        run = _Session(case, plan, "python")
        snaps, windows, result = _drive(run, plan)
    except (TreeSchedError, AssertionError) as exc:
        return [CheckFailure(STREAM_CHECK, f"{type(exc).__name__}: {exc}")]
    finished, cancelled = run.finished, run.cancelled
    for rec in finished + cancelled:
        if rec != ref[rec.job_id]:
            fail(STREAM_CHECK, f"job {rec.job_id}: session {rec!r}, unsliced {ref[rec.job_id]!r}")
    for jid, rec in result.records.items():
        whole = ref[jid]
        if (rec.available_at != whole.available_at[: len(rec.available_at)]
                or rec.completed_at != whole.completed_at[: len(rec.completed_at)]):
            fail(STREAM_CHECK, f"job {jid}: in-flight record {rec!r} is no prefix of {whole!r}")
    seen = len(finished) + len(cancelled) + len(result.records)
    if snaps and seen != snaps[-1]["arrivals_total"]:
        fail(STREAM_CHECK, f"{seen} records for {snaps[-1]['arrivals_total']} arrivals")
    if plan.record:
        for problem in crosscheck_trace(result, evicted=finished + cancelled):
            fail(STREAM_CHECK, f"trace: {problem}")
    for problem in _fold_problems(run, windows):
        fail(STREAM_CHECK, f"fold: {problem}"[:600])
    k = _raising_at(case)
    raised = None
    if k is not None:
        try:
            raised, problems = _run_raising(case, plan, "python", k)
        except (TreeSchedError, AssertionError) as exc:
            problems = [f"python session raised {type(exc).__name__}: {exc}"]
        else:
            if raising is not None:
                raising["python"] += 1
        for problem in problems:
            fail(STREAM_CHECK, f"source raising after {k} jobs: {problem}")

    if backends:
        outcome = _plan_outcome(case, plan)
        if plans is not None:
            plans[outcome, f"stream/{case.config.setting}/{case.config.policy}"] += 1
        if outcome == "planned":
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    c_run = _Session(case, plan, "c")
                    c_snaps, c_windows, c_result = _drive(c_run, plan)
            except (TreeSchedError, AssertionError, RuntimeWarning) as exc:
                return failures + [CheckFailure(
                    STREAM_BACKEND_CHECK, f"c session raised {type(exc).__name__}: {exc}"
                )]
            for label, ours, theirs in (
                ("snapshots", snaps, c_snaps),
                ("windows", windows, c_windows),
                ("on_finish records", finished, c_run.finished),
                ("closing records", result.records, c_result.records),
                ("alive_integral", result.alive_integral, c_result.alive_integral),
                ("fractional_flow", result.fractional_flow, c_result.fractional_flow),
                ("trace gauges", result.trace.gauges, c_result.trace.gauges),
                ("trace meta", result.trace.meta, c_result.trace.meta),
            ):
                if ours != theirs:
                    fail(STREAM_BACKEND_CHECK, f"{label} differ (python, c): {ours!r} != {theirs!r}"[:600])
            if raised is not None:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        c_raised, problems = _run_raising(case, plan, "c", k)
                except (TreeSchedError, AssertionError, RuntimeWarning) as exc:
                    problems = [f"c session raised {type(exc).__name__}: {exc}"]
                else:
                    if raising is not None:
                        raising["c"] += 1
                    if c_raised != raised:
                        problems.append(
                            f"snapshots before the fault differ (python, c): "
                            f"{raised!r} != {c_raised!r}"[:600]
                        )
                for problem in problems:
                    fail(STREAM_BACKEND_CHECK, f"source raising after {k} jobs: {problem}")
    return failures
