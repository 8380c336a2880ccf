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
* **stream_backends** (with ``--backends``) — the same session on the
  compiled kernel must equal the python one on every step's
  ``snapshot().to_dict()``, every :class:`WindowStats`, the ``on_finish``
  record sequence and the closing result: records, both integrals, trace
  gauges and retired counts.  Cases with dynamic events, per-event
  tracing or a plan the batch planner declines count as declined.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from repro.exceptions import TreeSchedError
from repro.obs.trace import crosscheck_trace
from repro.sim.engine import Engine

__all__ = ["STREAM_CHECK", "STREAM_BACKEND_CHECK", "StreamPlan", "check_stream", "stream_plan"]

STREAM_CHECK = "stream"
STREAM_BACKEND_CHECK = "stream_backends"

#: Window lengths, in units of the case's mean job size.
_WINDOWS = (0.5, 1.0, 2.5, 4.0)


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


def _session(case, plan: StreamPlan, backend: str, finished: list, cancelled: list):
    from repro.service.session import StreamSession

    return StreamSession(
        instance=case.instance,
        arrivals=plan.source,
        policy=case.policy(),
        window=plan.window,
        speeds=case.speeds(),
        priority=case.priority_fn(),
        record_points=plan.record,
        record_spans=plan.record,
        events=case.events,
        on_finish=finished.append,
        on_cancel=cancelled.append,
        backend=backend,
    )


def _drive(sess, plan: StreamPlan):
    """Step ``sess`` through the plan; the snapshot after each step, the
    closed windows and the closing result."""
    snaps = []
    for until in plan.untils:
        if until is None or until >= sess.now:
            sess.step(until=until)
        snaps.append(sess.snapshot().to_dict())
    windows = [w.to_dict() for w in sess.windows]
    return snaps, windows, sess.close()


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


def check_stream(case, *, backends: bool = False, plans: Counter | None = None):
    """The streaming checks on one case; returns their failures."""
    from repro.testing.checks import CheckFailure

    def fail(check, message):
        failures.append(CheckFailure(check, message))

    failures: list = []
    try:
        plan, ref = stream_plan(case)
        finished: list = []
        cancelled: list = []
        snaps, windows, result = _drive(
            _session(case, plan, "python", finished, cancelled), plan
        )
    except (TreeSchedError, AssertionError) as exc:
        return [CheckFailure(STREAM_CHECK, f"{type(exc).__name__}: {exc}")]
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

    if backends:
        outcome = _plan_outcome(case, plan)
        if plans is not None:
            plans[outcome, f"stream/{case.config.setting}/{case.config.policy}"] += 1
        if outcome == "planned":
            c_finished: list = []
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    c_snaps, c_windows, c_result = _drive(
                        _session(case, plan, "c", c_finished, []), plan
                    )
            except (TreeSchedError, AssertionError, RuntimeWarning) as exc:
                return failures + [CheckFailure(
                    STREAM_BACKEND_CHECK, f"c session raised {type(exc).__name__}: {exc}"
                )]
            for label, ours, theirs in (
                ("snapshots", snaps, c_snaps),
                ("windows", windows, c_windows),
                ("on_finish records", finished, c_finished),
                ("closing records", result.records, c_result.records),
                ("alive_integral", result.alive_integral, c_result.alive_integral),
                ("fractional_flow", result.fractional_flow, c_result.fractional_flow),
                ("trace gauges", result.trace.gauges, c_result.trace.gauges),
                ("trace meta", result.trace.meta, c_result.trace.meta),
            ):
                if ours != theirs:
                    fail(STREAM_BACKEND_CHECK, f"{label} differ (python, c): {ours!r} != {theirs!r}"[:600])
    return failures
