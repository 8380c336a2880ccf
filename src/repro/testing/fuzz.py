"""The fuzz driver: generate → check → shrink → persist.

:func:`run_fuzz` pulls cases from the deterministic stream of
:func:`repro.testing.generate.iter_cases`, runs the full battery of
:mod:`repro.testing.checks` on each, and on failure minimises the case
with :mod:`repro.testing.shrink` (preserving the *set of failing
checks*, not exact messages) before writing it to the crash corpus.

The run is bounded by whichever of ``max_cases`` / ``budget_seconds``
trips first; both unset means ``max_cases=500``.  For a fixed seed and
``budget_seconds=None`` the whole run — cases, failures, shrunk repro
documents, digests — is deterministic.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.testing.checks import (
    ALL_CHECKS,
    BACKEND_CHECK,
    BOUNDED,
    PLAN_OUTCOMES,
    STREAM_CHECK,
    CheckFailure,
    run_checks,
)
from repro.testing.corpus import DEFAULT_CORPUS_DIR, case_digest, save_repro
from repro.testing.generate import iter_cases
from repro.testing.shrink import shrink_case

__all__ = ["FuzzFailureRecord", "FuzzSummary", "run_fuzz"]


@dataclass
class FuzzFailureRecord:
    """One failing case, after shrinking."""

    digest: str
    original_label: str
    failing_checks: tuple[str, ...]
    n_jobs_original: int
    n_jobs_shrunk: int
    shrink_steps: int
    path: str | None
    failures: list[CheckFailure] = field(default_factory=list)
    n_events_shrunk: int = 0

    def to_doc(self) -> dict:
        return {
            "digest": self.digest,
            "original_label": self.original_label,
            "failing_checks": list(self.failing_checks),
            "n_jobs_original": self.n_jobs_original,
            "n_jobs_shrunk": self.n_jobs_shrunk,
            "n_events_shrunk": self.n_events_shrunk,
            "shrink_steps": self.shrink_steps,
            "path": self.path,
            "failures": [
                {"check": f.check, "message": f.message} for f in self.failures
            ],
        }


@dataclass
class FuzzSummary:
    """Machine-readable outcome of one fuzz run.

    ``kernel_plans`` is ``None`` unless the run had the backend check
    on; then it maps ``(outcome, "setting/policy")`` to the number of
    cases the check saw with that plan outcome (see
    :data:`~repro.testing.checks.PLAN_OUTCOMES`), and
    ``(BOUNDED, "setting/policy")`` to those that also ran bounded.
    ``raising_sources`` is ``None`` unless the run had the stream check
    on; then it counts the cases that ran a raising source, per engine
    (``"python"``, ``"c"``).
    """

    seed: int
    cases_run: int
    elapsed_seconds: float
    failures: list[FuzzFailureRecord] = field(default_factory=list)
    stopped_by: str = "max_cases"  # or "budget"
    kernel_plans: Counter | None = None
    raising_sources: Counter | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def kernel_count(self, outcome: str) -> int:
        """Cases the backend check ran with plan ``outcome``."""
        plans = self.kernel_plans or Counter()
        return sum(n for (o, _), n in plans.items() if o == outcome)

    def to_doc(self) -> dict:
        doc = {
            "seed": self.seed,
            "cases_run": self.cases_run,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "stopped_by": self.stopped_by,
            "ok": self.ok,
            "failures": [f.to_doc() for f in self.failures],
        }
        if self.kernel_plans is not None:
            by_case: dict[str, dict[str, int]] = {}
            for (outcome, label), n in sorted(self.kernel_plans.items()):
                by_case.setdefault(label, {})[outcome] = n
            doc["kernel"] = {
                **{o: self.kernel_count(o) for o in (*PLAN_OUTCOMES, BOUNDED)},
                "by_case": by_case,
            }
        if self.raising_sources is not None:
            doc["raising_sources"] = {
                engine: self.raising_sources[engine] for engine in ("python", "c")
            }
        return doc


def run_fuzz(
    *,
    seed: int = 0,
    max_cases: int | None = None,
    budget_seconds: float | None = None,
    corpus_dir: str | Path | None = DEFAULT_CORPUS_DIR,
    checks=None,
    backends: bool = False,
    events: bool = False,
    stream: bool = False,
    shrink: bool = True,
    shrink_attempts: int = 400,
    progress=None,
) -> FuzzSummary:
    """Run the fuzzer; returns a :class:`FuzzSummary`.

    Parameters
    ----------
    seed:
        Seed of the case stream (the whole run is a function of it).
    max_cases / budget_seconds:
        Stop after this many cases / this much wall clock, whichever
        comes first; with neither given, 500 cases.
    corpus_dir:
        Where shrunk failures are written (``None`` disables writing).
    checks:
        Restrict the battery to a subset of
        :data:`repro.testing.checks.ALL_CHECKS`.
    backends:
        Add the opt-in cross-backend differential check: every case the
        compiled kernel can plan is also replayed on it, and must agree
        with the reference engine (and, transitively, with the exact
        and dt oracles the battery already compares it against).  The
        summary counts planned and declined cases per setting/policy.
    events:
        Extend the case stream with dynamic-event plans (node outages,
        cancellations) drawn from a separate sub-stream; the default
        stream stays byte-identical when off.
    stream:
        Add the streaming check (:mod:`repro.testing.stream`): every case
        also runs through a randomly sliced open-system session, on the
        kernel too with ``backends``; its stream opens with a deck of
        same-instant-completion and tie families, so it differs from the
        default stream after the first dozen cases.  A quarter of the
        cases also run a raising source (counted in the summary).
    shrink:
        Minimise failing cases before persisting.
    shrink_attempts:
        Predicate-call bound per shrink.
    progress:
        Optional callable ``(cases_run, failures_so_far)`` invoked after
        every case (the CLI's live ticker).
    """
    if max_cases is None and budget_seconds is None:
        max_cases = 500
    selected = tuple(ALL_CHECKS if checks is None else checks)
    if backends and BACKEND_CHECK not in selected:
        selected = selected + (BACKEND_CHECK,)
    if stream and STREAM_CHECK not in selected:
        selected = selected + (STREAM_CHECK,)
    started = time.monotonic()
    summary = FuzzSummary(seed=seed, cases_run=0, elapsed_seconds=0.0)
    if BACKEND_CHECK in selected:
        summary.kernel_plans = Counter()
    if STREAM_CHECK in selected:
        summary.raising_sources = Counter()
    for case in iter_cases(seed, max_cases, events=events, stream=stream):
        if (
            budget_seconds is not None
            and time.monotonic() - started >= budget_seconds
        ):
            summary.stopped_by = "budget"
            break
        failures = run_checks(
            case, checks=selected, plans=summary.kernel_plans,
            raising=summary.raising_sources,
        )
        summary.cases_run += 1
        if failures:
            summary.failures.append(
                _handle_failure(
                    case,
                    failures,
                    selected,
                    corpus_dir,
                    shrink,
                    shrink_attempts,
                )
            )
        if progress is not None:
            progress(summary.cases_run, len(summary.failures))
    summary.elapsed_seconds = time.monotonic() - started
    return summary


def _handle_failure(
    case, failures, selected, corpus_dir, shrink, shrink_attempts
) -> FuzzFailureRecord:
    original_label = case.config.label()
    n_original = len(case.instance.jobs)
    target_checks = {f.check for f in failures}
    shrink_steps = 0
    if shrink:

        def still_fails(candidate) -> bool:
            got = {f.check for f in run_checks(candidate, checks=selected)}
            return bool(got & target_checks)

        result = shrink_case(case, still_fails, max_attempts=shrink_attempts)
        if result.steps:
            case = result.case
            shrink_steps = result.steps
            failures = run_checks(case, checks=selected)
    path = None
    if corpus_dir is not None:
        path = str(
            save_repro(
                case,
                failures,
                corpus_dir,
                original_label=original_label,
                shrunk_from=n_original if shrink_steps else None,
            )
        )
    return FuzzFailureRecord(
        digest=case_digest(case),
        original_label=original_label,
        failing_checks=tuple(sorted({f.check for f in failures})),
        n_jobs_original=n_original,
        n_jobs_shrunk=len(case.instance.jobs),
        shrink_steps=shrink_steps,
        path=path,
        failures=list(failures),
        n_events_shrunk=len(case.events) if case.events is not None else 0,
    )
