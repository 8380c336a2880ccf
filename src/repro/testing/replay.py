"""Re-running saved repros.

:func:`replay_case` runs the check battery on an in-memory case;
:func:`replay` loads a corpus entry by digest (or path) first.  A
repro "reproduces" when the re-run fails at least one of the checks the
corpus document recorded — the failure *messages* may drift as the
engine evolves, the failing *check* is the stable identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.testing.checks import (
    ALL_CHECKS,
    BACKEND_CHECK,
    STREAM_CHECK,
    CheckFailure,
    run_checks,
)
from repro.testing.stream import STREAM_BACKEND_CHECK
from repro.testing.corpus import DEFAULT_CORPUS_DIR, load_repro
from repro.testing.generate import FuzzCase

__all__ = ["ReplayReport", "replay", "replay_case"]


@dataclass
class ReplayReport:
    """Outcome of replaying one repro."""

    digest: str | None
    label: str | None
    failures: list[CheckFailure] = field(default_factory=list)
    recorded_checks: tuple[str, ...] = ()

    @property
    def failing_checks(self) -> tuple[str, ...]:
        return tuple(sorted({f.check for f in self.failures}))

    @property
    def reproduced(self) -> bool:
        """Did the re-run hit any of the originally recorded checks?
        (Any failure counts when the document recorded none.)"""
        if not self.recorded_checks:
            return bool(self.failures)
        return bool(set(self.recorded_checks) & set(self.failing_checks))

    def to_doc(self) -> dict:
        return {
            "digest": self.digest,
            "label": self.label,
            "reproduced": self.reproduced,
            "recorded_checks": list(self.recorded_checks),
            "failing_checks": list(self.failing_checks),
            "failures": [
                {"check": f.check, "message": f.message} for f in self.failures
            ],
        }


def replay_case(
    case: FuzzCase,
    *,
    digest: str | None = None,
    recorded_checks=(),
) -> ReplayReport:
    """Run the battery on a case — plus the opt-in checks whose failures
    were recorded — and wrap the outcome."""
    opt_in = {
        BACKEND_CHECK: (BACKEND_CHECK,),
        STREAM_CHECK: (STREAM_CHECK,),
        STREAM_BACKEND_CHECK: (STREAM_CHECK, BACKEND_CHECK),
    }
    checks = set(ALL_CHECKS)
    for check in recorded_checks:
        checks.update(opt_in.get(check, ()))
    return ReplayReport(
        digest=digest,
        label=case.config.label(),
        failures=run_checks(case, checks=checks),
        recorded_checks=tuple(recorded_checks),
    )


def replay(
    ref: str | Path, corpus_dir: str | Path = DEFAULT_CORPUS_DIR
) -> ReplayReport:
    """Load a corpus entry (digest, digest prefix, or file path) and
    re-run its checks."""
    case, doc = load_repro(ref, corpus_dir)
    return replay_case(
        case,
        digest=doc["digest"],
        recorded_checks=tuple(sorted({f["check"] for f in doc["failures"]})),
    )
