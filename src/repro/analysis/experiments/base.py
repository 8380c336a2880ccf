"""The result bundle every experiment's reduce step returns."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import Table

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """The structured outcome of one experiment.

    Attributes
    ----------
    exp_id:
        The id from the DESIGN.md experiment index (e.g. ``"T1"``).
    title:
        One-line description.
    claim:
        The paper statement being validated, verbatim enough to compare.
    table:
        The regenerated rows.
    metrics:
        Headline scalars (e.g. worst ratio at the theorem's speed) used
        by tests and by EXPERIMENTS.md.
    passed:
        Whether the measured shape matches the claim (each experiment
        defines its own criterion and documents it in ``notes``).
    notes:
        How to read the table, incl. the pass criterion.
    """

    exp_id: str
    title: str
    claim: str
    table: Table
    metrics: dict[str, float] = field(default_factory=dict)
    passed: bool = True
    notes: str = ""

    def render(self) -> str:
        """Full plain-text report."""
        lines = [
            f"=== {self.exp_id}: {self.title} ===",
            f"claim: {self.claim}",
            "",
            self.table.render(),
            "",
        ]
        if self.metrics:
            lines.append(
                "metrics: "
                + ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.metrics.items()))
            )
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)
