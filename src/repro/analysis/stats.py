"""Replication statistics for experiments.

One seed is an anecdote.  :func:`summarize` folds a measurement taken
across seeds into a :class:`Replication` with mean, standard deviation,
and a normal-approximation confidence interval; the trial-grid reduce
steps report their multi-seed cells through it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import AnalysisError

__all__ = ["Replication", "summarize"]

#: two-sided z values for common confidence levels
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class Replication:
    """Summary of one metric across seeds.

    Attributes
    ----------
    values:
        The per-seed measurements.
    mean / std:
        Sample mean and (ddof=1) standard deviation.
    ci_low / ci_high:
        Normal-approximation confidence interval for the mean.
    level:
        The confidence level used.
    """

    values: tuple[float, ...]
    mean: float
    std: float
    ci_low: float
    ci_high: float
    level: float

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} ({int(self.level*100)}% CI)"


def summarize(values: Sequence[float], *, level: float = 0.95) -> Replication:
    """Summarise per-seed measurements.

    Raises
    ------
    AnalysisError
        On fewer than 2 values or an unsupported confidence level.
    """
    if len(values) < 2:
        raise AnalysisError("need at least 2 values for a confidence interval")
    if level not in _Z:
        raise AnalysisError(f"level must be one of {sorted(_Z)}, got {level}")
    arr = np.array([float(v) for v in values])
    mean = float(arr.mean())
    std = float(arr.std(ddof=1))
    half = _Z[level] * std / math.sqrt(len(arr))
    return Replication(
        values=tuple(arr.tolist()),
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
        level=level,
    )
