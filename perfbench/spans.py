"""In-memory spans for the traced run, and the percentile helpers.

A span is one call the benchmark makes into a layer of the program:
name, start, end, parent span, workload and run id.  Spans stay in memory
and are written out as JSON lines when the run ends.  Untraced runs
record none.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Spans:
    """The spans of one traced run, kept in memory until :meth:`write`."""

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.records)
        rec = {
            "id": idx,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run": self.run_id,
            **attrs,
        }
        self.records.append(rec)
        self._stack.append(idx)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def span(spans: Spans | None, name: str, **attrs):
    """``spans.span(...)`` in a traced run, a no-op context otherwise."""
    return spans.span(name, **attrs) if spans is not None else nullcontext()


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation; nan if empty."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
