"""Observability layer: structured simulation tracing and telemetry.

``repro.obs`` records what a simulation *did* — per-job lifecycle spans
(arrival, queue waits, per-hop service, completion) and sampled per-node
gauges (queue depth, queued volume, the paper's ``|Q_v(t)|``, exact
utilization) — with zero behavioural impact on the engine and a
one-pointer-test cost when disabled, mirroring
:class:`~repro.sim.counters.EngineCounters`.

Entry points:

* :class:`TraceRecorder` — an :class:`~repro.sim.engine.EngineSink`:
  pass as ``sink=`` to the engine (or use :func:`repro.api.trace_run`);
  the assembled :class:`SimulationTrace` lands on
  ``SimulationResult.trace``.
* :mod:`repro.obs.export` — JSONL (lossless, schema-validated), Chrome
  trace-event JSON (Perfetto-loadable) and a per-node summary table.
* :mod:`repro.obs.schema` — the documented ``trace/v1`` JSONL schema
  and its validator (used by CI's trace-smoke job).
"""

from repro.obs.export import (
    jsonl_lines,
    read_jsonl,
    to_chrome,
    trace_summary_table,
    write_chrome,
    write_jsonl,
)
from repro.obs.schema import TRACE_SCHEMA, validate_jsonl, validate_line
from repro.obs.trace import (
    GaugeSample,
    SimulationTrace,
    TraceConfig,
    TracePoint,
    TraceRecorder,
    TraceSpan,
    crosscheck_trace,
)

__all__ = [
    "TraceConfig",
    "TraceRecorder",
    "SimulationTrace",
    "TracePoint",
    "TraceSpan",
    "GaugeSample",
    "crosscheck_trace",
    "jsonl_lines",
    "write_jsonl",
    "read_jsonl",
    "to_chrome",
    "write_chrome",
    "trace_summary_table",
    "TRACE_SCHEMA",
    "validate_line",
    "validate_jsonl",
]
