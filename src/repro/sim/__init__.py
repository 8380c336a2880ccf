"""Continuous-time event-driven simulator for the tree network model.

The engine (:mod:`repro.sim.engine`) implements exactly the semantics of
Section 2 of the paper: store-and-forward movement of jobs through the
tree, one job per node at a time, preemptive per-node priority queues,
per-node speeds (resource augmentation), immediate dispatch, and
non-migratory leaf assignments.  Results carry per-job per-node timing
records and exact fractional flow-time integrals
(:mod:`repro.sim.result`, :mod:`repro.sim.metrics`).
"""

from repro.sim.speed import SpeedProfile
from repro.sim.counters import (
    EngineCounters,
    disable_global_counters,
    enable_global_counters,
    global_counters,
    global_counters_enabled,
    reset_global_counters,
)
from repro.sim.engine import Engine, EngineSink, SchedulerView, simulate
from repro.sim.gantt import render_gantt
from repro.sim.result import JobRecord, ScheduleSegment, SimulationResult
from repro.sim.metrics import (
    flow_time_per_job,
    interior_delay,
    max_stretch,
    mean_flow_time,
    total_flow_time,
    waiting_decomposition,
)

__all__ = [
    "SpeedProfile",
    "EngineCounters",
    "enable_global_counters",
    "disable_global_counters",
    "global_counters",
    "global_counters_enabled",
    "reset_global_counters",
    "Engine",
    "EngineSink",
    "SchedulerView",
    "simulate",
    "SimulationResult",
    "JobRecord",
    "ScheduleSegment",
    "total_flow_time",
    "mean_flow_time",
    "flow_time_per_job",
    "max_stretch",
    "interior_delay",
    "waiting_decomposition",
    "render_gantt",
]
