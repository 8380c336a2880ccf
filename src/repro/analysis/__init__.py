"""Analysis layer: competitive-ratio estimation, replication statistics,
plain-text tables, and the experiment registry.

The experiment registry (:mod:`repro.analysis.experiments`) implements
every row of the experiment index in ``DESIGN.md`` §4 / ``EXPERIMENTS.md``
— one module per experiment id — and each benchmark under
``benchmarks/`` is a thin timing wrapper around one of them.
"""

from repro.analysis.tables import Table
from repro.analysis.norms import flow_lk_norm, flow_norm_summary
from repro.analysis.planning import CapacityPlan, min_speed_for_flow
from repro.analysis.profiles import bottleneck_report, busy_periods, node_utilisation
from repro.analysis.queueing import mg1_fifo_mean_flow, simulate_single_node_flow
from repro.analysis.ratios import RatioReport, competitive_report, lower_bound_for
from repro.analysis.stats import Replication

__all__ = [
    "Table",
    "RatioReport",
    "competitive_report",
    "lower_bound_for",
    "flow_lk_norm",
    "flow_norm_summary",
    "node_utilisation",
    "busy_periods",
    "bottleneck_report",
    "mg1_fifo_mean_flow",
    "simulate_single_node_flow",
    "Replication",
    "CapacityPlan",
    "min_speed_for_flow",
]
