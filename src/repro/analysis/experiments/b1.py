"""Experiment B1 — the motivation table: congestion-aware dispatch wins.

The paper's introduction argues that schedulers ignoring network
congestion (e.g. send every job to its closest/fastest machine) cannot
work, and Section 3.1 explains why closest-leaf specifically fails.
This experiment quantifies that: a grid of assignment policies × node
orders across loads, reporting mean flow time, with the crossover load
at which closest-leaf collapses.

The grid runs one trial per (load, policy, node-order) cell.

Pass criterion: at the highest load the paper's greedy beats closest-leaf
by at least ``win_factor`` on mean flow time, and SJF beats FIFO for the
greedy assignment.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    n=80,
    seed=10,
    eps=0.25,
    loads=(0.5, 0.8, 0.95),
    speed=1.25,
    win_factor=1.1,
)

_POLICY_NAMES = ("greedy", "closest", "random", "least-loaded", "round-robin")
_ORDER_NAMES = ("sjf", "fifo")


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "B1",
            f"load={load!r}|{pname}|{oname}",
            {
                "load": load,
                "policy": pname,
                "order": oname,
                "n": p["n"],
                "seed": p["seed"],
                "eps": p["eps"],
                "speed": p["speed"],
            },
        )
        for load in p["loads"]
        for pname in _POLICY_NAMES
        for oname in _ORDER_NAMES
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.analysis.experiments.workloads import identical_instance
    from repro.api import _resolve_policy
    from repro.network.builders import datacenter_tree
    from repro.sim.backends import simulate
    from repro.sim.engine import fifo_priority, sjf_priority
    from repro.sim.speed import SpeedProfile

    q = spec.params
    tree = datacenter_tree(2, 2, 3)
    instance = identical_instance(
        tree, q["n"], load=q["load"], size_kind="bimodal", seed=q["seed"]
    )
    order = sjf_priority if q["order"] == "sjf" else fifo_priority
    result = simulate(
        instance,
        _resolve_policy(q["policy"], instance, q["eps"], q["seed"]),
        speeds=SpeedProfile.uniform(q["speed"]),
        priority=order,
    )
    return {"mean": result.mean_flow_time(), "max": result.max_flow_time()}


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {
        (s.params["load"], s.params["policy"], s.params["order"]): d
        for s, d in outcomes
    }
    table = Table(
        "B1: mean flow time by assignment policy, node order, and load",
        ["load", "policy", "node_order", "mean_flow", "max_flow"],
    )
    mean_at: dict[tuple[float, str, str], float] = {}
    for load in p["loads"]:
        for pname in _POLICY_NAMES:
            for oname in _ORDER_NAMES:
                d = cells[(load, pname, oname)]
                table.add_row(load, pname, oname, d["mean"], d["max"])
                mean_at[(load, pname, oname)] = d["mean"]

    top = max(p["loads"])
    win_factor = p["win_factor"]
    greedy = mean_at[(top, "greedy", "sjf")]
    closest = mean_at[(top, "closest", "sjf")]
    greedy_fifo = mean_at[(top, "greedy", "fifo")]
    passed = closest >= greedy * win_factor and greedy_fifo >= greedy
    return ExperimentResult(
        exp_id="B1",
        title="policy comparison: the cost of ignoring congestion",
        claim="congestion-oblivious assignment (closest leaf) is not suitable (Sec 3.1)",
        table=table,
        metrics={
            "closest_over_greedy_at_high_load": closest / greedy,
            "fifo_over_sjf_for_greedy": greedy_fifo / greedy,
        },
        passed=passed,
        notes=(
            f"Pass: at load {top}, closest-leaf's mean flow is at least "
            f"{win_factor}x the greedy's, and FIFO does not beat SJF under "
            "the greedy assignment."
        ),
    )


register_grid(
    "B1", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
