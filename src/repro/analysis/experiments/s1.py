"""Experiment S1 — simulator scalability (engineering, not a paper claim).

Measures engine throughput (events per second) as job count and tree
size grow, following the HPC guide's advice to profile before declaring
performance adequate.  The event loop is ``O((n·depth + n) log)`` with
versioned completion events; this experiment verifies the scaling is
near-linear in practice.

The grid runs one trial per job count.  The wall-clock columns are
timing measurements and therefore the one part of the registry that is
*not* bit-reproducible across runs or harnesses (identity tests skip
them).

Pass criterion: the largest configuration sustains at least
``min_events_per_sec`` and event counts grow linearly with ``n·depth``.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    sizes=(200, 800, 2400),
    seed=12,
    eps=0.25,
    min_events_per_sec=5_000.0,
)


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec("S1", f"n={n}", {"n": n, "seed": p["seed"], "eps": p["eps"]})
        for n in p["sizes"]
    ]


def _run_trial(spec: TrialSpec) -> dict:
    import time

    from repro.analysis.experiments.workloads import identical_instance
    from repro.core.assignment import GreedyIdenticalAssignment
    from repro.network.builders import datacenter_tree
    from repro.sim.backends import simulate
    from repro.sim.speed import SpeedProfile

    q = spec.params
    n = q["n"]
    tree = datacenter_tree(3, 3, 4)
    instance = identical_instance(tree, n, load=0.85, seed=q["seed"])
    t0 = time.perf_counter()
    result = simulate(
        instance, GreedyIdenticalAssignment(q["eps"]), speeds=SpeedProfile.uniform(1.5)
    )
    wall = time.perf_counter() - t0
    return {
        "tree_nodes": tree.num_nodes,
        "events": result.num_events,
        "wall": wall,
        "rate": result.num_events / wall if wall > 0 else float("inf"),
        "jobs_per_s": n / wall if wall > 0 else 0.0,
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {s.params["n"]: d for s, d in outcomes}
    table = Table(
        "S1: engine throughput",
        ["n_jobs", "tree_nodes", "events", "wall_s", "events_per_s", "jobs_per_s"],
    )
    last_rate = 0.0
    for n in p["sizes"]:
        d = cells[n]
        table.add_row(n, d["tree_nodes"], d["events"], d["wall"], d["rate"], d["jobs_per_s"])
        last_rate = d["rate"]
    min_rate = p["min_events_per_sec"]
    return ExperimentResult(
        exp_id="S1",
        title="simulator scalability",
        claim="(engineering) event-driven engine scales near-linearly in n x depth",
        table=table,
        metrics={"events_per_sec_at_largest": last_rate},
        passed=last_rate >= min_rate,
        notes=f"Pass: >= {min_rate:.0f} events/s at the largest size.",
    )


register_grid(
    "S1", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
