"""Experiment X1 — the divisible-routing extension (Section 2's remark).

The paper states its results extend "in a fairly straightforward manner"
to jobs sent in small pieces through the routers, and that interior
congestion is then "effectively negated".  This experiment measures
exactly that: the same workload run store-and-forward versus chunked at
several piece sizes, on a deep tree where interior pipelining matters.

The grid runs the store-and-forward baseline as one trial and each
chunking granularity as another; every trial rebuilds the (seeded,
deterministic) workload itself.

Expected shape: flow time improves as pieces shrink (monotonically up to
tie noise), with the largest win on deep paths; assignments stay
non-migratory (all pieces of a job on one machine).

Pass criterion: the finest chunking's total flow is at most the
store-and-forward total (with 2% tolerance), and every chunked run keeps
per-job single-leaf assignments.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    seed=13,
    eps=0.5,
    chunk_sizes=(4.0, 2.0, 1.0, 0.5),
)


def _instance(seed: int):
    from repro.network.builders import star_of_paths
    from repro.workload.arrivals import adversarial_bursts
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet
    from repro.workload.sizes import bimodal_sizes

    tree = star_of_paths(3, 6)  # deep branches: pipelining has room to win
    releases = adversarial_bursts(3, 10, gap=60.0, jitter=0.5, rng=seed)
    sizes = bimodal_sizes(
        len(releases), small=2.0, large=8.0, large_fraction=0.3, rng=seed
    )
    return Instance(
        tree, JobSet.build(releases, sizes), Setting.IDENTICAL, name="chunking"
    )


def _trials(p: dict) -> list[TrialSpec]:
    specs = [
        TrialSpec(
            "X1", "store-and-forward",
            {"mode": "baseline", "seed": p["seed"], "eps": p["eps"]},
        )
    ]
    specs.extend(
        TrialSpec(
            "X1",
            f"chunked(delta={delta:g})",
            {"mode": "chunked", "delta": delta, "seed": p["seed"], "eps": p["eps"]},
        )
        for delta in p["chunk_sizes"]
    )
    return specs


def _run_trial(spec: TrialSpec) -> dict:
    from repro.core.assignment import GreedyIdenticalAssignment
    from repro.sim.backends import simulate
    from repro.sim.speed import SpeedProfile
    from repro.workload.chunking import (
        ChunkedAssignment,
        aggregate_chunk_result,
        chunk_instance,
        chunk_priority,
    )

    q = spec.params
    eps = q["eps"]
    instance = _instance(q["seed"])
    speeds = SpeedProfile.uniform(1.0 + eps)
    if q["mode"] == "baseline":
        result = simulate(instance, GreedyIdenticalAssignment(eps), speeds=speeds)
        pieces = len(instance.jobs)
        summary = result
    else:
        chunked = chunk_instance(instance, q["delta"])
        raw = simulate(
            chunked.instance,
            ChunkedAssignment(chunked, GreedyIdenticalAssignment(eps)),
            speeds=speeds,
            priority=chunk_priority(chunked),
        )
        summary = aggregate_chunk_result(chunked, raw)  # raises on split jobs
        pieces = chunked.num_chunks
    return {
        "pieces": pieces,
        "total": summary.total_flow_time(),
        "mean": summary.mean_flow_time(),
        "max": summary.max_flow_time(),
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    chunk_sizes = tuple(p["chunk_sizes"])
    by_id = {s.trial_id: d for s, d in outcomes}
    table = Table(
        "X1: store-and-forward vs divisible routing",
        ["mode", "pieces", "total_flow", "mean_flow", "max_flow"],
    )
    base = by_id["store-and-forward"]
    table.add_row("store-and-forward", base["pieces"], base["total"], base["mean"], base["max"])
    finest_total = None
    for delta in chunk_sizes:
        d = by_id[f"chunked(delta={delta:g})"]
        table.add_row(f"chunked(delta={delta:g})", d["pieces"], d["total"], d["mean"], d["max"])
        finest_total = d["total"]
    assert finest_total is not None
    win = base["total"] / finest_total
    ok = finest_total <= base["total"] * 1.02
    return ExperimentResult(
        exp_id="X1",
        title="divisible routing negates interior congestion (Sec 2 extension)",
        claim="results extend to jobs sent in small pieces; interior congestion effectively negated",
        table=table,
        metrics={"store_forward_over_finest_chunked": win},
        passed=ok,
        notes=(
            "Pieces inherit their parent's SJF rank; all pieces of a job pin "
            "to one machine. Pass: finest chunking's total flow <= the "
            "store-and-forward total (2% tolerance)."
        ),
    )


register_grid(
    "X1", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
