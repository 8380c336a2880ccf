"""Experiment X2 — jobs created at arbitrary nodes (the conclusion's
future-work question).

"What can be shown if jobs arrive at arbitrary nodes in the network?"
We implement the natural downward-routing variant: a job's data
originates at a router and must be dispatched to a machine in that
router's subtree.  This experiment compares three placements of the
same workload on a datacenter tree:

* ``root`` — the paper's model (data enters at the core);
* ``pod`` — data originates at the pod routers (local analytics);
* ``rack`` — data originates at top-of-rack routers (near-data
  processing).

The grid runs one trial per placement tier.  Each trial replays the
*full* RNG draw sequence (sizes → releases → pod picks → rack picks)
before selecting its tier, so all three tiers see exactly the workload
the original single-pass sweep produced.

Expected shape: the deeper the origin, the lower the flow time (shorter
paths *and* no shared top-tier bottleneck), with every run respecting
the subtree constraint.

Pass criterion: mean flow strictly decreases from root to pod to rack
placement, and every job lands inside its origin's subtree.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    n=80,
    seed=14,
    eps=0.25,
)

_TIERS = ("root", "pod", "rack")


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "X2",
            tier,
            {"tier": tier, "n": p["n"], "seed": p["seed"], "eps": p["eps"]},
        )
        for tier in _TIERS
    ]


def _run_trial(spec: TrialSpec) -> dict:
    import numpy as np

    from repro.core.assignment import GreedyIdenticalAssignment
    from repro.network.builders import datacenter_tree
    from repro.sim.backends import simulate
    from repro.sim.speed import SpeedProfile
    from repro.workload.arrivals import poisson_arrivals
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet
    from repro.workload.sizes import uniform_sizes

    q = spec.params
    n, seed = q["n"], q["seed"]
    tree = datacenter_tree(2, 3, 3)
    rng = np.random.default_rng(seed)
    sizes = uniform_sizes(n, 1.0, 3.0, rng=rng)
    rate = Instance.poisson_rate_for_load(tree, float(sizes.mean()), 0.85)
    releases = poisson_arrivals(n, rate, rng=rng)

    pods = list(tree.root_children)
    racks = [r for p_ in pods for r in tree.children(p_)]
    placements = {
        "root": [None] * n,
        "pod": [pods[int(rng.integers(len(pods)))] for _ in range(n)],
        "rack": [racks[int(rng.integers(len(racks)))] for _ in range(n)],
    }
    origins = placements[q["tier"]]
    instance = Instance(
        tree,
        JobSet.build(releases, sizes, origins=origins),
        Setting.IDENTICAL,
        name=f"origins/{q['tier']}",
    )
    result = simulate(
        instance, GreedyIdenticalAssignment(q["eps"]), speeds=SpeedProfile.uniform(1.25)
    )
    respected = True
    path_lens = []
    for jid, rec in result.records.items():
        job = instance.jobs.by_id(jid)
        path_lens.append(len(rec.path))
        if job.origin is not None and not tree.is_ancestor(job.origin, rec.leaf):
            respected = False
    return {
        "mean": result.mean_flow_time(),
        "max": result.max_flow_time(),
        "mean_path_len": sum(path_lens) / len(path_lens),
        "respected": respected,
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {s.params["tier"]: d for s, d in outcomes}
    table = Table(
        "X2: origin placement vs flow time",
        ["origin_tier", "mean_flow", "max_flow", "mean_path_len", "subtree_respected"],
    )
    means = {}
    ok = True
    for tier in _TIERS:
        d = cells[tier]
        means[tier] = d["mean"]
        table.add_row(tier, d["mean"], d["max"], d["mean_path_len"], d["respected"])
        ok = ok and d["respected"]
    if not (means["rack"] < means["pod"] < means["root"]):
        ok = False
    return ExperimentResult(
        exp_id="X2",
        title="arbitrary arrival nodes (conclusion's future work)",
        claim="(open question) jobs arriving at arbitrary nodes; downward-routing variant implemented",
        table=table,
        metrics={
            "root_over_rack_mean_flow": means["root"] / means["rack"],
            "root_over_pod_mean_flow": means["root"] / means["pod"],
        },
        passed=ok,
        notes=(
            "Pass: every job lands in its origin's subtree and mean flow "
            "strictly improves root -> pod -> rack (data locality pays)."
        ),
    )


register_grid(
    "X2", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
