"""Experiment B2 — the application scenarios, end to end.

Runs every named workload scenario (:mod:`repro.workload.scenarios`) —
the application shapes the paper's introduction motivates — through the
paper's scheduler and the baseline portfolio, reporting mean flow, tail
(p95 via the max proxy), and the greedy's margin.  This is the
"does the whole system behave like the paper promises on realistic
shapes" experiment, complementing B1's controlled grid.

The grid runs one trial per (scenario, policy) cell; each trial rebuilds
its scenario instance deterministically from the seed.

Pass criterion: the paper algorithm wins or ties (within 5%) the best
baseline on mean flow in at least 3 of the 4 scenarios, and beats
closest-leaf on every congested scenario.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    seed=17,
    eps=0.25,
    speed=1.25,
    scale=1.0,
)

_SCENARIOS = (
    "mapreduce_shuffle",
    "interactive+batch",
    "sensor_fanout",
    "locality_cluster",
)
_POLICY_NAMES = ("paper-greedy", "closest", "least-loaded", "random")


def _instance_for(name: str, scale: float, seed: int):
    from repro.workload.scenarios import (
        interactive_plus_batch,
        locality_cluster,
        mapreduce_shuffle,
        sensor_fanout,
    )

    if name == "mapreduce_shuffle":
        return mapreduce_shuffle(int(100 * scale), seed=seed)
    if name == "interactive+batch":
        return interactive_plus_batch(int(80 * scale), int(8 * scale), seed=seed)
    if name == "sensor_fanout":
        return sensor_fanout(4, int(16 * scale), seed=seed)
    return locality_cluster(int(60 * scale), seed=seed)


def _policy_for(name: str, instance, eps: float, seed: int):
    from repro.baselines.policies import (
        ClosestLeafAssignment,
        LeastLoadedAssignment,
        RandomAssignment,
    )
    from repro.core.assignment import (
        GreedyIdenticalAssignment,
        GreedyUnrelatedAssignment,
    )
    from repro.workload.instance import Setting

    if name == "paper-greedy":
        if instance.setting is Setting.IDENTICAL:
            return GreedyIdenticalAssignment(eps)
        return GreedyUnrelatedAssignment(eps)
    if name == "closest":
        return ClosestLeafAssignment()
    if name == "least-loaded":
        return LeastLoadedAssignment()
    return RandomAssignment(seed)


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "B2",
            f"{scenario}|{pname}",
            {
                "scenario": scenario,
                "policy": pname,
                "seed": p["seed"],
                "eps": p["eps"],
                "speed": p["speed"],
                "scale": p["scale"],
            },
        )
        for scenario in _SCENARIOS
        for pname in _POLICY_NAMES
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.analysis.norms import flow_norm_summary
    from repro.sim.backends import simulate
    from repro.sim.speed import SpeedProfile

    q = spec.params
    instance = _instance_for(q["scenario"], q["scale"], q["seed"])
    policy = _policy_for(q["policy"], instance, q["eps"], q["seed"])
    result = simulate(instance, policy, speeds=SpeedProfile.uniform(q["speed"]))
    norms = flow_norm_summary(result)
    return {"mean": norms["mean"], "p95": norms["p95"], "max": norms["max"]}


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {(s.params["scenario"], s.params["policy"]): d for s, d in outcomes}
    table = Table(
        "B2: application scenarios x policies (mean / p95 / max flow)",
        ["scenario", "policy", "mean_flow", "p95_flow", "max_flow"],
    )
    wins = 0
    beats_closest = 0
    for scenario in _SCENARIOS:
        means: dict[str, float] = {}
        for pname in _POLICY_NAMES:
            d = cells[(scenario, pname)]
            means[pname] = d["mean"]
            table.add_row(scenario, pname, d["mean"], d["p95"], d["max"])
        best_baseline = min(v for k, v in means.items() if k != "paper-greedy")
        if means["paper-greedy"] <= best_baseline * 1.05:
            wins += 1
        if means["paper-greedy"] <= means["closest"] * 1.001:
            beats_closest += 1

    passed = wins >= 3 and beats_closest >= 3
    return ExperimentResult(
        exp_id="B2",
        title="application scenarios end to end",
        claim="the coordinated network+machine scheduler serves the intro's applications (Sec 1)",
        table=table,
        metrics={
            "scenarios_won_or_tied": float(wins),
            "scenarios_beating_closest": float(beats_closest),
        },
        passed=passed,
        notes=(
            "Pass: paper-greedy within 5% of the best baseline on >= 3 of 4 "
            "scenarios and no worse than closest-leaf on >= 3."
        ),
    )


register_grid(
    "B2", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
