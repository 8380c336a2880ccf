"""Experiment L1 — Lemma 1's interior waiting bound.

Lemma 1: once a job leaves its root-adjacent node, completing all
remaining *identical* nodes takes at most ``(6/ε²)·p_j·d_v`` time, given
speed ``≥ 1+ε`` below the top tier.  Measured shape: the maximum over
jobs of ``interior_delay / (p_j·d_v)`` stays (far) below ``6/ε²`` on
bursty deep-tree workloads designed to congest the interior.

The grid runs one trial per (tree, ε) cell.

Pass criterion: max normalised delay ≤ ``6/ε²`` on every configuration.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    seed=5,
    eps_values=(0.25, 0.5, 1.0),
)

_TREES = ("paths(4,5)", "kary(2,4)")


def _tree_for(name: str):
    from repro.network.builders import kary_tree, star_of_paths

    return star_of_paths(4, 5) if name == "paths(4,5)" else kary_tree(2, 4)


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "L1",
            f"{tree_name}|eps={eps!r}",
            {"tree": tree_name, "eps": eps, "seed": p["seed"]},
        )
        for tree_name in _TREES
        for eps in p["eps_values"]
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.analysis.experiments.workloads import burst_instance
    from repro.core.assignment import GreedyIdenticalAssignment
    from repro.sim.backends import simulate
    from repro.sim.metrics import normalized_interior_delay
    from repro.sim.speed import SpeedProfile

    q = spec.params
    eps = q["eps"]
    tree = _tree_for(q["tree"])
    instance = burst_instance(
        tree, num_bursts=4, jobs_per_burst=10, gap=25.0, seed=q["seed"]
    ).rounded(eps)
    # Lemma 1's setting: unit speed on the top tier, (1+eps) below.
    speeds = SpeedProfile.lemma1(eps)
    result = simulate(instance, GreedyIdenticalAssignment(eps), speeds=speeds)
    norms = [normalized_interior_delay(result, jid) for jid in result.records]
    return {"max": max(norms), "mean": sum(norms) / len(norms)}


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {(s.params["tree"], s.params["eps"]): d for s, d in outcomes}
    table = Table(
        "L1: interior waiting after R(v), normalised by p_j * d_v",
        ["tree", "eps", "speed_below_top", "max_norm_delay", "mean_norm_delay", "bound(6/eps^2)"],
    )
    ok = True
    worst_margin = 0.0
    for tree_name in _TREES:
        for eps in p["eps_values"]:
            d = cells[(tree_name, eps)]
            bound = 6.0 / (eps * eps)
            table.add_row(tree_name, eps, 1.0 + eps, d["max"], d["mean"], bound)
            worst_margin = max(worst_margin, d["max"] / bound)
            if d["max"] > bound:
                ok = False
    return ExperimentResult(
        exp_id="L1",
        title="interior waiting bound (Lemma 1)",
        claim="delay after leaving R(v) <= (6/eps^2) p_j d_v at speed >= 1+eps (Lem 1)",
        table=table,
        metrics={"worst_fraction_of_bound": worst_margin},
        passed=ok,
        notes=(
            "Sizes are (1+eps)-class rounded; the top tier runs at unit speed "
            "and everything below at 1+eps, exactly Lemma 1's setting. Pass: "
            "max normalised delay <= 6/eps^2 everywhere."
        ),
    )


register_grid(
    "L1", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
