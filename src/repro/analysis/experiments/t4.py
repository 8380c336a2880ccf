"""Experiment T4 — Theorem 4's shape: the broomstick costs little.

Theorem 4: for any tree ``T`` and its broomstick ``T'``,
``OPT_{T'} ≤ O(1/ε³) · OPT_T`` when ``T'`` is granted ``(1+ε)``
augmentation on root-adjacent nodes and ``(1+ε)²`` below.  Measured
shape: the LP optimum on the augmented broomstick divided by the LP
optimum on the original tree is a modest constant (and usually close to
1 — the augmentation largely pays for the two extra hops).

The grid runs one trial per tree: each trial solves ``LP(T)`` once and
``LP(T')`` per ε, so the expensive original-tree solve is never
repeated across the ε sweep.

Pass criterion: the ratio stays at most ``ratio_budget`` on every small
instance and ε; finite and positive always.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    seed=4,
    eps_values=(0.25, 0.5),
    ratio_budget=4.0,
)

_TREES = ("kary(2,2)", "figure1", "random(10)")


def _small_instance(name: str, seed: int):
    from repro.network.builders import figure1_tree, kary_tree, random_tree
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet

    if name == "kary(2,2)":
        tree = kary_tree(2, 2)
    elif name == "figure1":
        tree = figure1_tree()
    else:
        tree = random_tree(10, rng=seed)
    releases = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    sizes = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0]
    return Instance(tree, JobSet.build(releases, sizes), Setting.IDENTICAL, name=name)


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "T4",
            name,
            {"tree": name, "seed": p["seed"], "eps_values": tuple(p["eps_values"])},
        )
        for name in _TREES
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.lp.primal import solve_primal_lp
    from repro.network.broomstick import reduce_to_broomstick
    from repro.sim.speed import SpeedProfile

    q = spec.params
    instance = _small_instance(q["tree"], q["seed"])
    lp_t = solve_primal_lp(instance, SpeedProfile.uniform(1.0))
    reduction = reduce_to_broomstick(instance.tree)
    shadow = instance.on_broomstick(reduction)
    rows = []
    for eps in q["eps_values"]:
        lp_tp = solve_primal_lp(shadow, SpeedProfile.theorem4_opt(eps))
        rows.append({"eps": eps, "lp_tp": lp_tp.objective})
    return {"lp_t": lp_t.objective, "rows": rows}


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    ratio_budget = p["ratio_budget"]
    cells = {s.params["tree"]: payload for s, payload in outcomes}
    table = Table(
        "T4: LP optimum on augmented broomstick vs original tree",
        ["tree", "eps", "LP(T)", "LP(T', augmented)", "ratio", "budget"],
    )
    worst = 0.0
    ok = True
    for name in _TREES:
        payload = cells[name]
        lp_t = payload["lp_t"]
        for row in payload["rows"]:
            eps, lp_tp = row["eps"], row["lp_tp"]
            ratio = lp_tp / lp_t if lp_t > 0 else float("inf")
            table.add_row(name, eps, lp_t, lp_tp, ratio, ratio_budget)
            worst = max(worst, ratio)
            if not (0.0 < ratio <= ratio_budget):
                ok = False
    return ExperimentResult(
        exp_id="T4",
        title="broomstick reduction preserves the optimum",
        claim="OPT_{T'} <= O(1/eps^3) OPT_T under the stated augmentation (Thm 4)",
        table=table,
        metrics={"worst_opt_ratio": worst},
        passed=ok,
        notes=(
            "LP(T) at unit speeds is the OPT proxy on the original tree; "
            "LP(T') uses Theorem 4's augmentation ((1+eps) on root-adjacent, "
            f"(1+eps)^2 below). Pass: ratio in (0, {ratio_budget}] everywhere."
        ),
    )


register_grid(
    "T4", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
