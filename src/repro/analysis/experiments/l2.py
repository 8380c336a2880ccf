"""Experiment L2 — Lemma 2's available-volume bound.

Lemma 2: at any time, at any identical node ``v`` not adjacent to the
root, the remaining volume of *available* higher-priority work (relative
to a job ``j`` that still needs ``v``) is at most ``(2/ε)·p_j``.
The audit attaches an :class:`~repro.sim.engine.EngineSink` to the
engine and, after every event, evaluates the quantity for every alive
job at its current node.

The grid runs one trial per ε (each trial is one observed engine run).

Pass criterion: the maximum observed volume, normalised by ``p_j``,
never exceeds ``2/ε`` (plus class-rounding tolerance).
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    seed=6,
    eps_values=(0.25, 0.5),
)


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec("L2", f"eps={eps!r}", {"eps": eps, "seed": p["seed"]})
        for eps in p["eps_values"]
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.analysis.experiments.workloads import burst_instance
    from repro.core.assignment import GreedyIdenticalAssignment
    from repro.core.potential import higher_priority_volume
    from repro.network.builders import star_of_paths
    from repro.sim.engine import Engine, EngineSink
    from repro.sim.speed import SpeedProfile

    eps = spec.params["eps"]
    tree = star_of_paths(3, 4)
    instance = burst_instance(
        tree, num_bursts=3, jobs_per_burst=10, gap=20.0, seed=spec.params["seed"]
    ).rounded(eps)
    speeds = SpeedProfile.lemma1(eps)
    state = {"max_norm": 0.0, "checks": 0}
    top_tier = set(tree.root_children)

    class Audit(EngineSink):  # every post-event state, once
        def attach(self, engine: Engine) -> None:
            self.view = engine.view

        def before_advance(self, t: float) -> None:
            view = self.view
            for jid in view.alive_jobs():
                node = view.current_node_of(jid)
                if node is None or node in top_tier:
                    continue
                vol = higher_priority_volume(view, jid, node)
                p_j = view.job(jid).size
                state["max_norm"] = max(state["max_norm"], vol / p_j)
                state["checks"] += 1

        finalize = before_advance

    Engine(instance, GreedyIdenticalAssignment(eps), speeds, sink=Audit()).run()
    return {"max_norm": state["max_norm"], "checks": state["checks"]}


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {s.params["eps"]: d for s, d in outcomes}
    table = Table(
        "L2: max available higher-priority volume at interior nodes / p_j",
        ["eps", "max_norm_volume", "bound(2/eps)", "events_checked"],
    )
    ok = True
    worst_fraction = 0.0
    for eps in p["eps_values"]:
        d = cells[eps]
        bound = 2.0 / eps
        table.add_row(eps, d["max_norm"], bound, d["checks"])
        worst_fraction = max(worst_fraction, d["max_norm"] / bound)
        if d["max_norm"] > bound * (1.0 + 1e-9):
            ok = False
    return ExperimentResult(
        exp_id="L2",
        title="available higher-priority volume bound (Lemma 2)",
        claim="available higher-priority volume at interior identical nodes <= (2/eps) p_j (Lem 2)",
        table=table,
        metrics={"worst_fraction_of_bound": worst_fraction},
        passed=ok,
        notes=(
            "Checked at every engine event for every alive job at its current "
            "node (below the top tier). Pass: never exceeds 2/eps."
        ),
    )


register_grid(
    "L2", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
