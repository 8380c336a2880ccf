"""Experiment L3 — Lemma 3's potential function.

Lemma 3: for a job available on a node below the top tier, the potential
``Φ_j(t)`` upper-bounds the remaining time until the job clears its last
identical node, *provided no further jobs arrive*; moreover ``Φ_j``
never increases in arrival-free time.  The audit snapshots ``Φ_j`` at
every event after the final arrival and checks both properties against
the realised schedule.

The grid runs one trial per ε (each trial is one observed engine run).

Pass criterion: ``Φ_j(t) ≥ (realised clear time − t)`` at every snapshot
and the per-job snapshot sequence is non-increasing (to tolerance).
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    seed=7,
    eps_values=(0.25, 0.5),
)


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec("L3", f"eps={eps!r}", {"eps": eps, "seed": p["seed"]})
        for eps in p["eps_values"]
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.analysis.experiments.workloads import burst_instance
    from repro.core.assignment import GreedyIdenticalAssignment
    from repro.core.potential import phi_potential
    from repro.network.builders import star_of_paths
    from repro.sim.engine import Engine, EngineSink
    from repro.sim.speed import SpeedProfile

    eps = spec.params["eps"]
    tree = star_of_paths(3, 4)
    instance = burst_instance(
        tree, num_bursts=2, jobs_per_burst=12, gap=40.0, seed=spec.params["seed"]
    ).rounded(eps)
    last_release = instance.jobs.time_horizon()
    speeds = SpeedProfile.lemma1(eps)
    top_tier = set(tree.root_children)
    snapshots: list[tuple[int, float, float]] = []  # (job, t, phi)

    class Snapshots(EngineSink):  # every post-event state, once
        def attach(self, engine: Engine) -> None:
            self.view = engine.view

        def before_advance(self, t: float) -> None:
            view = self.view
            if view.now < last_release:
                return
            for jid in view.alive_jobs():
                node = view.current_node_of(jid)
                if node is None or node in top_tier:
                    continue
                snapshots.append((jid, view.now, phi_potential(view, jid, eps)))

        finalize = before_advance

    result = Engine(
        instance, GreedyIdenticalAssignment(eps), speeds, sink=Snapshots()
    ).run()

    # Realised time at which each job cleared its last identical node
    # (identical setting: its completion).
    clear_time = {jid: rec.completion for jid, rec in result.records.items()}
    min_slack = float("inf")
    last_phi: dict[int, float] = {}
    monotone_violations = 0
    for jid, t, phi in snapshots:
        residual = clear_time[jid] - t
        min_slack = min(min_slack, phi - residual)
        prev = last_phi.get(jid)
        # Φ decreases at unit rate between events; at the snapshot times
        # t1 < t2 this means phi(t2) <= phi(t1) is the lemma's guarantee.
        if prev is not None and phi > prev + 1e-7:
            monotone_violations += 1
        last_phi[jid] = phi
    return {
        "snapshots": len(snapshots),
        "min_slack": min_slack,
        "monotone_violations": monotone_violations,
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {s.params["eps"]: d for s, d in outcomes}
    table = Table(
        "L3: potential Phi_j vs realised residual interior time",
        ["eps", "snapshots", "min_slack", "monotone_violations"],
    )
    ok = True
    overall_min_slack = float("inf")
    for eps in p["eps_values"]:
        d = cells[eps]
        table.add_row(eps, d["snapshots"], d["min_slack"], d["monotone_violations"])
        overall_min_slack = min(overall_min_slack, d["min_slack"])
        if d["min_slack"] < -1e-7 or d["monotone_violations"]:
            ok = False
    return ExperimentResult(
        exp_id="L3",
        title="potential-function upper bound (Lemma 3)",
        claim="Phi_j(t) bounds residual time to clear identical nodes; non-increasing sans arrivals (Lem 3)",
        table=table,
        metrics={"min_slack": overall_min_slack},
        passed=ok,
        notes=(
            "Snapshots only after the final arrival (the lemma's hypothesis). "
            "Pass: slack = Phi - realised residual >= 0 at every snapshot and "
            "no per-job snapshot increases."
        ),
    )


register_grid(
    "L3", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
