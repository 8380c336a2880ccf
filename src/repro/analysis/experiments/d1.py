"""Experiment D1 — the dual fitting of Sections 3.5/3.6, verified.

For runs of the broomstick algorithm the paper exhibits dual variables
that (a) become feasible for LP-Dual after scaling by ``ε²/10``
(identical) or ``ε²/20`` (unrelated) and (b) keep the dual objective an
``Ω(ε)`` fraction of the algorithm's fractional cost — together yielding
the competitive ratio.  :mod:`repro.lp.duals_paper` constructs exactly
those variables from a recorded run; this experiment checks both halves
across workloads, settings, and ε, and additionally audits weak duality
(scaled dual objective ≤ LP*) on instances small enough to solve.

The grid runs one trial per (ε, setting) — the registry's most
expensive cells (certificate construction plus an exact LP solve), so
sharding them across workers is where the wall-clock win lives.

Pass criterion: every certificate verifies (max constraint violation
≤ 1e-7), every dual objective is positive, and weak duality holds
wherever the LP was solved.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    n=25,
    seed=9,
    eps_values=(0.25, 0.5),
)

_SETTINGS = ("identical", "unrelated")


def geometric_round(p: float, eps: float) -> float:
    """Round one value up to a ``(1+ε)`` power (scalar helper)."""
    import math

    if math.isinf(p):
        return p
    k = math.ceil(math.log(p) / math.log1p(eps) - 1e-12)
    return (1.0 + eps) ** k


def _instance_for(setting: str, n: int, seed: int, eps: float):
    from repro.network.builders import broomstick_tree
    from repro.workload.arrivals import poisson_arrivals
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet
    from repro.workload.sizes import geometric_class_sizes
    from repro.workload.unrelated import affinity_matrix

    tree = broomstick_tree(2, 3, 2)
    sizes = geometric_class_sizes(n, eps, num_classes=3, rng=seed)
    releases = poisson_arrivals(n, rate=1.2, rng=seed + 1)
    if setting == "identical":
        return Instance(tree, JobSet.build(releases, sizes), Setting.IDENTICAL)
    rows = affinity_matrix(tree.leaves, sizes, rng=seed + 2)
    rows = [
        {v: float(geometric_round(p, eps)) for v, p in row.items()} for row in rows
    ]
    return Instance(tree, JobSet.build(releases, sizes, rows), Setting.UNRELATED)


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "D1",
            f"eps={eps!r}|{setting}",
            {"eps": eps, "setting": setting, "n": p["n"], "seed": p["seed"]},
        )
        for eps in p["eps_values"]
        for setting in _SETTINGS
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.exceptions import LPError
    from repro.lp.duals_paper import build_dual_certificate
    from repro.lp.primal import solve_primal_lp
    from repro.sim.speed import SpeedProfile

    q = spec.params
    instance = _instance_for(q["setting"], q["n"], q["seed"], q["eps"])
    cert = build_dual_certificate(instance, q["eps"])
    lp_star = float("nan")
    weak = "n/a"
    weak_ok = True
    try:
        lp = solve_primal_lp(instance, SpeedProfile.uniform(1.0))
        lp_star = lp.objective
        weak_ok = cert.dual_objective_scaled <= lp_star * (1 + 1e-6) + 1e-6
        weak = "ok" if weak_ok else "VIOLATED"
    except LPError:
        pass
    return {
        "max_violation": cert.max_violation,
        "dual_obj_scaled": cert.dual_objective_scaled,
        "alg_cost": cert.alg_fractional_cost,
        "beta_cost_ratio": cert.beta_cost_ratio,
        "lp_star": lp_star,
        "weak": weak,
        "weak_ok": weak_ok,
        "feasible": cert.is_feasible(),
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {(s.params["eps"], s.params["setting"]): d for s, d in outcomes}
    table = Table(
        "D1: dual-fitting certificates on the broomstick algorithm",
        [
            "setting", "eps", "max_violation", "dual_obj_scaled",
            "alg_cost", "beta/cost", "LP*", "weak_duality",
        ],
    )
    ok = True
    worst_violation = 0.0
    for eps in p["eps_values"]:
        for setting in _SETTINGS:
            d = cells[(eps, setting)]
            worst_violation = max(worst_violation, d["max_violation"])
            ok = ok and d["weak_ok"]
            table.add_row(
                setting, eps, d["max_violation"], d["dual_obj_scaled"],
                d["alg_cost"], d["beta_cost_ratio"], d["lp_star"], d["weak"],
            )
            if not d["feasible"] or d["dual_obj_scaled"] <= 0:
                ok = False
    return ExperimentResult(
        exp_id="D1",
        title="dual-fitting feasibility and objective (Sections 3.5/3.6)",
        claim="scaled duals are LP-Dual feasible; dual objective is Omega(eps) x alg cost",
        table=table,
        metrics={"worst_constraint_violation": worst_violation},
        passed=ok,
        notes=(
            "Certificates check constraints (4)-(6) at all releases, all "
            "completions, and a uniform grid. weak_duality compares the scaled "
            "dual objective to the exactly solved LP* where tractable."
        ),
    )


register_grid(
    "D1", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
