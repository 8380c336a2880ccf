"""Experiment T5 — Theorems 5/6 directly: fractional flow on broomsticks
at the paper's exact speed profiles.

Theorem 5: on broomsticks with identical nodes, the greedy algorithm at
``(1+ε)`` speed on root-adjacent nodes and ``(1+ε)²`` below is
``O(1/ε³)``-competitive for *fractional* flow time.  Theorem 6 is the
unrelated analogue at doubled speeds with ``O(1/ε³)``.

This experiment measures exactly those ratios — fractional flow of the
broomstick algorithm at the theorem's asymmetric profile, divided by
the unit-speed LP optimum — across ε and workloads, and reports them
next to the dual-fitting guarantee ``10/ε³`` (resp. ``20/ε³``).

The grid runs one trial per (ε, setting) cell — each an independent
algorithm run plus LP solve, so the four LP solves shard across
workers instead of running back to back.

Pass criterion: every measured ratio is positive, finite, and below the
theorem's explicit constant (with large slack — adversarial inputs, not
random ones, realise the worst case).
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    n=18,
    seed=16,
    eps_values=(0.25, 0.5),
)

_SETTINGS = ("identical", "unrelated")


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "T5",
            f"eps={eps!r}|{setting}",
            {"eps": eps, "setting": setting, "n": p["n"], "seed": p["seed"]},
        )
        for eps in p["eps_values"]
        for setting in _SETTINGS
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.core.scheduler import run_broomstick_algorithm
    from repro.lp.primal import solve_primal_lp
    from repro.network.builders import broomstick_tree
    from repro.sim.speed import SpeedProfile
    from repro.workload.arrivals import poisson_arrivals
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet
    from repro.workload.sizes import geometric_class_sizes
    from repro.workload.unrelated import uniform_speed_matrix

    q = spec.params
    n, seed, eps = q["n"], q["seed"], q["eps"]
    tree = broomstick_tree(2, 3, 1)
    sizes = geometric_class_sizes(n, eps, num_classes=3, rng=seed)
    releases = poisson_arrivals(n, rate=1.0, rng=seed + 1)
    if q["setting"] == "identical":
        instance = Instance(tree, JobSet.build(releases, sizes), Setting.IDENTICAL)
        speeds = SpeedProfile.theorem1(eps)
        constant = 10.0 / eps**3
    else:
        rows = uniform_speed_matrix(tree.leaves, sizes, 0.5, 1.0, rng=seed + 2)
        instance = Instance(
            tree, JobSet.build(releases, sizes, rows), Setting.UNRELATED
        ).rounded(eps)
        speeds = SpeedProfile.theorem2(eps)
        constant = 20.0 / eps**3
    result = run_broomstick_algorithm(instance, eps, speeds)
    lp = solve_primal_lp(instance, SpeedProfile.uniform(1.0))
    return {
        "frac": result.fractional_flow,
        "lp": lp.objective,
        "constant": constant,
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {(s.params["eps"], s.params["setting"]): d for s, d in outcomes}
    table = Table(
        "T5: fractional flow ratio at the theorem speed profiles vs LP*",
        ["setting", "eps", "frac_flow", "LP*", "ratio", "theorem_constant"],
    )
    ok = True
    worst = 0.0
    for eps in p["eps_values"]:
        for setting in _SETTINGS:
            d = cells[(eps, setting)]
            ratio = d["frac"] / d["lp"] if d["lp"] > 0 else float("inf")
            table.add_row(setting, eps, d["frac"], d["lp"], ratio, d["constant"])
            worst = max(worst, ratio)
            if not (0.0 < ratio <= d["constant"]):
                ok = False
    return ExperimentResult(
        exp_id="T5",
        title="fractional competitiveness on broomsticks (Theorems 5/6)",
        claim="(1+eps)/(2+eps)-speed O(1/eps^3)-competitive for fractional flow on broomsticks",
        table=table,
        metrics={"worst_fractional_ratio": worst},
        passed=ok,
        notes=(
            "ratio = alg fractional flow at the theorem's asymmetric speeds "
            "divided by the unit-speed LP optimum; theorem_constant is the "
            "dual-fitting guarantee (10/eps^3 identical, 20/eps^3 unrelated). "
            "Pass: every ratio in (0, constant]."
        ),
    )


register_grid(
    "T5", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
