"""Experiment T2 — Theorem 2's shape: unrelated endpoints.

Theorem 2 claims a ``(2+ε)``-speed ``O(1/ε⁷)``-competitive algorithm for
identical routers and *unrelated* machines.  The measured shape:

* the ratio stabilises to a modest constant once the speed clears
  ``≈ 2``, while at unit speed structured affinity workloads hurt;
* the greedy rule beats congestion-oblivious baselines (closest/fastest
  leaf) on partitioned matrices, where following the fast machine blindly
  congests one subtree.

The sweep is a trial grid over (tree, matrix, policy, speed, seed); the
memoized lower-bound service collapses the per-cell bound solves down to
one per distinct (tree, matrix, seed) instance.

Pass criterion: the paper algorithm's fractional ratio at the top swept
speed stays within ``ratio_budget`` and at speed ``≥ 2.2`` it beats the
closest-leaf baseline in aggregate.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.experiments.workloads import standard_trees, unrelated_instance
from repro.analysis.ratios import competitive_report, lower_bound_cached
from repro.analysis.stats import summarize
from repro.analysis.tables import Table

_SPEEDS = (1.0, 1.5, 2.0, 2.2, 3.0)

_DEFAULTS = dict(
    n=50,
    load=0.75,
    eps=0.25,
    seeds=(2, 3, 4),
    speeds=_SPEEDS,
    ratio_budget=10.0,
)

_TREES = ("kary(2,3)", "paths(3,3)", "datacenter(2,2,3)")
_MATRICES = ("affinity", "partition")
_POLICIES = (("paper", "paper-greedy"), ("closest", "closest-leaf"))


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "T2",
            f"{tree_name}|{matrix}|{policy}|s={speed!r}|seed={seed}",
            {
                "tree": tree_name,
                "matrix": matrix,
                "policy": policy,
                "speed": speed,
                "seed": seed,
                "n": p["n"],
                "load": p["load"],
                "eps": p["eps"],
            },
        )
        for tree_name in _TREES
        for matrix in _MATRICES
        for speed in p["speeds"]
        for policy, _ in _POLICIES
        for seed in p["seeds"]
    ]


def _run_trial(spec: TrialSpec) -> float:
    from repro.baselines.policies import ClosestLeafAssignment
    from repro.core.scheduler import run_paper_algorithm
    from repro.sim.backends import simulate
    from repro.sim.speed import SpeedProfile

    q = spec.params
    tree = standard_trees()[q["tree"]]
    instance = unrelated_instance(
        tree, q["n"], load=q["load"], matrix=q["matrix"], seed=q["seed"],
        name=q["tree"],
    )
    bound = lower_bound_cached(instance, prefer_lp=False)
    profile = SpeedProfile.uniform(q["speed"])
    if q["policy"] == "paper":
        result = run_paper_algorithm(instance, q["eps"], profile)
    else:
        result = simulate(instance, ClosestLeafAssignment(), speeds=profile)
    return competitive_report(
        q["policy"], instance, result, lower_bound=bound
    ).fractional_ratio


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, float]]) -> ExperimentResult:
    seeds = tuple(p["seeds"])
    speeds = tuple(p["speeds"])
    cells: dict[tuple[str, str, str, float, int], float] = {}
    for spec, ratio in outcomes:
        q = spec.params
        cells[(q["tree"], q["matrix"], q["policy"], q["speed"], q["seed"])] = ratio

    table = Table(
        f"T2: unrelated endpoints — ratio vs lower bound (mean over {len(seeds)} seeds)",
        ["tree", "matrix", "policy", "speed", "ratio_mean", "ratio_ci"],
    )
    worst_top = 0.0
    agg_paper = 0.0
    agg_closest = 0.0
    for tree_name in _TREES:
        for matrix in _MATRICES:
            for s in speeds:
                means: dict[str, float] = {}
                for policy, label in _POLICIES:
                    values = [
                        cells[(tree_name, matrix, policy, s, seed)] for seed in seeds
                    ]
                    if len(seeds) >= 2:
                        rep = summarize(values)
                        mean, ci = rep.mean, rep.half_width
                    else:
                        mean, ci = values[0], 0.0
                    means[policy] = mean
                    table.add_row(tree_name, matrix, label, s, mean, ci)
                if s == max(speeds):
                    worst_top = max(worst_top, means["paper"])
                if s >= 2.2:
                    agg_paper += means["paper"]
                    agg_closest += means["closest"]

    passed = worst_top <= p["ratio_budget"] and agg_paper <= agg_closest
    return ExperimentResult(
        exp_id="T2",
        title="unrelated endpoints: (2+eps)-speed competitiveness",
        claim="(2+eps)-speed O(1/eps^7)-competitive with unrelated machines (Thm 2)",
        table=table,
        metrics={
            "worst_ratio_at_top_speed": worst_top,
            "aggregate_paper_ratio_fast": agg_paper,
            "aggregate_closest_ratio_fast": agg_closest,
        },
        passed=passed,
        notes=(
            "Pass: worst paper ratio at the top speed <= "
            f"{p['ratio_budget']} and, summed over configurations at speeds >= 2.2, "
            "the paper algorithm's ratio is no worse than closest-leaf's."
        ),
    )


register_grid(
    "T2", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
