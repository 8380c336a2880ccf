"""Experiment F1 — Figure 1: the tree network model, reproduced.

The paper's Figure 1 illustrates the model: a root distribution centre,
router layers, and machines at the leaves, with jobs flowing down.  This
experiment reconstructs an equivalent topology, renders it, and walks a
small trace through the paper algorithm so the model's mechanics (store
-and-forward, per-node SJF, immediate dispatch) are visible job by job.

The grid degenerates to a single trial (one deterministic walkthrough);
it is registered as a grid anyway so the runner's sharded path covers it.

Pass criterion: structural facts of the figure hold (root does not
process, no leaf adjacent to root, ≥ 2 subtrees) and the walkthrough
completes every job with availability chains matching the model.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(eps=0.5)


def _trials(p: dict) -> list[TrialSpec]:
    return [TrialSpec("F1", "walkthrough", {"eps": p["eps"]})]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.core.scheduler import run_paper_algorithm
    from repro.network.builders import figure1_tree
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet

    tree = figure1_tree()
    releases = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    sizes = [2.0, 1.0, 1.0, 2.0, 1.0, 1.0]
    instance = Instance(
        tree, JobSet.build(releases, sizes), Setting.IDENTICAL, name="figure1"
    )
    result = run_paper_algorithm(instance, spec.params["eps"])

    rows = []
    chains_ok = True
    for jid in sorted(result.records):
        rec = result.records[jid]
        job = instance.jobs.by_id(jid)
        path_names = ">".join(tree.node(v).label() for v in rec.path)
        rows.append(
            (
                jid, job.release, job.size, tree.node(rec.leaf).label(),
                path_names, rec.completion, rec.flow_time,
            )
        )
        for i in range(len(rec.path) - 1):
            if abs(rec.available_at[i + 1] - rec.completed_at[i]) > 1e-9:
                chains_ok = False

    structural_ok = (
        len(tree.root_children) >= 2
        and all(not tree.node(v).is_leaf for v in tree.root_children)
        and tree.num_leaves >= 4
    )
    return {
        "rows": rows,
        "chains_ok": chains_ok,
        "structural_ok": structural_ok,
        "num_nodes": tree.num_nodes,
        "num_leaves": tree.num_leaves,
        "ascii": tree.render_ascii(),
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    (_, d), = outcomes
    table = Table(
        "F1: trace walkthrough on the Figure-1 topology",
        ["job", "release", "size", "leaf", "path", "completion", "flow"],
    )
    for row in d["rows"]:
        table.add_row(*row)
    passed = d["structural_ok"] and d["chains_ok"]
    return ExperimentResult(
        exp_id="F1",
        title="Figure 1 — the tree network model",
        claim="root distributes, routers forward store-and-forward, leaves process (Fig 1, Sec 2)",
        table=table,
        metrics={
            "num_nodes": float(d["num_nodes"]),
            "num_leaves": float(d["num_leaves"]),
        },
        passed=passed,
        notes="Topology:\n" + d["ascii"],
    )


register_grid(
    "F1", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
