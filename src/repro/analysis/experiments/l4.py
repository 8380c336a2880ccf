"""Experiment L4 — Lemma 4's per-phase waiting bounds.

Lemma 4 (broomsticks): if job ``j`` is assigned to leaf ``v`` at time
``t`` and **no more jobs arrive**, then ``j`` waits at most

* ``(1/s) Σ_{J_i ∈ S_{R(v),j}(t)} p^A_{i,R(v)}(t)`` while available on
  the root-adjacent node (speed ``s`` there),
* ``(6/ε²)·p_j·d_v`` on interior identical nodes,
* ``(1/(s(1+ε))) Σ_{J_i ∈ S_{v,j}(t)} p^A_{i,v}(t)`` while available on
  the leaf (speed ``s(1+ε)`` there).

The no-more-arrivals hypothesis is honoured by auditing the *last*
arriving job of single-burst workloads: its three measured phase waits
must sit below the bounds recorded at its arrival instant.

The grid runs one trial per seed (each a full engine run with the
recording policy wrapper).

Pass criterion: for every seed, every phase of the last job respects its
bound.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table
from repro.sim.engine import SchedulerView
from repro.workload.job import Job

_DEFAULTS = dict(
    n=30,
    eps=0.5,
    seeds=(0, 1, 2, 3),
)


class _Lemma4Recorder:
    """Wraps the greedy policy; at the probe job's arrival records the
    S-set volumes at the chosen leaf's top router and at the leaf."""

    def __init__(self, inner, probe_id: int) -> None:
        self.inner = inner
        self.probe_id = probe_id
        self.top_volume = 0.0
        self.leaf_volume = 0.0
        self.leaf: int | None = None

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        from repro.core.fvalues import s_set_volume

        leaf = self.inner.assign(view, job, now)
        if job.id == self.probe_id:
            self.leaf = leaf
            top = view.tree.top_router(leaf)
            self.top_volume = s_set_volume(view, job, top)
            self.leaf_volume = s_set_volume(view, job, leaf)
        return leaf


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec("L4", f"seed={seed}", {"seed": seed, "n": p["n"], "eps": p["eps"]})
        for seed in p["seeds"]
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.core.assignment import GreedyIdenticalAssignment
    from repro.network.builders import broomstick_tree
    from repro.sim.engine import Engine
    from repro.sim.metrics import waiting_decomposition
    from repro.sim.speed import SpeedProfile
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet
    from repro.workload.sizes import geometric_class_sizes

    q = spec.params
    n, eps, seed = q["n"], q["eps"], q["seed"]
    tree = broomstick_tree(2, 4, 2)
    # Lemma 4's speeds: s on the top tier, s(1+eps) below; use s = 1+eps.
    s = 1.0 + eps
    speeds = SpeedProfile(root_children=s, interior=s * (1 + eps), leaves=s * (1 + eps))
    sizes = geometric_class_sizes(n, eps, num_classes=3, rng=seed)
    jobs = JobSet.build([0.0] * n, sizes)  # single burst; ids order arrivals
    instance = Instance(tree, jobs, Setting.IDENTICAL)
    probe = n - 1  # the last-arriving job: nothing arrives after it
    recorder = _Lemma4Recorder(GreedyIdenticalAssignment(eps), probe)
    result = Engine(instance, recorder, speeds).run()
    assert recorder.leaf is not None
    breakdown = waiting_decomposition(result, probe)
    job = jobs.by_id(probe)
    d_v = instance.tree.d(recorder.leaf)
    return {
        "wait_top": breakdown.at_top,
        "bound_top": recorder.top_volume / s,
        "wait_interior": breakdown.interior,
        "bound_interior": 6.0 / (eps * eps) * job.size * d_v,
        "wait_leaf": breakdown.at_leaf,
        "bound_leaf": recorder.leaf_volume / (s * (1 + eps)),
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {s.params["seed"]: d for s, d in outcomes}
    table = Table(
        "L4: last-job phase waits vs Lemma 4 bounds",
        [
            "seed", "wait_top", "bound_top", "wait_interior",
            "bound_interior", "wait_leaf", "bound_leaf", "ok",
        ],
    )
    ok = True
    worst_frac = 0.0
    for seed in p["seeds"]:
        d = cells[seed]
        row_ok = (
            d["wait_top"] <= d["bound_top"] + 1e-9
            and d["wait_interior"] <= d["bound_interior"] + 1e-9
            and d["wait_leaf"] <= d["bound_leaf"] + 1e-9
        )
        for measured, bound in (
            (d["wait_top"], d["bound_top"]),
            (d["wait_interior"], d["bound_interior"]),
            (d["wait_leaf"], d["bound_leaf"]),
        ):
            if bound > 0:
                worst_frac = max(worst_frac, measured / bound)
        table.add_row(
            seed, d["wait_top"], d["bound_top"], d["wait_interior"],
            d["bound_interior"], d["wait_leaf"], d["bound_leaf"], row_ok,
        )
        ok = ok and row_ok
    return ExperimentResult(
        exp_id="L4",
        title="per-phase waiting bounds for the assigned job (Lemma 4)",
        claim="waits: S-volume/s at R(v); (6/eps^2) p_j d_v interior; S-volume/(s(1+eps)) at leaf (Lem 4)",
        table=table,
        metrics={"worst_fraction_of_bound": worst_frac},
        passed=ok,
        notes=(
            "Single-burst workloads; the last job's suffix is arrival-free, "
            "honouring the lemma's hypothesis. Pass: every phase of the last "
            "job within its bound on every seed."
        ),
    )


register_grid(
    "L4", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
