"""Experiment X5 — dynamic events: competitiveness on the realized instance.

The paper's model is static: the tree and the job set are fixed up
front.  The dynamic-events engine (``docs/dynamic-events.md``) relaxes
that with node breakdowns/repairs, job cancellations, and
size-revelation-on-completion.  None of the paper's guarantees speak to
this regime, so the natural empirical question is *robustness*: does
the greedy's advantage over congestion-oblivious baselines survive a
deterministic storm of outages and cancellations?

Methodology.  Each policy runs the same workload twice — event-free,
and under a fixed event deck (two staggered outages covering a leaf and
an interior router, plus cancellations of every 7th job mid-flight).
The yardstick on an event-bearing run is the LP lower bound of the
**realized instance**: the input restricted to the jobs that were not
cancelled in that run.  The bound assumes clairvoyance, full capacity
(no outages) and charges nothing for work sunk into cancelled jobs, so
it only *under*-estimates the realized optimum — the reported ratios
are conservative upper bounds on true competitiveness.  (Which cancels
take effect can differ by policy: a cancel aimed at an already-finished
job is a no-op, so the realized instance is per-run, not global.)

Pass criterion: no run loses a job (completed + cancelled == n), the
deck's cancellations take effect under every policy, the greedy's ratio
under events stays within 1.5x its static ratio, and under events the
greedy still beats closest-leaf on realized total flow time.  (The runs
get the theorem's augmented speed while the bound is at unit speed, so
ratios below 1 are possible — same convention as X4.)
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.experiments.grid import TrialSpec, register_grid
from repro.analysis.tables import Table

_DEFAULTS = dict(
    n=60,
    seed=17,
    eps=0.25,
    load=0.9,
    speed=1.25,
    cancel_every=7,
)

_POLICY_NAMES = ("greedy", "closest", "random", "least-loaded", "round-robin")
_SCENARIOS = ("static", "events")


def _event_deck(instance, tree, cancel_every: int):
    """A deterministic storm scaled to the instance's release span."""
    from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp

    horizon = max(job.release for job in instance.jobs)
    leaf = tree.leaves[0]
    router = tree.parent(leaf)
    plans = [
        NodeDown(0.20 * horizon, leaf),
        NodeUp(0.45 * horizon, leaf),
        NodeDown(0.55 * horizon, router),
        NodeUp(0.75 * horizon, router),
    ]
    for job in instance.jobs:
        if job.id % cancel_every == 3:
            # Shortly after release, so mid-flight jobs really are
            # withdrawn rather than the cancel arriving post-completion.
            plans.append(Cancel(job.release + 1.5, job.id))
    schedule = EventSchedule(plans)
    schedule.validate_for(instance)
    return schedule


def _trials(p: dict) -> list[TrialSpec]:
    return [
        TrialSpec(
            "X5",
            f"{scenario}|{pname}",
            {
                "scenario": scenario,
                "policy": pname,
                "n": p["n"],
                "seed": p["seed"],
                "eps": p["eps"],
                "load": p["load"],
                "speed": p["speed"],
                "cancel_every": p["cancel_every"],
            },
        )
        for scenario in _SCENARIOS
        for pname in _POLICY_NAMES
    ]


def _run_trial(spec: TrialSpec) -> dict:
    from repro.analysis.experiments.workloads import identical_instance
    from repro.api import _resolve_policy
    from repro.analysis.ratios import lower_bound_for
    from repro.network.builders import datacenter_tree
    from repro.sim.backends import simulate
    from repro.sim.speed import SpeedProfile
    from repro.workload.instance import Instance

    q = spec.params
    tree = datacenter_tree(2, 2, 3)
    instance = identical_instance(
        tree, q["n"], load=q["load"], size_kind="bimodal", seed=q["seed"]
    )
    events = (
        _event_deck(instance, tree, q["cancel_every"])
        if q["scenario"] == "events"
        else None
    )
    result = simulate(
        instance,
        _resolve_policy(q["policy"], instance, q["eps"], q["seed"]),
        speeds=SpeedProfile.uniform(q["speed"]),
        events=events,
    )
    cancelled_ids = set(result.cancelled_records())
    realized = Instance(
        tree,
        type(instance.jobs)(
            [job for job in instance.jobs if job.id not in cancelled_ids]
        ),
        instance.setting,
        name=f"{instance.name}|realized",
    )
    total_flow = float(result.flow_times().sum())
    bound, bound_name = lower_bound_for(realized)
    return {
        "completed": len(result.completed_records()),
        "cancelled": len(cancelled_ids),
        "total_flow": total_flow,
        "bound": bound,
        "bound_name": bound_name,
        "ratio": total_flow / bound,
    }


def _reduce(p: dict, outcomes: list[tuple[TrialSpec, dict]]) -> ExperimentResult:
    cells = {(s.params["scenario"], s.params["policy"]): d for s, d in outcomes}
    table = Table(
        "X5: realized total flow vs the LP bound of the realized instance",
        [
            "scenario",
            "policy",
            "completed",
            "cancelled",
            "total_flow",
            "lp_bound",
            "ratio",
        ],
    )
    for scenario in _SCENARIOS:
        for pname in _POLICY_NAMES:
            d = cells[(scenario, pname)]
            table.add_row(
                scenario,
                pname,
                d["completed"],
                d["cancelled"],
                d["total_flow"],
                d["bound"],
                d["ratio"],
            )

    n = p["n"]
    conserved = all(
        d["completed"] + d["cancelled"] == n for d in cells.values()
    )
    storm_bites = all(
        cells[("events", pname)]["cancelled"] > 0 for pname in _POLICY_NAMES
    )
    greedy = cells[("events", "greedy")]
    closest = cells[("events", "closest")]
    robust = greedy["ratio"] <= 1.5 * cells[("static", "greedy")]["ratio"]
    passed = (
        conserved
        and storm_bites
        and robust
        and greedy["total_flow"] <= closest["total_flow"]
    )
    return ExperimentResult(
        exp_id="X5",
        title="dynamic events: competitiveness on the realized instance",
        claim=(
            "(extension) the greedy's advantage is robust to breakdowns and "
            "cancellations the paper's static model excludes"
        ),
        table=table,
        metrics={
            "greedy_ratio_static": cells[("static", "greedy")]["ratio"],
            "greedy_ratio_events": greedy["ratio"],
            "closest_over_greedy_events": (
                closest["total_flow"] / greedy["total_flow"]
            ),
        },
        passed=passed,
        notes=(
            "The bound is the LP lower bound of the *realized* instance "
            "(cancelled jobs removed, outages and sunk work uncharged) at "
            "unit speed, while the runs get the theorem's augmented speed — "
            "ratios below 1 are therefore possible, as in X4.  Pass: every "
            "job is accounted for (completed + cancelled == n), the storm "
            "cancels at least one job under every policy, the greedy's "
            "ratio under events stays within 1.5x its static ratio, and the "
            "greedy still beats closest-leaf on realized total flow."
        ),
    )


register_grid(
    "X5", defaults=_DEFAULTS, trials=_trials, run_trial=_run_trial, reduce=_reduce
)
