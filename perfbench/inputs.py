"""Seeded inputs shared by the workloads and the fresh-interpreter set-up probe.

Every input a workload feeds the program comes from here and depends only
on the workload seed: the two batch instances, the event instance and its
dynamic-event deck, the arrival and size streams of the served session,
and the scrape schedule.  The program sees only the generated objects.

The shared parameters are those of experiment S1 (``BENCH_engine.json``):
a ``datacenter(3, 3, 4)`` tree, Poisson releases at bottleneck load 0.85,
speed 1.5 and eps 0.25, and all five policy names of ``repro.api``.
"""

from __future__ import annotations

import numpy as np

TREE_PARAMS = {"num_pods": 3, "racks_per_pod": 3, "machines_per_rack": 4}
LOAD = 0.85
SPEED = 1.5
EPS = 0.25
POLICIES = ("greedy", "closest", "random", "least-loaded", "round-robin")

#: Jobs per batch and events instance: on a 2-vCPU virtual machine a c
#: call takes 0.02 to 0.7 s, a python call 0.2 to 0.6 s.
BATCH_JOBS = 6000
EVENTS_JOBS = 6000
#: Jobs per served session: about 3900 windows of 10 time units, and a
#: session long enough for more than 100 scrapes at 40/s.
STREAM_JOBS = 40000
WINDOW = 10.0
SCRAPE_PERIOD_S = 0.025

#: The registry subset.  D1 and T5 are left out: they spend almost all of
#: their ~12 s in scipy's LP solver, which would drown the rest.
REGISTRY_IDS = ("T1", "T2", "X4", "X5")

#: Outage length as a share of the release horizon, and the X5 rules for
#: cancellations (every 7th job, 1.5 time units after its release).
OUTAGE_SHARE = 0.02
CANCEL_EVERY = 7
CANCEL_DELAY = 1.5
ESTIMATE_EVERY = 3


def sub_seed(seed: int, *path: int) -> int:
    """An independent 32-bit seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def build_tree():
    from repro import api

    return api.build_tree("datacenter", **TREE_PARAMS)


def batch_instances(seed: int, n_jobs: int = BATCH_JOBS) -> dict:
    """``{"identical": Instance, "unrelated": Instance}`` (Theorems 1 and 2)."""
    from repro import api

    tree = build_tree()
    return {
        "identical": api.make_instance(
            tree=tree, n_jobs=n_jobs, load=LOAD, seed=sub_seed(seed, 1),
            name="bench-identical",
        ),
        "unrelated": api.make_instance(
            tree=tree, n_jobs=n_jobs, load=LOAD, unrelated=True,
            seed=sub_seed(seed, 2), name="bench-unrelated",
        ),
    }


def events_instance(seed: int, n_jobs: int = EVENTS_JOBS):
    """The identical instance of the events workload: every third job
    carries a ``size_estimate``, lognormal noise around its true size."""
    from repro import api
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet

    tree = build_tree()
    base = api.make_instance(tree=tree, n_jobs=n_jobs, load=LOAD, seed=sub_seed(seed, 3))
    rng = np.random.default_rng(sub_seed(seed, 4))
    noise = np.exp(rng.normal(0.0, 0.3, size=len(base.jobs)))
    releases = [job.release for job in base.jobs]
    sizes = [job.size for job in base.jobs]
    estimates = [
        size * float(noise[i]) if i % ESTIMATE_EVERY == 0 else None
        for i, size in enumerate(sizes)
    ]
    return Instance(
        tree, JobSet.build(releases, sizes, size_estimates=estimates),
        Setting.IDENTICAL, name="bench-events",
    )


def event_deck(instance, seed: int):
    """Every leaf and every rack router goes down once for 2% of the
    release horizon, in a seeded order staggered across the horizon; every
    7th job is cancelled 1.5 time units after its release."""
    from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp

    tree = instance.tree
    horizon = max(job.release for job in instance.jobs)
    racks = sorted({tree.parent(leaf) for leaf in tree.leaves})
    nodes = list(tree.leaves) + racks
    rng = np.random.default_rng(sub_seed(seed, 5))
    slot = horizon / len(nodes)
    plans = []
    for k, idx in enumerate(rng.permutation(len(nodes))):
        start = slot * (k + rng.uniform(0.0, 0.1))
        node = nodes[int(idx)]
        plans.append(NodeDown(start, node))
        plans.append(NodeUp(start + OUTAGE_SHARE * horizon, node))
    for job in instance.jobs:
        if job.id % CANCEL_EVERY == 3:
            plans.append(Cancel(job.release + CANCEL_DELAY, job.id))
    deck = EventSchedule(plans)
    deck.validate_for(instance)
    return deck


def arrival_source(tree, seed: int, limit: int = STREAM_JOBS):
    """A fresh finite job stream, built the way ``repro serve`` builds it."""
    from repro.workload.arrivals import job_stream, poisson_process, uniform_size_stream
    from repro.workload.instance import Instance

    rate = Instance.poisson_rate_for_load(tree, 2.5, LOAD)
    releases = poisson_process(rate, np.random.default_rng(sub_seed(seed, 6)))
    sizes = uniform_size_stream(rng=np.random.default_rng(sub_seed(seed, 7)))
    return job_stream(releases, sizes, limit=limit)


def scrape_phase(seed: int) -> float:
    """Offset of the first scrape into its 25 ms period."""
    return float(np.random.default_rng(sub_seed(seed, 8)).uniform(0.0, SCRAPE_PERIOD_S))


def random_policy_seed(seed: int) -> int:
    return sub_seed(seed, 9)
