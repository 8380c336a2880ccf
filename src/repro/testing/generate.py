"""Seeded fuzz-case generation over boundary-biased grids.

A *case* is everything one differential check needs: an instance, a
policy, a speed profile, and a node priority.  Cases are drawn from
explicit grids over topology × arrivals × sizes × setting × policy ×
speed × priority, with the sampling weights biased toward the boundary
regimes where the engine's event algebra has historically given up its
bugs:

* **exact ties** — equal sizes and shared release instants force
  simultaneous events, identical ``(p, release)`` priority prefixes,
  and the settle-then-drain orderings behind the PR 1 ties fix;
* **power-of-two sizes** on integer release grids — float arithmetic
  stays exact, so completions coincide *exactly* across branches;
* **near ties** — sizes differing in the last few ulps probe tolerance
  boundaries (``finished_tol``, the completion guard);
* **speeds near zero** and tiered profiles — scale the residual-work
  arithmetic the drain rule depends on;
* **broomstick / spine shapes** — the paper's normal form: deep
  store-and-forward pipelines with zero-remaining drains at every hop.

Everything is deterministic: :func:`iter_cases` is a pure function of
its seed, and each emitted :class:`CaseConfig` carries its own derived
sub-seed so a single case can be rebuilt in isolation without replaying
the stream.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.exceptions import WorkloadError
from repro.network import builders
from repro.sim.engine import PriorityFn, fifo_priority, simulate, sjf_priority
from repro.sim.speed import SpeedProfile
from repro.workload.arrivals import (
    adversarial_bursts,
    poisson_arrivals,
    tied_arrivals,
)
from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting
from repro.workload.job import JobSet
from repro.workload.sizes import (
    bounded_pareto_sizes,
    near_tie_sizes,
    uniform_sizes,
)
from repro.workload.trace_io import instance_from_json, instance_to_json
from repro.workload.unrelated import affinity_matrix

__all__ = [
    "TOPOLOGIES",
    "ARRIVALS",
    "SIZES",
    "POLICIES",
    "SPEEDS",
    "PRIORITIES",
    "EVENT_FAMILIES",
    "CaseConfig",
    "FuzzCase",
    "build_case",
    "iter_cases",
]

# ---------------------------------------------------------------------------
# the grids
# ---------------------------------------------------------------------------
#: Topology family -> zero-argument builder.  Small trees on purpose:
#: shrunk repros should start near-minimal, and the boundary regimes
#: live in the shapes, not the node counts.
TOPOLOGIES = {
    "spine2": lambda: builders.spine_tree(2),
    "spine4": lambda: builders.spine_tree(4),
    "paths_2x1": lambda: builders.star_of_paths(2, 1),
    "paths_3x2": lambda: builders.star_of_paths(3, 2),
    "kary_2x2": lambda: builders.kary_tree(2, 2),
    "caterpillar": lambda: builders.caterpillar_tree(3, 2),
    "broomstick": lambda: builders.broomstick_tree(2, 3, 1),
    "broomstick_deep": lambda: builders.broomstick_tree(1, 4, {1: 1, 3: 2}),
    "figure1": builders.figure1_tree,
}

ARRIVALS = ("all_zero", "tied", "integer_grid", "bursts", "poisson")
SIZES = ("equal", "powers", "near_tie", "uniform", "pareto")
POLICIES = ("greedy", "closest", "random", "least-loaded", "round-robin", "fixed")
#: ``crawl`` sits near the zero-speed boundary (2^-4 keeps arithmetic
#: exact); ``tiered`` mixes faster routers with slower leaves.
SPEEDS = ("unit", "crawl", "fast", "tiered")
PRIORITIES = ("sjf", "fifo")
#: Dynamic-event families: ``none`` reproduces the historical static
#: stream byte-for-byte, the rest layer an :class:`EventSchedule` drawn
#: from an *independent* sub-stream on top of the same instance (so a
#: case and its event-free twin share jobs, tree, and assignment grid).
#: ``preempted`` is one cancel aimed at a job waiting at its leaf after
#: partial service there — the only cancel whose fractional-flow term is
#: not zero, which random cancel times almost never hit.
EVENT_FAMILIES = ("none", "outages", "cancels", "mixed", "preempted")

_SPEED_PROFILES = {
    "unit": lambda: None,
    "crawl": lambda: SpeedProfile.uniform(0.0625),
    "fast": lambda: SpeedProfile.uniform(4.0),
    "tiered": lambda: SpeedProfile(root_children=1.5, interior=2.25, leaves=0.75),
}


@dataclass(frozen=True)
class CaseConfig:
    """The JSON-serialisable coordinates of one fuzz case."""

    seed: int
    topology: str
    n_jobs: int
    arrivals: str
    sizes: str
    setting: str = "identical"
    policy: str = "greedy"
    eps: float = 0.5
    speed: str = "unit"
    priority: str = "sjf"
    events: str = "none"

    def label(self) -> str:
        """Compact human-readable tag used in summaries and corpus docs."""
        tag = (
            f"{self.topology}/{self.arrivals}/{self.sizes}/{self.setting}"
            f"/{self.policy}/{self.speed}/{self.priority}"
            f"/n{self.n_jobs}/s{self.seed}"
        )
        if self.events != "none":
            tag += f"/ev-{self.events}"
        return tag

    def to_doc(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_doc(doc: dict) -> "CaseConfig":
        return CaseConfig(**doc)


@dataclass
class FuzzCase:
    """A fully materialised case: instance plus run configuration.

    After shrinking, ``instance`` (and ``fixed_assignment``) diverge
    from what ``config`` would regenerate — the instance is therefore
    always embedded verbatim when a case is serialised, and ``config``
    survives as the policy/speed/priority coordinates plus provenance.
    """

    config: CaseConfig
    instance: Instance
    fixed_assignment: dict[int, int] | None = None
    shrunk: bool = field(default=False)
    events: EventSchedule | None = None

    def speeds(self) -> SpeedProfile | None:
        return _SPEED_PROFILES[self.config.speed]()

    def priority_fn(self) -> PriorityFn:
        return fifo_priority if self.config.priority == "fifo" else sjf_priority

    def policy(self):
        """A *fresh* policy object (policies can be stateful)."""
        from repro.api import _resolve_policy
        from repro.core.assignment import FixedAssignment

        if self.config.policy == "fixed":
            if self.fixed_assignment is None:
                raise WorkloadError("fixed-policy case without an assignment map")
            return FixedAssignment(self.fixed_assignment)
        return _resolve_policy(
            self.config.policy, self.instance, self.config.eps, self.config.seed
        )

    # -- serialisation ---------------------------------------------------
    def to_doc(self) -> dict:
        return {
            "config": self.config.to_doc(),
            "instance": json.loads(instance_to_json(self.instance)),
            "fixed_assignment": (
                None
                if self.fixed_assignment is None
                else {str(k): v for k, v in self.fixed_assignment.items()}
            ),
            "shrunk": self.shrunk,
            "events": None if self.events is None else self.events.to_doc(),
        }

    @staticmethod
    def from_doc(doc: dict) -> "FuzzCase":
        fixed = doc.get("fixed_assignment")
        ev_doc = doc.get("events")
        return FuzzCase(
            config=CaseConfig.from_doc(doc["config"]),
            instance=instance_from_json(json.dumps(doc["instance"])),
            fixed_assignment=(
                None if fixed is None else {int(k): int(v) for k, v in fixed.items()}
            ),
            shrunk=bool(doc.get("shrunk", False)),
            events=None if not ev_doc else EventSchedule.from_doc(ev_doc),
        )


# ---------------------------------------------------------------------------
# materialisation
# ---------------------------------------------------------------------------
def _make_sizes(config: CaseConfig, rng: np.random.Generator) -> np.ndarray:
    n = config.n_jobs
    if config.sizes == "equal":
        return np.ones(n)
    if config.sizes == "powers":
        return rng.choice([0.5, 1.0, 2.0, 4.0], size=n)
    if config.sizes == "near_tie":
        return near_tie_sizes(n, rng=rng)
    if config.sizes == "uniform":
        return uniform_sizes(n, 1.0, 4.0, rng=rng)
    if config.sizes == "pareto":
        return bounded_pareto_sizes(n, high=20.0, rng=rng)
    raise WorkloadError(f"unknown size family {config.sizes!r}")


def _make_releases(
    config: CaseConfig, tree, mean_size: float, rng: np.random.Generator
) -> np.ndarray:
    n = config.n_jobs
    if config.arrivals == "all_zero":
        return np.zeros(n)
    if config.arrivals == "tied":
        return tied_arrivals(n, num_distinct=max(2, n // 3), spacing=1.0, rng=rng)
    if config.arrivals == "integer_grid":
        return np.sort(rng.integers(0, max(2, n // 2), size=n).astype(float))
    if config.arrivals == "bursts":
        bursts = (n + 2) // 3
        times = adversarial_bursts(bursts, 3, gap=2.0 * mean_size, rng=rng)
        return times[:n]
    if config.arrivals == "poisson":
        rate = Instance.poisson_rate_for_load(tree, mean_size, 0.9)
        return poisson_arrivals(n, rate, rng=rng)
    raise WorkloadError(f"unknown arrival family {config.arrivals!r}")


def _make_events(config: CaseConfig, instance: Instance) -> EventSchedule | None:
    """Draw the case's dynamic events from an independent sub-stream.

    The event randomness is seeded ``[config.seed, <tag>]`` rather than
    taken from the instance rng, so a case and its ``events="none"``
    twin are built on *identical* jobs — the metamorphic
    ``empty_events`` relation and the EXPERIMENTS ablation both rely on
    it.  Times land on a ``0.25`` grid (exact in binary, collision-rich
    against power-of-two sizes on integer releases); cancels fire a
    strictly positive grid offset after their job's release, since a
    cancel at or before release is a defined no-op the oracles would
    never observe.
    """
    if config.events == "none":
        return None
    if config.events not in EVENT_FAMILIES:
        raise WorkloadError(f"unknown event family {config.events!r}")
    rng = np.random.default_rng([config.seed, 0xD1CE])
    tree = instance.tree
    jobs = list(instance.jobs)
    horizon = max(
        1.0,
        max((j.release for j in jobs), default=0.0)
        + float(sum(j.size for j in jobs)),
    )
    grid = max(1, int(horizon * 4))
    events: list = []
    if config.events in ("outages", "mixed"):
        nodes = sorted(v for v in tree.node_ids if v != tree.root)
        n_out = min(int(rng.integers(1, 3)), len(nodes))
        picked = rng.choice(len(nodes), size=n_out, replace=False)
        for idx in sorted(int(i) for i in picked):
            node = nodes[idx]
            start = 0.25 * float(rng.integers(0, grid))
            length = 0.25 * float(rng.integers(1, max(2, grid // 2)))
            events.append(NodeDown(start, node))
            events.append(NodeUp(start + length, node))
    if config.events in ("cancels", "mixed"):
        n_cancel = min(int(rng.integers(1, 4)), len(jobs))
        picked = rng.choice(len(jobs), size=n_cancel, replace=False)
        for idx in sorted(int(i) for i in picked):
            job = jobs[idx]
            delta = 0.25 * float(rng.integers(1, max(2, grid)))
            events.append(Cancel(job.release + delta, job.id))
    return EventSchedule(events)


def _cancel_preempted(case: FuzzCase) -> EventSchedule | None:
    """One cancel while a job waits at its leaf after partial service
    there, or ``None`` when no job is ever preempted at its leaf.

    The windows come from the case's own event-free run, which the run
    with the cancel matches up to the cancel instant; the cancel lands
    mid-window.
    """
    result = simulate(
        case.instance, case.policy(), speeds=case.speeds(),
        priority=case.priority_fn(), record_segments=True,
    )
    last: dict[int, float] = {}
    windows = []
    for seg in result.segments:  # each job's in time order
        if seg.node != result.records[seg.job_id].leaf:
            continue
        end = last.get(seg.job_id)
        if end is not None and seg.start > end:
            windows.append((end, seg.start, seg.job_id))
        last[seg.job_id] = seg.end
    if not windows:
        return None
    rng = np.random.default_rng([case.config.seed, 0xD1CE])
    end, start, job_id = windows[int(rng.integers(len(windows)))]
    return EventSchedule([Cancel((end + start) / 2, job_id)])


def build_case(config: CaseConfig) -> FuzzCase:
    """Materialise a :class:`CaseConfig` into a runnable case.

    Deterministic: all randomness flows from ``config.seed``.
    """
    if config.topology not in TOPOLOGIES:
        raise WorkloadError(f"unknown topology {config.topology!r}")
    tree = TOPOLOGIES[config.topology]()
    rng = np.random.default_rng(config.seed)
    sizes = np.asarray(_make_sizes(config, rng), dtype=float)
    releases = _make_releases(config, tree, float(sizes.mean()), rng)
    if config.setting == "unrelated":
        rows = affinity_matrix(tree.leaves, sizes, rng=rng)
        jobs = JobSet.build(releases, sizes, rows)
        instance = Instance(tree, jobs, Setting.UNRELATED, name=config.label())
    else:
        jobs = JobSet.build(releases, sizes)
        instance = Instance(tree, jobs, Setting.IDENTICAL, name=config.label())
    fixed = None
    if config.policy == "fixed":
        fixed = {}
        for job in instance.jobs:
            feasible = instance.feasible_leaves(job)
            fixed[job.id] = int(feasible[int(rng.integers(len(feasible)))])
    case = FuzzCase(config=config, instance=instance, fixed_assignment=fixed)
    if config.events == "preempted":
        case.events = _cancel_preempted(case)
    else:
        case.events = _make_events(config, instance)
    return case


# ---------------------------------------------------------------------------
# the stream
# ---------------------------------------------------------------------------
def _choice(rng: np.random.Generator, options, weights) -> str:
    w = np.asarray(weights, dtype=float)
    return options[int(rng.choice(len(options), p=w / w.sum()))]


#: The collision regime: families measured (empirically, against an
#: engine with the zero-remaining drain disabled) to actually *produce*
#: brink-of-completion event collisions — power-of-two sizes on shared
#: integer release instants with non-unit speeds make completion
#: predictions and upstream pushes land on exactly equal floats, which
#: is the precondition for the drain-finished-ties behaviour.  Uniform
#: sampling almost never hits this (≈0.03% of mixed-grid cases), so
#: :func:`iter_cases` dedicates a fixed slice of the stream to it.
_COLLISION_TOPOLOGIES = ("spine4", "kary_2x2", "caterpillar", "spine2")
_COLLISION_ARRIVALS = ("tied", "integer_grid")
_COLLISION_SPEEDS = ("tiered", "fast")
_COLLISION_POLICIES = ("closest", "greedy", "round-robin")


def _collision_config(rng: np.random.Generator) -> CaseConfig:
    return CaseConfig(
        seed=int(rng.integers(2**31)),
        topology=_COLLISION_TOPOLOGIES[int(rng.integers(len(_COLLISION_TOPOLOGIES)))],
        n_jobs=int(rng.integers(10, 14)),
        arrivals=_COLLISION_ARRIVALS[int(rng.integers(2))],
        sizes="powers",
        policy=_COLLISION_POLICIES[int(rng.integers(3))],
        speed=_COLLISION_SPEEDS[int(rng.integers(2))],
    )


def iter_cases(
    seed: int,
    max_cases: int | None = None,
    *,
    events: bool = False,
    stream: bool = False,
) -> Iterator[FuzzCase]:
    """Yield a deterministic stream of materialised cases.

    The first dozen cases are a fixed smoke deck — one per boundary
    regime, so even a tiny ``--max-cases`` run covers ties, drains,
    unrelated endpoints, crawl speeds and FIFO.  After the deck, cases
    are sampled from the grids with weights biased toward the tie-heavy
    families (~60% of size draws are equal/powers/near-tie, ~60% of
    arrival patterns share release instants).

    With ``events=True`` the deck gains an event-bearing slice (outages
    on stalls-prone spines, cancels against ties, a mixed schedule, a
    cancel of a job preempted at its leaf) and sampled cases draw a
    dynamic-event family (~55%; a ``preempted`` draw carries no event
    when no job of its run is ever preempted at its leaf).  The
    default stream is untouched — every rng draw of the ``events=False``
    stream happens in the same order, so historical corpora and golden
    registries replay byte-identically.

    With ``stream=True`` the deck opens with the streaming families:
    equal jobs released together on symmetric branches (completions on
    two leaves at the same instant) and releases shared by several jobs,
    whose source order :mod:`repro.testing.stream` reverses half the
    time.
    """
    rng = np.random.default_rng(seed)
    deck = [
        CaseConfig(0, "spine2", 4, "all_zero", "equal"),
        CaseConfig(0, "paths_2x1", 6, "tied", "equal"),
        CaseConfig(0, "broomstick", 6, "integer_grid", "powers"),
        CaseConfig(0, "spine4", 5, "all_zero", "powers", speed="crawl"),
        CaseConfig(0, "paths_3x2", 6, "tied", "near_tie"),
        CaseConfig(0, "kary_2x2", 6, "bursts", "uniform", policy="least-loaded"),
        CaseConfig(0, "figure1", 8, "poisson", "pareto", policy="closest"),
        CaseConfig(0, "caterpillar", 6, "tied", "equal", priority="fifo"),
        CaseConfig(0, "kary_2x2", 6, "integer_grid", "powers", setting="unrelated"),
        CaseConfig(0, "broomstick_deep", 5, "all_zero", "equal", speed="tiered"),
        CaseConfig(0, "paths_2x1", 7, "tied", "powers", policy="fixed"),
        CaseConfig(0, "spine2", 8, "integer_grid", "equal", policy="round-robin"),
    ]
    if stream:
        deck = [
            CaseConfig(0, "paths_2x1", 4, "all_zero", "equal", policy="round-robin"),
            CaseConfig(0, "paths_3x2", 6, "all_zero", "equal", policy="round-robin"),
            CaseConfig(0, "kary_2x2", 8, "tied", "equal", policy="greedy"),
            CaseConfig(0, "kary_2x2", 8, "tied", "powers", policy="random"),
            CaseConfig(0, "paths_2x1", 6, "integer_grid", "equal", policy="least-loaded"),
        ] + deck
    if events:
        deck += [
            CaseConfig(0, "spine4", 6, "integer_grid", "powers", events="outages"),
            CaseConfig(0, "paths_3x2", 6, "tied", "equal", events="cancels"),
            CaseConfig(0, "broomstick", 7, "integer_grid", "powers", events="mixed"),
            CaseConfig(
                0, "kary_2x2", 6, "tied", "powers",
                policy="least-loaded", events="outages",
            ),
            CaseConfig(
                0, "caterpillar", 6, "all_zero", "equal",
                priority="fifo", events="mixed",
            ),
            CaseConfig(
                0, "figure1", 8, "poisson", "pareto",
                policy="fixed", events="cancels",
            ),
            CaseConfig(0, "spine2", 10, "poisson", "uniform", events="preempted"),
        ]
    count = 0
    for config in deck:
        if max_cases is not None and count >= max_cases:
            return
        yield build_case(replace(config, seed=int(rng.integers(2**31))))
        count += 1
    topologies = list(TOPOLOGIES)
    while max_cases is None or count < max_cases:
        if count % 8 == 0:
            yield build_case(_collision_config(rng))
            count += 1
            continue
        config = CaseConfig(
            seed=int(rng.integers(2**31)),
            topology=topologies[int(rng.integers(len(topologies)))],
            n_jobs=int(rng.integers(2, 13)),
            arrivals=_choice(rng, ARRIVALS, (20, 25, 20, 15, 20)),
            sizes=_choice(rng, SIZES, (25, 20, 15, 25, 15)),
            setting=_choice(rng, ("identical", "unrelated"), (75, 25)),
            policy=_choice(rng, POLICIES, (30, 10, 10, 20, 10, 20)),
            eps=float(rng.choice([0.25, 0.5, 1.0])),
            speed=_choice(rng, SPEEDS, (45, 20, 15, 20)),
            priority=_choice(rng, PRIORITIES, (70, 30)),
        )
        if events:
            # Drawn only on the events stream: the default stream's rng
            # sequence must stay byte-identical to the historical one.
            config = replace(
                config,
                events=_choice(rng, EVENT_FAMILIES, (45, 15, 15, 10, 15)),
            )
        yield build_case(config)
        count += 1
