"""The stable, keyword-only facade over the reproduction.

``repro.api`` is the supported entry surface: six functions that cover
the common workflows — building topologies, generating instances,
simulating (batch or open-system streaming), tracing, and running the
experiment registry — with every option keyword-only so signatures can
grow without breaking callers.  Deeper modules (``repro.sim``,
``repro.core``, ``repro.analysis``, …) remain importable but their call
forms may shift between releases; code that sticks to this module keeps
working.

The batch and streaming surfaces share one engine core:
:func:`simulate` is the closed special case (finite job set, one
uninterrupted step, nothing evicted) of the session returned by
:func:`open_system`.

>>> from repro import api
>>> tree = api.build_tree("kary", branching=2, depth=3)
>>> inst = api.make_instance(tree=tree, n_jobs=40, load=0.8, seed=7)
>>> res = api.simulate(instance=inst, policy="greedy", eps=0.5)
>>> traced = api.trace_run(instance=inst, policy="greedy", eps=0.5,
...                        gauge_interval=1.0)
>>> traced.trace is not None
True

The functions return the same objects the deep modules produce
(:class:`~repro.workload.instance.Instance`,
:class:`~repro.sim.result.SimulationResult`, …), so facade users and
deep-module users interoperate freely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    from repro.analysis.runner import RunnerOutcome
    from repro.network.tree import TreeNetwork
    from repro.service.session import StreamSession
    from repro.sim.engine import AssignmentPolicy, EngineSink
    from repro.sim.result import SimulationResult
    from repro.sim.speed import SpeedProfile
    from repro.workload.events import EventSchedule
    from repro.workload.instance import Instance
    from repro.workload.job import Job

__all__ = [
    "build_tree",
    "make_instance",
    "simulate",
    "open_system",
    "trace_run",
    "run_experiments",
    "TREE_KINDS",
    "POLICY_NAMES",
    "SIZE_DISTS",
]

#: Topology families :func:`build_tree` understands.
TREE_KINDS = (
    "kary",
    "paths",
    "caterpillar",
    "spine",
    "broomstick",
    "datacenter",
    "random",
    "figure1",
    "parent_map",
)

#: Policy names :func:`simulate` / :func:`trace_run` resolve.
POLICY_NAMES = ("greedy", "closest", "random", "least-loaded", "round-robin")

#: Size distributions :func:`make_instance` understands.
SIZE_DISTS = ("uniform", "pareto", "bimodal")


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------
def build_tree(kind: str, **params) -> "TreeNetwork":
    """Build a tree topology by family name.

    Parameters
    ----------
    kind:
        One of :data:`TREE_KINDS`.
    **params:
        The family's parameters, passed through by keyword:

        ========== =====================================================
        kind       parameters
        ========== =====================================================
        kary       ``branching``, ``depth``
        paths      ``num_paths``, ``path_length``
        caterpillar ``spine_length``, ``leaves_per_node``
        spine      ``depth``
        broomstick ``num_tops``, ``handle_length``, ``bristles``
        datacenter ``num_pods``, ``racks_per_pod``, ``machines_per_rack``
        random     ``num_nodes``, optional ``rng``/``max_children``
        figure1    —
        parent_map ``parent_map``, optional ``names``
        ========== =====================================================

    Raises
    ------
    repro.exceptions.TopologyError
        For an unknown ``kind``.  Wrong parameters for a known kind
        raise ``TypeError`` like any Python call would.
    """
    from repro.exceptions import TopologyError
    from repro.network import builders

    builders_by_kind: dict[str, Callable] = {
        "kary": builders.kary_tree,
        "paths": builders.star_of_paths,
        "caterpillar": builders.caterpillar_tree,
        "spine": builders.spine_tree,
        "broomstick": builders.broomstick_tree,
        "datacenter": builders.datacenter_tree,
        "random": builders.random_tree,
        "figure1": builders.figure1_tree,
        "parent_map": builders.tree_from_parent_map,
    }
    try:
        builder = builders_by_kind[kind]
    except KeyError:
        raise TopologyError(
            f"unknown tree kind {kind!r}; expected one of {TREE_KINDS}"
        ) from None
    return builder(**params)


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------
def make_instance(
    *,
    tree: "TreeNetwork | None" = None,
    n_jobs: int = 50,
    load: float = 0.9,
    size_dist: str = "uniform",
    unrelated: bool = False,
    seed: int = 0,
    name: str = "api",
) -> "Instance":
    """Generate a synthetic scheduling instance.

    Sizes come from ``size_dist`` (one of :data:`SIZE_DISTS`), releases
    from a Poisson process whose rate is chosen so the *bottleneck*
    offered load is ``load`` (see ``Instance.poisson_rate_for_load``),
    and — when ``unrelated`` — per-leaf processing times from the
    affinity model.  Deterministic given ``seed``.  This is the same
    generator behind ``repro run``/``repro generate``, so CLI and
    programmatic experiments are directly comparable.

    Parameters
    ----------
    tree:
        Topology; default ``build_tree("kary", branching=2, depth=3)``.
    n_jobs:
        Number of jobs.
    load:
        Offered bottleneck load in ``(0, 1]``-ish (values above 1
        overload the tree on purpose).
    size_dist:
        ``"uniform"`` (on [1, 4]), ``"pareto"`` (bounded, heavy-tailed)
        or ``"bimodal"``.
    unrelated:
        Endpoint model: identical machines (default) or unrelated
        per-leaf sizes.
    seed:
        Seeds sizes (``seed``), arrivals (``seed + 1``) and the affinity
        matrix (``seed + 2``).
    name:
        Instance label used in reports and trace metadata.
    """
    from repro.exceptions import WorkloadError
    from repro.workload.arrivals import poisson_arrivals
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet
    from repro.workload.sizes import bimodal_sizes, bounded_pareto_sizes, uniform_sizes
    from repro.workload.unrelated import affinity_matrix

    if tree is None:
        tree = build_tree("kary", branching=2, depth=3)
    if size_dist == "uniform":
        sizes = uniform_sizes(n_jobs, 1.0, 4.0, rng=seed)
    elif size_dist == "pareto":
        sizes = bounded_pareto_sizes(n_jobs, rng=seed)
    elif size_dist == "bimodal":
        sizes = bimodal_sizes(n_jobs, rng=seed)
    else:
        raise WorkloadError(
            f"unknown size_dist {size_dist!r}; expected one of {SIZE_DISTS}"
        )
    rate = Instance.poisson_rate_for_load(tree, float(sizes.mean()), load)
    releases = poisson_arrivals(n_jobs, rate, rng=seed + 1)
    if unrelated:
        rows = affinity_matrix(tree.leaves, sizes, rng=seed + 2)
        return Instance(
            tree, JobSet.build(releases, sizes, rows), Setting.UNRELATED, name=name
        )
    return Instance(tree, JobSet.build(releases, sizes), Setting.IDENTICAL, name=name)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------
def _resolve_policy(policy, instance: "Instance", eps: float, seed: int):
    """A policy object passes through; a name from :data:`POLICY_NAMES`
    is constructed for ``instance``."""
    if not isinstance(policy, str):
        return policy
    from repro.baselines.policies import (
        ClosestLeafAssignment,
        LeastLoadedAssignment,
        RandomAssignment,
        RoundRobinAssignment,
    )
    from repro.core.assignment import (
        GreedyIdenticalAssignment,
        GreedyUnrelatedAssignment,
    )
    from repro.exceptions import AssignmentError
    from repro.workload.instance import Setting

    if policy == "greedy":
        if instance.setting is Setting.UNRELATED:
            return GreedyUnrelatedAssignment(eps)
        return GreedyIdenticalAssignment(eps)
    if policy == "closest":
        return ClosestLeafAssignment()
    if policy == "random":
        return RandomAssignment(seed)
    if policy == "least-loaded":
        return LeastLoadedAssignment()
    if policy == "round-robin":
        return RoundRobinAssignment()
    raise AssignmentError(
        f"unknown policy {policy!r}; expected one of {POLICY_NAMES}"
    )


def _resolve_speeds(speeds, speed: float) -> "SpeedProfile | None":
    from repro.sim.speed import SpeedProfile

    if speeds is not None:
        return speeds
    if speed != 1.0:
        return SpeedProfile.uniform(speed)
    return None


def _resolve_priority(priority):
    from repro.exceptions import SimulationError
    from repro.sim.engine import fifo_priority, sjf_priority

    if priority is None or priority == "sjf":
        return sjf_priority
    if priority == "fifo":
        return fifo_priority
    if isinstance(priority, str):
        raise SimulationError(
            f"unknown priority {priority!r}; expected 'sjf', 'fifo' or a callable"
        )
    return priority


def simulate(
    *,
    instance: "Instance",
    policy: "AssignmentPolicy | str" = "greedy",
    eps: float = 0.25,
    seed: int = 0,
    speed: float = 1.0,
    speeds: "SpeedProfile | None" = None,
    priority=None,
    backend: str | None = None,
    record_segments: bool = False,
    check_invariants: bool = False,
    until: float | None = None,
    counters: bool | None = None,
    sink: "EngineSink | None" = None,
    events: "EventSchedule | None" = None,
) -> "SimulationResult":
    """Simulate ``instance`` under a policy; keyword-only throughout.

    Parameters
    ----------
    instance:
        The instance to schedule.
    policy:
        An assignment-policy object, or a name from
        :data:`POLICY_NAMES` (``"greedy"`` resolves to the paper's
        algorithm for the instance's setting, parameterised by ``eps``).
    eps / seed:
        Used only when ``policy`` is a name (``eps`` for greedy,
        ``seed`` for the random baseline).
    speed / speeds:
        Either a uniform speed factor or a full
        :class:`~repro.sim.speed.SpeedProfile` (not both).
    priority:
        ``"sjf"`` (default), ``"fifo"`` or a custom priority callable.
    backend:
        ``"python"`` (the reference engine) or ``"c"`` (the compiled
        kernel, built on demand — raises if no C compiler is
        available); ``None`` reads the ``REPRO_BACKEND`` environment
        variable, defaulting to ``"python"``.  See
        :mod:`repro.sim.backends` for the calls ``"c"`` hands to the
        python engine.
    record_segments / check_invariants / until / counters / sink:
        Forwarded to the engine; see
        :class:`~repro.sim.engine.Engine`.  Both backends honour
        ``until`` and ``counters``; a ``sink`` (for instance a
        :class:`~repro.obs.trace.TraceRecorder`) runs the call on the
        python engine.
    events:
        An optional :class:`~repro.workload.events.EventSchedule` of
        dynamic events (node outages, cancellations) applied during
        the run.  Honoured natively by both backends.
    """
    from repro.exceptions import SimulationError
    from repro.sim import backends

    if speeds is not None and speed != 1.0:
        raise SimulationError("pass either speed or speeds, not both")
    return backends.simulate(
        instance,
        _resolve_policy(policy, instance, eps, seed),
        backend=backend,
        speeds=_resolve_speeds(speeds, speed),
        priority=_resolve_priority(priority),
        record_segments=record_segments,
        check_invariants=check_invariants,
        until=until,
        collect_counters=counters,
        sink=sink,
        events=events,
    )


def open_system(
    *,
    arrivals: "Iterable[Job] | None" = None,
    instance: "Instance | None" = None,
    tree: "TreeNetwork | None" = None,
    unrelated: bool = False,
    policy: "AssignmentPolicy | str" = "greedy",
    eps: float = 0.25,
    seed: int = 0,
    speed: float = 1.0,
    speeds: "SpeedProfile | None" = None,
    priority=None,
    backend: str | None = None,
    window: float = 10.0,
    keep_windows: int = 16,
    check_invariants: bool = False,
    record_points: bool = False,
    record_spans: bool = False,
    histogram=None,
    events: "EventSchedule | None" = None,
    on_finish=None,
    on_cancel=None,
    name: str = "open-system",
) -> "StreamSession":
    """Open a streaming (open-system) session; keyword-only throughout.

    Returns a live :class:`~repro.service.session.StreamSession` —
    ``step(until=...)`` / ``drain()`` / ``snapshot()`` / ``close()`` —
    fed incrementally from ``arrivals``, which may be an *infinite*
    generator (see :func:`repro.workload.arrivals.job_stream`).  Jobs
    are admitted lazily, evicted from the engine when they finish or
    are cancelled, and aggregated into per-window and cumulative
    steady-state metrics, so memory is bounded by the work in flight
    rather than the length of the stream.  Batch :func:`simulate` is
    the closed special case of this path (finite source, single step,
    no eviction).

    Parameters
    ----------
    arrivals:
        Release-ordered iterable of :class:`~repro.workload.job.Job`.
        Defaults to streaming ``instance.jobs`` when an instance is
        given (the finite batch-parity case); required with ``tree``.
    instance / tree / unrelated:
        The simulation context — pass exactly one of ``instance`` or
        ``tree``.  An :class:`~repro.workload.instance.Instance`
        supplies tree + endpoint setting (its job set is only used as
        the default ``arrivals``); a bare tree builds an empty-job-set
        context with the identical (or, with ``unrelated=True``,
        unrelated) endpoint model.
    policy / eps / seed / speed / speeds / priority:
        Resolved exactly as in :func:`simulate`.
    backend:
        Resolved through the same shared resolver as :func:`simulate`
        (``backend=`` kwarg > ``REPRO_BACKEND`` > ``"python"``).  On
        ``"c"`` the session keeps its state in the compiled kernel
        across steps whenever the kernel plans the policy, priority and
        setting (every built-in policy and priority, as for
        :func:`simulate`); a session asking for ``record_points``,
        ``record_spans``, ``check_invariants`` or ``events`` — or one
        the kernel cannot plan — warns with the reason and runs on the
        python engine, the only one with per-event traces, invariant
        audits and dynamic events in streams.  Both engines produce the
        same snapshots, windows, callbacks and final result.  A
        router-origin job reaching a greedy or least-loaded c session
        raises :class:`~repro.exceptions.SimulationError`: those kernel
        plans dispatch root-origin jobs only.
    window / keep_windows / check_invariants / record_points /
    record_spans / histogram / events / on_finish / on_cancel:
        Forwarded to :class:`~repro.service.session.StreamSession`.
        ``events`` schedules dynamic node outages/cancellations;
        cancelled jobs surface through ``on_cancel`` and the session's
        ``cancelled`` counters, never as completions.  The callbacks
        run at the end of each engine step; one that raises fails the
        session, as a raising arrival source does.
    name:
        Label for the context built from ``tree``.
    """
    from repro.exceptions import SimulationError
    from repro.service.session import StreamSession
    from repro.sim import backends
    from repro.workload.instance import Instance, Setting
    from repro.workload.job import JobSet

    if (instance is None) == (tree is None):
        raise SimulationError(
            "pass exactly one of instance= (context + default arrivals) "
            "or tree= (context only)"
        )
    if instance is None:
        setting = Setting.UNRELATED if unrelated else Setting.IDENTICAL
        instance = Instance(tree, JobSet(()), setting, name=name)
        if arrivals is None:
            raise SimulationError(
                "arrivals= is required when the context is a bare tree"
            )
    elif arrivals is None:
        arrivals = instance.jobs
    if speeds is not None and speed != 1.0:
        raise SimulationError("pass either speed or speeds, not both")
    return StreamSession(
        instance=instance,
        arrivals=arrivals,
        policy=_resolve_policy(policy, instance, eps, seed),
        window=window,
        keep_windows=keep_windows,
        speeds=_resolve_speeds(speeds, speed),
        priority=_resolve_priority(priority),
        check_invariants=check_invariants,
        record_points=record_points,
        record_spans=record_spans,
        histogram=histogram,
        events=events,
        on_finish=on_finish,
        on_cancel=on_cancel,
        backend=backends.select_backend(backend).effective,
    )


def trace_run(
    *,
    instance: "Instance",
    policy: "AssignmentPolicy | str" = "greedy",
    eps: float = 0.25,
    seed: int = 0,
    speed: float = 1.0,
    speeds: "SpeedProfile | None" = None,
    priority=None,
    gauge_interval: float | None = None,
    gauge_nodes: tuple[int, ...] | None = None,
    record_points: bool = True,
    record_spans: bool = True,
    until: float | None = None,
    counters: bool | None = None,
) -> "SimulationResult":
    """Simulate with structured tracing enabled.

    Identical to :func:`simulate` plus a
    :class:`~repro.obs.trace.TraceRecorder` configured from the
    ``gauge_*``/``record_*`` switches; the assembled
    :class:`~repro.obs.trace.SimulationTrace` is on the returned
    result's ``.trace``.  When ``gauge_interval`` is ``None`` a cadence
    of 1/50th of the job-release span is chosen (gauges off for a
    single-release instance); pass an explicit interval for exact
    cadences, or ``record_points=False`` / ``record_spans=False`` to
    trim volume.
    """
    from repro.obs.trace import TraceConfig, TraceRecorder

    if gauge_interval is None:
        releases = [job.release for job in instance.jobs]
        span = (max(releases) - min(releases)) if releases else 0.0
        gauge_interval = span / 50.0 if span > 0.0 else None
    recorder = TraceRecorder(
        TraceConfig(
            gauge_interval=gauge_interval,
            gauge_nodes=gauge_nodes,
            record_points=record_points,
            record_spans=record_spans,
        )
    )
    return simulate(
        instance=instance,
        policy=policy,
        eps=eps,
        seed=seed,
        speed=speed,
        speeds=speeds,
        priority=priority,
        until=until,
        counters=counters,
        sink=recorder,
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------
def run_experiments(
    *,
    exp_ids: list[str] | None = None,
    params_by_id: dict[str, dict] | None = None,
    parallel: int = 1,
    cache_dir: "str | None" = None,
    use_cache: bool = True,
    collect_counters: bool = False,
    manifest_dir: "str | None" = None,
) -> "list[RunnerOutcome]":
    """Run registered experiments through the parallel, cached runner.

    Keyword-only facade over
    :func:`repro.analysis.runner.run_experiments`; ``exp_ids=None``
    runs the whole registry, ``manifest_dir`` additionally writes a
    per-experiment trial manifest (JSON: per-trial parameters, cache
    digests, hit/miss, wall-clock) for provenance.
    """
    from repro.analysis import runner

    return runner.run_experiments(
        exp_ids,
        params_by_id=params_by_id,
        parallel=parallel,
        cache_dir=cache_dir if cache_dir is not None else runner.DEFAULT_CACHE_DIR,
        use_cache=use_cache,
        collect_counters=collect_counters,
        manifest_dir=manifest_dir,
    )
