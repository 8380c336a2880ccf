"""The compiled (C) engine backend: planning, marshaling, results.

The heavy lifting lives in ``engine_kernel.c`` (built and loaded by
:mod:`repro.sim.backends.c_build`); this module is the Python half of
the contract:

* **Plan** — decide whether a simulation is *expressible* on the
  kernel (:func:`plan_kind`).  The kernel natively replays the built-in
  priorities (SJF / FIFO), dynamic-event schedules (outages, repairs,
  cancellations), size estimates, and every built-in policy:
  statically-decidable assignments (closest / random / round-robin /
  fixed — their choices depend only on the jobs, so the policy's bulk
  rule ``assign_all(instance)`` resolves every job at once, equal to one
  ``assign`` per masked job and consuming its RNG/counter state exactly
  as a live run would; array checks then raise the python engine's
  ``AssignmentError`` for the first offending job), the paper's greedy
  rule for identical and for unrelated endpoints (F' per leaf), and the
  least-loaded baseline over uniform or per-leaf sizes (all down-aware,
  forbidden leaves ``p_{j,v} = inf`` never picked).  Anything else —
  generic priority callables, custom policies, greedy or least-loaded
  with non-root origins, greedy-identical on unrelated endpoints,
  segment recording — raises :class:`CKernelInapplicable`, and
  :func:`repro.sim.backends.simulate` runs the python engine instead
  (same schedule, slower execution).
* **Marshal** — the tree-derived tables (preorder topology, speeds, the
  leaf root paths, the greedy and least-loaded layouts) form one
  :class:`TopologyPlan`, built once per tree, endpoint setting, speed
  profile and priority kind and kept on the tree, so every instance on
  a tree shares it.  The plan also holds, per policy kind, one prebuilt
  argument table (:class:`_KernelArgs`, field-for-field the C
  ``KernelArgs``) carrying its tables' addresses and sizes.  A batch
  call copies that table and writes into it only its scalars and the
  raw addresses of its columns: the job columns the instance keeps —
  release, size, id, policy size, SJF rank and, in the unrelated
  setting, the n x leaves ``p_{j,v}`` matrix with its per-leaf SJF
  ranks — and the output buffers it allocates.  A warm call runs no
  Python per job and none per node.  A bounded call (``until``) passes
  the same columns of only the jobs released by its horizon, which the
  kernel runs to and settles at.
* **Assemble** — derive the result's five summary columns and both
  flow integrals (sequential prefix sums over the jobs in arrival order,
  in-flight jobs alive up to the horizon) from the output buffers with
  a few numpy operations, and hand the rest of the buffers, named in a
  :class:`~repro.sim.result.KernelRows`, to
  :class:`~repro.sim.result.JobRecords`, which builds the
  :class:`~repro.sim.result.JobRecord` objects in one pass only when a
  record is first read.  With counters on, the result carries the
  kernel's tallies (:func:`_tally`).

:class:`CStreamEngine` drives the same event loop as an open-system
stream (the kernel's session entry points): the engine half of a
c-backed :class:`~repro.service.session.StreamSession`.

Parity with the python engine's records is exact (``==``), not
tolerance-based: the kernel replays the same float ops in the same
order (see the C source header for the three rules), and the fuzz
battery (``repro fuzz --backends``, ``--stream --backends``) plus
``tests/test_backends.py`` enforce it.
"""

from __future__ import annotations

import ctypes
import math
import weakref
from collections.abc import Iterable
from operator import itemgetter
from time import perf_counter

import numpy as np

from repro.core.assignment import (
    MISSING,
    FixedAssignment,
    GreedyIdenticalAssignment,
    GreedyUnrelatedAssignment,
)
from repro.baselines.policies import (
    ClosestLeafAssignment,
    LeastLoadedAssignment,
    RandomAssignment,
    RoundRobinAssignment,
)
from repro.exceptions import AssignmentError, SimulationError, TopologyError
from repro.network.tree import TreeNetwork
from repro.sim.backends import c_build
from repro.sim.counters import EngineCounters, global_counters
from repro.sim.engine import (
    AssignmentPolicy,
    PriorityFn,
    check_horizon,
    check_source,
    fifo_priority,
    sjf_priority,
)
from repro.sim.result import (
    JobRecord,
    JobRecords,
    KernelRows,
    SimulationResult,
    flow_integrals,
)
from repro.sim.speed import SpeedProfile
from repro.sim.tolerances import CLOCK_EPS, REMAINING_ATOL, REMAINING_RTOL
from repro.workload.events import Cancel, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting
from repro.workload.job import JobSet

__all__ = ["CEngine", "CKernelInapplicable", "CStreamEngine", "TopologyPlan", "plan_kind"]


#: Upper bound on ``n_jobs * n_nodes``: the kernel's per-node heap and
#: pending buffers are dense (28 bytes/slot), so past this the python
#: engine's per-node heaps are the better memory trade.
_MAX_DENSE_SLOTS = 20_000_000

#: Packed heap entries carry the job index in the low 32 bits.
_MAX_JOBS = 1 << 30

#: Largest leaf id for which the static plan maps chosen leaves to slots
#: through a dense table (beyond it, a dict lookup per job).
_MAX_ID_TABLE = 1 << 16

#: ``ev_kind`` codes of the kernel's dynamic-event columns.
_EV_KIND = {NodeDown: 0, NodeUp: 1, Cancel: 2}

_STATIC_POLICIES = (
    ClosestLeafAssignment,
    RandomAssignment,
    RoundRobinAssignment,
    FixedAssignment,
)

#: Policies the kernel runs against live state -> ``policy_kind``.
_LIVE_POLICIES = {
    GreedyIdenticalAssignment: 1,
    LeastLoadedAssignment: 2,
    GreedyUnrelatedAssignment: 3,
}

#: Kernel status codes.
_ST_MAX_EVENTS, _ST_NOMEM = 1, 2


class CKernelInapplicable(Exception):
    """This simulation cannot be expressed on the kernel."""


def plan_kind(policy: AssignmentPolicy, priority: PriorityFn, setting: Setting):
    """The kernel's ``(policy_kind, priority kind)`` for this policy
    type, node priority and endpoint setting — what a call or a session
    knows before any job is seen; raises :class:`CKernelInapplicable`
    naming why the kernel has no plan."""
    if priority is sjf_priority:
        prio_kind = 1
    elif priority is fifo_priority:
        prio_kind = 2
    else:
        raise CKernelInapplicable("generic priority callables")
    ptype = type(policy)
    if ptype in _STATIC_POLICIES:
        return 0, prio_kind
    kind = _LIVE_POLICIES.get(ptype)
    if kind is None:
        raise CKernelInapplicable(f"policy {ptype.__name__} has no kernel plan")
    if ptype is GreedyIdenticalAssignment and setting is not Setting.IDENTICAL:
        raise CKernelInapplicable("greedy-identical on unrelated endpoints")
    return kind, prio_kind


def _i32(values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


class TopologyPlan:
    """The kernel's tables for one tree, endpoint setting, speed profile
    and priority kind (see :func:`topology_plan`): dense preorder node
    indices (root excluded), each node's ancestor chain, leaf flag,
    speed and heap-key kind; every leaf's root path, in ``tree.leaves``
    order, so a leaf's slot is also its path id; and, built when a
    policy kind first needs it, that kind's argument table
    (:meth:`template`) with the greedy or least-loaded layout it reads.
    The tables are never written after construction."""

    def __init__(
        self, tree: TreeNetwork, setting: Setting, speeds: SpeedProfile, prio_kind: int
    ) -> None:
        root = tree.root
        order = [v for v in tree.node_ids if v != root]
        ni_of = {v: i for i, v in enumerate(order)}
        self.order = tuple(order)
        self.ni_of = ni_of
        m = len(order)
        is_leaf = np.zeros(m, dtype=np.uint8)
        speed = np.empty(m, dtype=np.float64)
        chains: list[tuple[int, ...]] = [()] * m
        for ni, v in enumerate(order):
            is_leaf[ni] = tree.node(v).is_leaf
            speed[ni] = speeds.speed_of(tree, v)
            p = tree.parent(v)
            chains[ni] = (ni,) if p == root else chains[ni_of[p]] + (ni,)
        self.is_leaf = is_leaf
        self.speed = speed
        self.chain_off = np.zeros(m + 1, dtype=np.int32)
        self.chain_off[1:] = np.cumsum([len(ch) for ch in chains])
        self.chain_concat = _i32([a for ch in chains for a in ch])
        if prio_kind == 2 or setting is Setting.IDENTICAL:
            self.enc = np.ones(m, dtype=np.uint8)
        else:
            self.enc = (is_leaf == 0).astype(np.uint8)

        leaves = tree.leaves
        self.leaf_ids = np.array(leaves, dtype=np.int64)
        self.paths = tuple(tree.processing_path(leaf) for leaf in leaves)
        self.path_len = _i32([len(p) for p in self.paths])
        self.path_off = np.zeros(len(leaves), dtype=np.int32)
        self.path_off[1:] = np.cumsum(self.path_len[:-1])
        self.path_concat = _i32([ni_of[v] for p in self.paths for v in p])
        self.max_path = int(self.path_len.max())
        self.leaf_ni = _i32([ni_of[v] for v in leaves])
        self.leaf_path = np.arange(len(leaves), dtype=np.int32)
        self._tree = tree
        # Per policy kind: its argument table, and the arrays whose raw
        # addresses it carries (held here, since an address keeps
        # nothing alive).
        self._templates: dict[int, tuple[_KernelArgs, dict]] = {}

    def template(self, kind: int) -> _KernelArgs:
        """The prebuilt ``KernelArgs`` for policy kind ``kind`` — table
        addresses and sizes, the finish tolerances — built on first use
        per kind, with the greedy and least-loaded layouts only for
        their own.  Callers copy it; it is never written."""
        kept = self._templates.get(kind)
        if kept is None:
            tables = dict(
                chain_off=self.chain_off, chain_concat=self.chain_concat,
                is_leaf=self.is_leaf, enc=self.enc, speed=self.speed,
                path_off=self.path_off, path_len=self.path_len,
                path_concat=self.path_concat, leaf_id=self.leaf_ids,
                leaf_ni=self.leaf_ni, leaf_path=self.leaf_path,
            )
            if kind in (1, 3):
                tables.update(self._greedy_tables())
            elif kind == 2:
                tables.update(self._least_loaded_tables())
            args = _KernelArgs(
                policy_kind=kind, n_nodes=len(self.order), max_path=self.max_path,
                n_leaves=len(self.leaf_ids), n_paths=len(self.paths),
                n_entries=len(tables.get("entry_ni", ())),
                n_tops=len(tables.get("tops_ni", ())),
                ftol_atol=REMAINING_ATOL, ftol_rtol=REMAINING_RTOL,
            )
            for name, arr in tables.items():
                args.put(name, arr)
            kept = self._templates[kind] = (args, tables)
        return kept[0]

    def _greedy_tables(self) -> dict:
        """The root-adjacent entries of
        :meth:`GreedyIdenticalAssignment._entries_for` (root origin) and
        every branch's ``(leaf slot, steps)`` pairs, from which the
        kernel derives the per-branch argmin records (kind 1) or scores
        each leaf (kind 3)."""
        tree = self._tree
        root_depth = tree.depth(tree.root)
        slot_of = {v: q for q, v in enumerate(tree.leaves)}
        entries, off, slots, steps = [], [0], [], []
        for entry in tree.children(tree.root):
            entries.append(self.ni_of[entry])
            for leaf in tree.leaves_under(entry):
                slots.append(slot_of[leaf])
                steps.append(float(tree.depth(leaf) - root_depth))
            off.append(len(slots))
        return dict(
            entry_ni=_i32(entries), entry_leaf_off=_i32(off),
            entry_leaf_slot=_i32(slots),
            entry_leaf_steps=np.array(steps, dtype=np.float64),
        )

    def _least_loaded_tables(self) -> dict:
        """Root-children order for ``top_load``, and per leaf slot the
        position of ``R(leaf)`` in it and ``d_v`` — the candidate layout
        of :meth:`LeastLoadedAssignment._layout_for` (origin ``None``)."""
        tree = self._tree
        tops = tree.root_children
        return dict(
            tops_ni=_i32([self.ni_of[v] for v in tops]),
            leaf_top=_i32([tops.index(tree.top_router(v)) for v in tree.leaves]),
            leaf_d=np.array([float(tree.d(v)) for v in tree.leaves], dtype=np.float64),
        )

    def skips(self, instance: Instance, own: np.ndarray) -> np.ndarray:
        """Hops above each job's router origin (0 for root origins): a
        below-origin path is the leaf's root path minus that prefix."""
        tree = instance.tree
        skip = np.zeros(len(own), dtype=np.int32)
        origins, inverse = np.unique(instance.jobs.origins()[own], return_inverse=True)
        root_depth = tree.depth(tree.root)
        skip[own] = _i32([tree.depth(int(o)) - root_depth for o in origins])[inverse]
        return skip

    def job_paths(self, slot: np.ndarray, skip: np.ndarray | None):
        """``(paths, path_id)`` naming each job's processing path: the
        leaf root paths, or the distinct below-origin suffixes."""
        if skip is None or not skip.any():
            return self.paths, slot
        pair = slot.astype(np.int64) * (self.max_path + 1) + skip
        keys, path_id = np.unique(pair, return_inverse=True)
        width = self.max_path + 1
        paths = [self.paths[key // width][key % width:] for key in keys.tolist()]
        return paths, path_id


def topology_plan(instance: Instance, speeds: SpeedProfile, prio_kind: int) -> TopologyPlan:
    """The :class:`TopologyPlan` of the instance's tree, built on first
    use and kept on the tree under what else it reads (the endpoint
    setting, the speed profile and the priority kind): every instance
    on one tree shares it."""
    tree, setting = instance.tree, instance.setting
    key = (
        "c_plan", setting, speeds.root_children, speeds.interior, speeds.leaves,
        tuple(sorted(speeds.overrides.items())), prio_kind,
    )
    return tree._memo(key, lambda: TopologyPlan(tree, setting, speeds, prio_kind))


def _leaf_slots(leaf_ids: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Each chosen node's slot in ``tree.leaves`` (``-1``: not a leaf)."""
    span = int(leaf_ids.max()) + 1
    if chosen.dtype.kind in "iu" and span <= _MAX_ID_TABLE:
        # Small integer ids: one table read per job.
        table = np.full(span + 1, -1)
        table[leaf_ids] = np.arange(len(leaf_ids))
        return table[np.where((chosen >= 0) & (chosen < span), chosen, span)]
    # Large ids, or a fixed map holding other values: look each up as
    # the engine does.
    slot_of = {v: q for q, v in enumerate(leaf_ids.tolist())}
    return np.array([slot_of.get(v, -1) for v in chosen.tolist()], dtype=np.int64)


def _reject(instance: Instance, job, leaf) -> None:
    """Raise the python engine's arrival-path error for ``job`` assigned
    to ``leaf``: its checks, in its order, with its messages."""
    if leaf is MISSING:
        raise AssignmentError(f"no fixed assignment recorded for job {job.id}")
    if leaf not in instance.tree.leaves:
        raise AssignmentError(
            f"policy assigned job {job.id} to non-leaf node {leaf!r}"
        )
    try:
        instance.processing_path_for(job, leaf)
    except TopologyError as exc:
        raise AssignmentError(
            f"policy assigned job {job.id} to leaf {leaf} outside "
            f"its origin's subtree: {exc}"
        ) from exc
    raise AssignmentError(
        f"policy assigned job {job.id} to forbidden leaf {leaf} (p=inf)"
    )


def _resolve_static(plan: TopologyPlan, instance: Instance, policy):
    """Kind 0: every job's leaf slot from the policy's bulk rule (which
    consumes the policy's state — RNG draws, round-robin counter —
    exactly as one ``assign`` per arrival would), validated as the
    engine's arrival path validates it: the first offending job in
    release order raises, whatever the fault.  Returns the slot column
    and, when some job starts at a router, the skip column."""
    chosen = policy.assign_all(instance)
    slot = _leaf_slots(plan.leaf_ids, chosen)
    bad = slot < 0
    slot[bad] = 0
    mask = instance.feasible_mask()
    if mask is not None:
        bad |= ~mask[np.arange(len(slot)), slot]
    if bad.any():
        i = int(bad.argmax())
        _reject(instance, instance.jobs[i], chosen.item(i))
    own = instance.router_origins()
    skip = plan.skips(instance, own) if own.any() else None
    return slot.astype(np.int32), skip


class _Table(ctypes.Structure):
    """A kernel argument struct whose array fields are raw addresses
    (``ctypes.c_void_p``, the width of the C pointers).  Subclasses list
    their fields with :func:`_mirror`."""

    _arrays: dict[str, np.dtype] = {}

    def put(self, name: str, arr: np.ndarray | None) -> None:
        """Point array field ``name`` at ``arr``'s data (``None``: NULL),
        once ``arr`` is checked to hold C-contiguous elements of the
        field's type.  An address keeps nothing alive: the caller holds
        ``arr`` while the kernel may read it."""
        if arr is not None:
            want = self._arrays[name]
            if arr.dtype != want or not arr.flags.c_contiguous:
                raise TypeError(
                    f"kernel field {name} needs a C-contiguous {want} array, "
                    f"got {arr.dtype} (C-contiguous: {arr.flags.c_contiguous})"
                )
            arr = arr.ctypes.data
        setattr(self, name, arr)


def _mirror(fields):
    """``(_fields_, _arrays)`` of a C struct given as ``(name, type)``
    pairs in C order, where an array field's type is its element dtype
    code (``"i4"``, ``"i8"``, ``"u1"``, ``"f8"``)."""
    return (
        [(name, ctypes.c_void_p if isinstance(t, str) else t) for name, t in fields],
        {name: np.dtype(t) for name, t in fields if isinstance(t, str)},
    )


class _KernelArgs(_Table):
    """Field-for-field mirror of ``KernelArgs`` in ``engine_kernel.c``."""

    _fields_, _arrays = _mirror([
        ("n_jobs", ctypes.c_int64),
        ("n_nodes", ctypes.c_int64),
        ("max_path", ctypes.c_int64),
        ("max_events", ctypes.c_int64),
        ("policy_kind", ctypes.c_int64),
        ("use_agg", ctypes.c_int64),
        ("sjf", ctypes.c_int64),
        ("n_leaves", ctypes.c_int64),
        ("n_entries", ctypes.c_int64),
        ("n_tops", ctypes.c_int64),
        ("n_paths", ctypes.c_int64),
        ("n_dyn", ctypes.c_int64),
        ("weight", ctypes.c_double),
        ("ftol_atol", ctypes.c_double),
        ("ftol_rtol", ctypes.c_double),
        ("horizon", ctypes.c_double),
        ("chain_off", "i4"),
        ("chain_concat", "i4"),
        ("is_leaf", "u1"),
        ("enc", "u1"),
        ("speed", "f8"),
        ("path_off", "i4"),
        ("path_len", "i4"),
        ("path_concat", "i4"),
        ("rel", "f8"),
        ("size", "f8"),
        ("p_est", "f8"),
        ("job_id", "i8"),
        ("ftol_size", "f8"),
        ("rank", "i8"),
        ("job_path_id", "i4"),
        ("job_skip", "i4"),
        ("p_leaf_in", "f8"),
        ("ftol_leaf_in", "f8"),
        ("leaf_rank_in", "i8"),
        ("leaf_id", "i8"),
        ("leaf_ni", "i4"),
        ("leaf_path", "i4"),
        ("p_jv", "f8"),
        ("rank_jv", "i4"),
        ("entry_ni", "i4"),
        ("entry_leaf_off", "i4"),
        ("entry_leaf_slot", "i4"),
        ("entry_leaf_steps", "f8"),
        ("tops_ni", "i4"),
        ("leaf_top", "i4"),
        ("leaf_d", "f8"),
        ("ev_time", "f8"),
        ("ev_kind", "i4"),
        ("ev_arg", "i4"),
        ("out_path_id", "i4"),
        ("out_avail", "f8"),
        ("out_avail_cnt", "i4"),
        ("out_comp", "f8"),
        ("out_comp_cnt", "i4"),
        ("out_deficit", "f8"),
        ("out_cancel", "f8"),
        ("out_num_events", "i8"),
    ])


def _kernel_args(plan: TopologyPlan, *, kind: int, weight: float, **columns) -> _KernelArgs:
    """A copy of the plan's argument table for ``kind`` with ``columns``
    written in (array fields as raw addresses, scalar fields by value;
    ``None`` stays NULL).  The caller keeps the arrays referenced until
    the kernel returns."""
    args = _KernelArgs.from_buffer_copy(plan.template(kind))
    args.weight = weight if kind != 0 else 0.0
    for name, value in columns.items():
        if isinstance(value, np.ndarray):
            args.put(name, value)
        elif value is not None:
            setattr(args, name, value)
    return args


def _raise_status(status: int, max_events) -> None:
    if status == _ST_MAX_EVENTS:
        raise SimulationError(
            f"exceeded max_events={max_events}; likely a policy or engine bug"
        )
    if status == _ST_NOMEM:
        raise MemoryError("the engine kernel ran out of memory")
    raise SimulationError(f"engine kernel failed with status {status}")


def _tally(counters: EngineCounters, num_events: int) -> EngineCounters:
    """Complete a kernel run's counters, whose ``runs``, ``arrivals``,
    ``dyn_events`` and ``run_seconds`` the caller has set, from the
    kernel's event count (every arrival, dynamic event and hop
    completion it processed), and merge them into the process-wide
    aggregate, as the python engine does at the end of a run.  The
    kernel keeps no other tally: every other field stays 0."""
    counters.events_processed = num_events
    counters.completions = num_events - counters.arrivals - counters.dyn_events
    aggregate = global_counters()
    if aggregate is not None and aggregate is not counters:
        aggregate.merge(counters)
    return counters


class CEngine:
    """One simulation run on the compiled kernel.

    Construction plans and gates (raising :class:`CKernelInapplicable`
    when the kernel cannot express the call — the dispatcher then runs
    the python engine instead) and :meth:`run` precomputes the input
    columns, invokes ``repro_run`` once, and assembles the result.
    ``collect_counters`` works as on :class:`~repro.sim.engine.Engine`
    (``None``: on while the process-wide switch is); the result then
    carries the kernel's tallies (see :func:`_tally`).
    """

    def __init__(
        self,
        instance: Instance,
        policy: AssignmentPolicy,
        speeds: SpeedProfile | None = None,
        *,
        priority: PriorityFn = sjf_priority,
        record_segments: bool = False,
        check_invariants: bool = False,
        max_events: int = 10_000_000,
        events=None,
        collect_counters: bool | None = None,
    ) -> None:
        self.instance = instance
        self.policy = policy
        self.speeds = speeds or SpeedProfile.uniform(1.0)
        self.priority = priority
        self.max_events = max_events
        self._finished = False

        if record_segments or check_invariants:
            raise CKernelInapplicable(
                "segment recording / invariant checks need the python engine"
            )
        if events is not None and len(events):
            events.validate_for(instance)
            self._dyn = events.events
        else:
            self._dyn = ()
        self._kind, self._prio_kind = plan_kind(policy, priority, instance.setting)

        jobs = instance.jobs
        n = len(jobs)
        n_nodes = len(instance.tree.node_ids) - 1
        if n == 0:
            raise CKernelInapplicable("empty instance")
        if n > _MAX_JOBS or n * n_nodes > _MAX_DENSE_SLOTS:
            raise CKernelInapplicable("instance too large for dense buffers")
        if self._kind != 0 and instance.router_origins().any():
            raise CKernelInapplicable(
                f"{type(policy).__name__} with non-root job origins"
            )

        # The library is loaded (building it on first use) at plan time
        # so an unavailable compiler surfaces as CKernelUnavailable here,
        # before any policy state is consumed.
        self._dll = c_build.load_kernel()
        self._plan = topology_plan(instance, self.speeds, self._prio_kind)
        self._ev_cols = self._precompute_events() if self._dyn else {}
        if collect_counters is None:
            collect_counters = global_counters() is not None
        self._counters = EngineCounters(runs=1) if collect_counters else None

    def _job_cols(self, jobs: JobSet) -> dict:
        """The kernel's job columns: those the job set keeps (built on
        its first c call, read-only, and only ever read by the kernel)
        and the finish tolerances."""
        size = jobs.sizes()
        return dict(
            rel=jobs.releases(), size=size, job_id=jobs.job_ids(),
            # Policies score the masked job: its size estimate when
            # declared.  Heap ranks, aggregates and records keep the true
            # sizes.
            p_est=jobs.policy_sizes(),
            ftol_size=np.maximum(REMAINING_ATOL, REMAINING_RTOL * size),
            # Jobs come in (release, id) order, so FIFO's rank is the index.
            rank=(
                np.arange(len(jobs), dtype=np.int64)
                if self._prio_kind == 2 else jobs.size_ranks()
            ),
        )

    def _precompute_static(self, instance: Instance, job_cols: dict) -> dict:
        """Kind 0: the slot, skip, leaf-size, leaf-tolerance and
        (unrelated SJF) leaf-rank columns of every job."""
        slot, skip = _resolve_static(self._plan, instance, self.policy)
        cols = dict(job_path_id=slot, job_skip=skip)
        if instance.setting is Setting.IDENTICAL:
            cols.update(p_leaf_in=job_cols["size"], ftol_leaf_in=job_cols["ftol_size"])
            return cols
        p_leaf = instance.leaf_size_matrix()[np.arange(len(slot)), slot]
        cols.update(
            p_leaf_in=p_leaf,
            ftol_leaf_in=np.maximum(REMAINING_ATOL, REMAINING_RTOL * p_leaf),
        )
        if self._prio_kind == 1:
            # Leaf heaps order by (p_leaf, release, id); the dense rank of
            # p_leaf does, as for kinds 2-3 (see _leaf_size_cols).
            cols["leaf_rank_in"] = np.unique(p_leaf, return_inverse=True)[1]
        return cols

    def _leaf_size_cols(self, instance: Instance) -> dict:
        """Kinds 2-3 on unrelated endpoints: the n x leaves ``p_{j,v}``
        column (row-major by job, ``inf`` = forbidden) and, under SJF,
        the leaf heaps' ranks — both kept by the instance.  A rank only
        has to order a leaf's jobs like the engine's
        ``(p_{j,v}, release, id)`` keys: the dense rank of ``p_{j,v}``
        over the whole column does, because heap entries break rank ties
        by job index, and jobs are in ``(release, id)`` order."""
        cols = {"p_jv": instance.leaf_size_matrix().ravel()}
        if self._prio_kind == 1:
            cols["rank_jv"] = instance.leaf_size_ranks().ravel()
        return cols

    def _precompute_events(self) -> dict:
        """The schedule as kernel columns: time, kind, and the dense
        node index (outages) or job index (cancels; ``-1`` for ids the
        instance never releases, which the kernel treats as no-ops, as
        it does an index past a bounded run's jobs)."""
        ni_of = self._plan.ni_of
        kinds, args = [], []
        for ev in self._dyn:
            kinds.append(_EV_KIND[type(ev)])
            args.append(ev.job_id if type(ev) is Cancel else ni_of[ev.node])
        kind = np.array(kinds, dtype=np.int32)
        arg = np.array(args, dtype=np.int64)
        cancel = kind == _EV_KIND[Cancel]
        if cancel.any():
            # Job index of each cancelled id, through the id column.
            ids = self.instance.jobs.job_ids()
            by_id = np.argsort(ids)
            want = arg[cancel]
            pos = by_id[np.searchsorted(ids, want, sorter=by_id).clip(max=len(ids) - 1)]
            arg[cancel] = np.where(ids[pos] == want, pos, -1)
        return dict(
            ev_time=np.array([ev.time for ev in self._dyn], dtype=np.float64),
            ev_kind=kind,
            ev_arg=arg.astype(np.int32),
        )

    def run(self, *, until: float | None = None) -> SimulationResult:
        """Run the kernel once and assemble the result.  ``until`` bounds
        the run as :meth:`Engine.run <repro.sim.engine.Engine.run>` does:
        only the jobs released by then run, the events at or before it
        apply, jobs still in flight stay unfinished, and both integrals
        cover ``[0, until]``."""
        if self._finished:
            raise SimulationError("a CEngine instance can only run once")
        self._finished = True
        check_horizon(until)
        counters = self._counters
        started = perf_counter() if counters is not None else 0.0

        instance = self.instance
        horizon = math.inf
        if until is not None:
            horizon = until
            # The python engine never admits a job released later.
            admitted = int(np.searchsorted(instance.jobs.releases(), until, side="right"))
            if admitted < len(instance.jobs):
                instance = Instance(
                    instance.tree, JobSet(instance.jobs[:admitted]), instance.setting
                )
        jobs = instance.jobs
        n = len(jobs)
        job_cols = self._job_cols(jobs)
        kind = self._kind
        plan = self._plan
        cols = {}
        if kind == 0:
            # The bulk rule runs here, not at construction: it consumes
            # the policy object's state (RNG draws, round-robin counter)
            # exactly as a live arrival loop would, for the jobs run.
            cols = self._precompute_static(instance, job_cols)
        elif instance.setting is not Setting.IDENTICAL:
            cols = self._leaf_size_cols(instance)

        max_path = plan.max_path
        out_path_id = np.zeros(n, dtype=np.int32)
        out_avail = np.zeros((n, max_path), dtype=np.float64)
        out_avail_cnt = np.zeros(n, dtype=np.int32)
        out_comp = np.zeros((n, max_path), dtype=np.float64)
        out_comp_cnt = np.zeros(n, dtype=np.int32)
        out_deficit = np.zeros(n, dtype=np.float64)
        # NaN marks a job no cancel withdrew.
        out_cancel = np.full(n, np.nan)
        out_num_events = np.zeros(1, dtype=np.int64)
        args = _kernel_args(
            plan, kind=kind, weight=float(getattr(self.policy, "weight", 0.0)),
            n_jobs=n, max_events=self.max_events, horizon=horizon,
            use_agg=1 if kind == 2 else 0, n_dyn=len(self._dyn),
            out_path_id=out_path_id, out_avail=out_avail,
            out_avail_cnt=out_avail_cnt, out_comp=out_comp,
            out_comp_cnt=out_comp_cnt, out_deficit=out_deficit,
            out_cancel=out_cancel, out_num_events=out_num_events,
            **job_cols, **cols, **self._ev_cols,
        )
        status = self._dll.repro_run(ctypes.byref(args))
        if status != 0:
            _raise_status(status, self.max_events)
        if counters is not None:
            counters.run_seconds = perf_counter() - started
            counters.arrivals = n
            # The kernel applies the events at or before the horizon.
            counters.dyn_events = int(np.searchsorted(
                self._ev_cols.get("ev_time", ()), horizon, side="right"
            ))
            _tally(counters, int(out_num_events[0]))

        # The summary columns, in arrival order.  The id and release
        # columns are the engine's own inputs, which nothing writes after
        # planning; the result marks every column read-only.
        ids, rel = job_cols["job_id"], job_cols["rel"]
        skip = cols.get("job_skip")
        hops = plan.path_len[out_path_id]
        if skip is not None:
            hops = hops - skip
        completion = np.where(
            out_comp_cnt == hops, out_comp[np.arange(n), hops - 1], np.nan
        )
        if until is None:
            # SimulationResult.verify_complete's check, on the kernel's rows.
            unfinished = np.isnan(completion) & np.isnan(out_cancel)
            if unfinished.any():
                raise SimulationError(
                    f"jobs did not complete: {ids[unfinished][:10].tolist()}"
                )
        # A job in flight at the horizon is alive up to it.
        alive_integral, frac = flow_integrals(
            rel, completion, out_cancel, out_deficit, horizon
        )

        leaves = plan.leaf_ids[out_path_id]
        paths, path_id = plan.job_paths(out_path_id, skip)
        rows = KernelRows(
            jobs=jobs, paths=paths, path_id=path_id, leaf=leaves,
            avail=out_avail, avail_cnt=out_avail_cnt, comp=out_comp,
            comp_cnt=out_comp_cnt, cancel=out_cancel,
        )
        return SimulationResult(
            instance=self.instance,
            speeds=self.speeds,
            records=JobRecords(ids, rows=rows),
            job_ids=ids,
            releases=rel,
            leaves=leaves,
            completion_times=completion,
            cancel_times=out_cancel,
            fractional_flow=frac,
            alive_integral=alive_integral,
            num_events=int(out_num_events[0]),
            counters=counters,
        )


class _StepArgs(_Table):
    """Field-for-field mirror of ``StepArgs`` in ``engine_kernel.c``."""

    _fields_, _arrays = _mirror([
        ("n", ctypes.c_int64),
        ("until", ctypes.c_double),
        ("at", "f8"),
        ("rel", "f8"),
        ("size", "f8"),
        ("p_est", "f8"),
        ("est", "f8"),
        ("job_id", "i8"),
        ("p_jv", "f8"),
        ("leaf_slot", "i4"),
        ("skip", "i4"),
        ("out_cap", ctypes.c_int64),
        ("n_out", ctypes.c_int64),
        ("out_id", "i8"),
        ("out_rel", "f8"),
        ("out_comp", "f8"),
        ("out_est", "f8"),
        ("out_deficit", "f8"),
        ("out_leaf", "i4"),
        ("out_skip", "i4"),
        ("out_avail", "f8"),
        ("out_avail_cnt", "i4"),
        ("out_hops", "f8"),
        ("out_hops_cnt", "i4"),
        ("busy", "f8"),
        ("depth", "i8"),
        ("qvol", "f8"),
        ("through", "i8"),
        ("num_events", ctypes.c_int64),
        ("n_live", ctypes.c_int64),
        ("evicted_alive", ctypes.c_double),
        ("evicted_frac", ctypes.c_double),
    ])


#: The step's arrival columns (``_StepArgs`` fields).
_IN_COLUMNS = ("at", "rel", "size", "p_est", "est", "job_id", "leaf_slot", "skip")

#: The finished (or in-flight) rows it hands back.
_OUT_COLUMNS = (
    "out_id", "out_rel", "out_comp", "out_est", "out_deficit", "out_leaf",
    "out_skip", "out_avail_cnt", "out_hops_cnt",
)


class CStreamEngine:
    """An open-system stream on the compiled kernel, with the stream
    interface of :class:`~repro.sim.engine.Engine` (``stream_start`` /
    ``stream_step`` / ``stream_idle`` / ``stream_result``, ``now``,
    ``alive_count``): the engine of a c-backed
    :class:`~repro.service.session.StreamSession`, which always evicts
    finished jobs.

    The kernel session holds the live state across steps.  A step pulls
    the jobs released by its ``until`` from the source (with
    :class:`Engine`'s one-job lookahead and its ``time went backwards``
    check), resolves static policies for them with their bulk rule,
    passes their columns in one call, and reads back the jobs that
    finished — sorted by completion time, then id — and each node's
    busy time.  Construction raises :class:`CKernelInapplicable` when
    the kernel has no plan for the policy, priority and setting; a
    router-origin job reaching a greedy or least-loaded stream raises
    :class:`~repro.exceptions.SimulationError`.
    """

    def __init__(
        self,
        instance: Instance,
        policy: AssignmentPolicy,
        speeds: SpeedProfile | None = None,
        *,
        priority: PriorityFn = sjf_priority,
    ) -> None:
        self.instance = instance
        self.policy = policy
        self.speeds = speeds or SpeedProfile.uniform(1.0)
        self._kind, prio_kind = plan_kind(policy, priority, instance.setting)
        self._dll = dll = c_build.load_kernel()
        self._plan = plan = topology_plan(instance, self.speeds, prio_kind)
        tree = instance.tree
        self._root = tree.root
        self._leaves = tree.leaves
        self._unrelated = instance.setting is not Setting.IDENTICAL
        self._args = _kernel_args(
            plan, kind=self._kind, weight=float(getattr(policy, "weight", 0.0)),
            n_jobs=64, max_events=(1 << 62), use_agg=1, sjf=int(prio_kind == 1),
        )
        handle = dll.repro_session_open(ctypes.byref(self._args))
        if not handle:
            raise MemoryError("the engine kernel could not open a session")
        self._handle = ctypes.c_void_p(handle)
        self._free = weakref.finalize(self, dll.repro_session_free, self._handle)
        self._step = _StepArgs()
        self._step_ref = ctypes.byref(self._step)
        m = len(plan.order)
        self._busy = np.zeros(m, dtype=np.float64)
        self._step.put("busy", self._busy)
        self._in_cap = self._out_cap = 0
        self._grow_in(16)
        self._grow_out(64)
        self.now = 0.0
        self._clock = 0.0  # the python engine's clock at the last arrival
        self._alive = 0
        self._n_out = 0
        self.step_arrivals = 0  # jobs the last step admitted
        self._arrivals_iter = None
        self._pending_job = None
        self._source_error: BaseException | None = None
        self._result: SimulationResult | None = None
        self._counters = EngineCounters(runs=1) if global_counters() is not None else None

    # -- buffers ------------------------------------------------------
    def _grow_in(self, need: int) -> None:
        cap = max(need, 2 * self._in_cap)
        step = self._step
        for name in _IN_COLUMNS:
            arr = np.zeros(cap, dtype=step._arrays[name])
            setattr(self, "_" + name, arr)
            step.put(name, arr)
        # Set per step by _resolve, when some job starts at a router.
        step.skip = None
        if self._kind != 0:
            step.leaf_slot = None
        if self._unrelated:
            self._p_jv = np.zeros((cap, len(self._leaves)), dtype=np.float64)
            step.put("p_jv", self._p_jv)
        self._in_cap = cap

    def _grow_out(self, need: int) -> None:
        cap = max(need, 2 * self._out_cap)
        step = self._step
        for name in _OUT_COLUMNS:
            arr = np.zeros(cap, dtype=step._arrays[name])
            setattr(self, "_" + name, arr)
            step.put(name, arr)
        mp = self._plan.max_path
        self._out_avail = np.zeros((cap, mp), dtype=np.float64)
        self._out_hops = np.zeros((cap, mp), dtype=np.float64)
        step.put("out_avail", self._out_avail)
        step.put("out_hops", self._out_hops)
        step.out_cap = cap
        self._out_cap = cap

    # -- the stream interface ------------------------------------------
    @property
    def alive_count(self) -> int:
        """Number of admitted, unfinished jobs — O(1)."""
        return self._alive

    def stream_start(self, arrivals: Iterable) -> None:
        """Attach the lazy arrival source (see :meth:`Engine.stream_start`)."""
        if self._arrivals_iter is not None:
            raise SimulationError("a CStreamEngine instance can only run once")
        self._arrivals_iter = iter(arrivals)
        try:
            self._pending_job = next(self._arrivals_iter, None)
        except BaseException as exc:
            self._source_error = exc
            raise

    def stream_idle(self) -> bool:
        check_source(self._source_error)
        return self._pending_job is None and not self._alive

    def stream_step(self, *, until: float) -> float:
        """Advance the stream exactly to ``until`` (see
        :meth:`Engine.stream_step`); the jobs that finished are then
        readable through :meth:`take_finished`.  A step whose arrival
        source raises re-raises that exception having admitted none of
        its jobs, and fails the stream as the python engine's does."""
        self.step_arrivals = 0
        if self._arrivals_iter is None:
            raise SimulationError("stream_step() before stream_start()")
        check_source(self._source_error)
        if self._result is not None:
            raise SimulationError("stream_step() after stream_result()")
        if until < self.now - CLOCK_EPS:
            raise SimulationError(
                f"stream_step until={until} is before now={self.now}"
            )
        counters = self._counters
        started = perf_counter() if counters is not None else 0.0
        job = self._pending_job
        k = 0
        if job is not None and job.release <= until:
            k = self._admit(until)
        step = self._step
        step.n = k
        if until > self.now:
            self.now = until
        step.until = self.now
        if self._alive + k > self._out_cap:
            self._grow_out(self._alive + k)
        status = self._dll.repro_session_step(self._handle, self._step_ref)
        if status:
            _raise_status(status, None)
        self._n_out = step.n_out
        self._alive = step.n_live
        self.step_arrivals = k
        if counters is not None:
            counters.arrivals += k
            counters.run_seconds += perf_counter() - started
        return self.now

    def _admit(self, until: float) -> int:
        """Pull the jobs released by ``until`` into the step's columns;
        returns how many."""
        it = self._arrivals_iter
        job = self._pending_job
        clock = self._clock
        live = self._kind != 0
        root = self._root
        unrelated = self._unrelated
        jobs = []
        at = []
        while job is not None and job.release <= until:
            release = job.release
            # The python engine's clock: releases that go backwards by
            # less than CLOCK_EPS arrive at the current instant.
            if release > clock:
                clock = release
            elif release < clock - CLOCK_EPS:
                raise SimulationError(f"time went backwards: {clock} -> {release}")
            if (job.leaf_sizes is None) == unrelated:
                raise SimulationError(
                    f"job {job.id} {'lacks' if unrelated else 'has'} leaf_sizes "
                    f"but the session's context is {self.instance.setting.name}"
                )
            if live and job.origin is not None and job.origin != root:
                raise SimulationError(
                    f"job {job.id} originates at router {job.origin}: the c "
                    f"session's {type(self.policy).__name__} plan dispatches "
                    "root-origin jobs only"
                )
            jobs.append(job)
            at.append(clock)
            try:
                job = next(it, None)
            except BaseException as exc:
                self._source_error = exc
                raise
        self._pending_job = job
        self._clock = clock
        k = len(jobs)
        if k > self._in_cap:
            self._grow_in(k)
        self._at[:k] = at
        self._rel[:k] = [j.release for j in jobs]
        self._size[:k] = [j.size for j in jobs]
        self._p_est[:k] = [j.policy_size for j in jobs]
        self._est[:k] = [math.nan if j.size_estimate is None else j.size_estimate
                         for j in jobs]
        self._job_id[:k] = [j.id for j in jobs]
        if self._unrelated:
            get = itemgetter(*self._leaves)
            rows = [get(j.leaf_sizes) for j in jobs]
            self._p_jv[:k] = rows if len(self._leaves) > 1 else [[r] for r in rows]
        if not live:
            self._resolve(jobs)
        return k

    def _resolve(self, jobs: list) -> None:
        """Static policies: each run of the step's jobs that is already in
        (release, id) order goes through the bulk rule as one instance,
        so draws and counters advance exactly as one ``assign`` per
        arrival, in arrival order, would."""
        start = 0
        skip = None
        for end in range(1, len(jobs) + 1):
            if end < len(jobs) and (jobs[end - 1].release, jobs[end - 1].id) < (
                jobs[end].release, jobs[end].id
            ):
                continue
            chunk = Instance(
                self.instance.tree, JobSet(jobs[start:end]), self.instance.setting
            )
            slot, chunk_skip = _resolve_static(self._plan, chunk, self.policy)
            self._leaf_slot[start:end] = slot
            if chunk_skip is not None:
                if skip is None:
                    skip = self._skip
                    skip[:start] = 0
                skip[start:end] = chunk_skip
            elif skip is not None:
                skip[start:end] = 0
            start = end
        self._step.put("skip", self._skip if skip is not None else None)

    def take_finished(self, records: bool):
        """The jobs the last step finished, in (completion time, id)
        order: their flow times, their records when ``records``, and
        the cancelled jobs' records (none: a kernel session runs no
        dynamic events)."""
        n = self._n_out
        self._n_out = 0
        if not n:
            return (), (), ()
        comp, rel = self._out_comp[:n], self._out_rel[:n]
        flows = (comp - rel).tolist()
        return flows, (self._records(n) if records else ()), ()

    def busy_totals(self) -> list[float]:
        """Every node's cumulative busy time at :attr:`now`."""
        return self._busy.tolist()

    def _records(self, n: int) -> list[JobRecord]:
        """The first ``n`` output rows as :class:`JobRecord` objects."""
        plan = self._plan
        slots = self._out_leaf[:n]
        paths, path_id = plan.job_paths(slots, self._out_skip[:n])
        leaves = plan.leaf_ids[slots].tolist()
        avail = self._out_avail[:n].tolist()
        hops = self._out_hops[:n].tolist()
        out = []
        for r, (jid, rel, leaf, pid, na, nh, est) in enumerate(zip(
            self._out_id[:n].tolist(), self._out_rel[:n].tolist(), leaves,
            path_id.tolist(), self._out_avail_cnt[:n].tolist(),
            self._out_hops_cnt[:n].tolist(), self._out_est[:n].tolist(),
        )):
            out.append(JobRecord(
                jid, rel, leaf, paths[pid], avail[r][:na], hops[r][:nh], None,
                None if est != est else est,
            ))
        return out

    def stream_result(self, *, verify: bool = False) -> SimulationResult:
        """Close the stream (idempotent): settle every node at
        :attr:`now` and build the result over the jobs still in flight,
        with both integrals over every job.  ``trace`` is left for the
        session; ``gauge_state`` holds the nodes' final gauge columns."""
        if self._arrivals_iter is None:
            raise SimulationError("stream_result() before stream_start()")
        if self._result is not None:
            return self._result
        step = self._step
        m = len(self._plan.order)
        depth = np.zeros(m, dtype=np.int64)
        qvol = np.zeros(m, dtype=np.float64)
        through = np.zeros(m, dtype=np.int64)
        step.put("depth", depth)
        step.put("qvol", qvol)
        step.put("through", through)
        step.until = self.now
        if self._alive > self._out_cap:
            self._grow_out(self._alive)
        status = self._dll.repro_session_close(self._handle, self._step_ref)
        if status:
            _raise_status(status, None)
        self._free()
        n = step.n_out
        records = {r.job_id: r for r in self._records(n)}
        counters = self._counters
        if counters is not None:
            _tally(counters, step.num_events)
        result = SimulationResult.from_records(
            records, instance=self.instance, speeds=self.speeds,
            fractional_flow=0.0, alive_integral=0.0,
            num_events=int(step.num_events), counters=counters,
        )
        alive, frac = flow_integrals(
            result.releases, result.completion_times, result.cancel_times,
            self._out_deficit[:n].copy(), self.now,
        )
        result.alive_integral = step.evicted_alive + alive
        result.fractional_flow = step.evicted_frac + frac
        if verify:
            result.verify_complete()
        self.gauge_state = (
            depth.tolist(), qvol.tolist(), through.tolist(), self._busy.tolist()
        )
        self._result = result
        return result
