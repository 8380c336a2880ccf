"""The compiled (C) engine backend: planning, marshaling, results.

The heavy lifting lives in ``engine_kernel.c`` (built and loaded by
:mod:`repro.sim.backends.c_build`); this module is the Python half of
the contract:

* **Plan** — decide whether a simulation is *expressible* as one kernel
  call.  The kernel natively replays the built-in priorities (SJF /
  FIFO), dynamic-event schedules (outages, repairs, cancellations),
  size estimates, and every built-in policy: statically-decidable
  assignments (closest / random / round-robin / fixed — their choices
  depend only on the instance, so the policy's bulk rule
  ``assign_all(instance)`` resolves every job at once, equal to one
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
* **Marshal** — batch-precompute every input column as a numpy array
  (finished-tolerances, preorder topology, the leaf table, and the
  event columns when the schedule is non-empty) around the job columns
  the instance keeps — release, size, id, policy size, SJF rank and, in
  the unrelated setting, the n x leaves ``p_{j,v}`` matrix with its
  per-leaf SJF ranks, each built on the instance's first c call — so a
  warm call runs O(nodes) Python and none per job; allocate every
  output buffer, and
  hand the kernel one pointer-table struct (:class:`_KernelArgs`,
  field-for-field the C ``KernelArgs``).
* **Assemble** — derive the result's five summary columns and both
  flow integrals (sequential prefix sums over the jobs in arrival order)
  from the output buffers with a few numpy operations, and hand the
  rest of the buffers, named in a :class:`~repro.sim.result.KernelRows`,
  to :class:`~repro.sim.result.JobRecords`, which builds the
  :class:`~repro.sim.result.JobRecord` objects in one pass only when a
  record is first read.

Parity with the python engine's records is exact (``==``), not
tolerance-based: the kernel replays the same float ops in the same
order (see the C source header for the three rules), and the fuzz
battery (``repro fuzz --backends``) plus ``tests/test_backends.py``
enforce it.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from repro.core.assignment import (
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
from repro.sim.backends import c_build
from repro.sim.engine import AssignmentPolicy, PriorityFn, fifo_priority, sjf_priority
from repro.sim.result import JobRecords, KernelRows, SimulationResult, flow_integrals
from repro.sim.speed import SpeedProfile
from repro.sim.tolerances import REMAINING_ATOL, REMAINING_RTOL
from repro.workload.events import Cancel, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting

__all__ = ["CEngine", "CKernelInapplicable"]


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


class CKernelInapplicable(Exception):
    """This simulation cannot be expressed as a single kernel call."""


class _KernelArgs(ctypes.Structure):
    """Field-for-field mirror of ``KernelArgs`` in ``engine_kernel.c``."""

    _i32p = ctypes.POINTER(ctypes.c_int32)
    _i64p = ctypes.POINTER(ctypes.c_int64)
    _u8p = ctypes.POINTER(ctypes.c_uint8)
    _f64p = ctypes.POINTER(ctypes.c_double)
    _fields_ = [
        ("n_jobs", ctypes.c_int64),
        ("n_nodes", ctypes.c_int64),
        ("max_path", ctypes.c_int64),
        ("max_events", ctypes.c_int64),
        ("policy_kind", ctypes.c_int64),
        ("use_agg", ctypes.c_int64),
        ("n_leaves", ctypes.c_int64),
        ("n_entries", ctypes.c_int64),
        ("n_tops", ctypes.c_int64),
        ("n_paths", ctypes.c_int64),
        ("n_dyn", ctypes.c_int64),
        ("weight", ctypes.c_double),
        ("ftol_atol", ctypes.c_double),
        ("ftol_rtol", ctypes.c_double),
        ("chain_off", _i32p),
        ("chain_concat", _i32p),
        ("is_leaf", _u8p),
        ("enc", _u8p),
        ("speed", _f64p),
        ("path_off", _i32p),
        ("path_len", _i32p),
        ("path_concat", _i32p),
        ("rel", _f64p),
        ("size", _f64p),
        ("p_est", _f64p),
        ("job_id", _i64p),
        ("ftol_size", _f64p),
        ("rank", _i64p),
        ("job_path_id", _i32p),
        ("p_leaf_in", _f64p),
        ("ftol_leaf_in", _f64p),
        ("leaf_rank_in", _i64p),
        ("leaf_id", _i64p),
        ("leaf_ni", _i32p),
        ("leaf_path", _i32p),
        ("p_jv", _f64p),
        ("rank_jv", _i32p),
        ("entry_ni", _i32p),
        ("entry_leaf_off", _i32p),
        ("entry_leaf_slot", _i32p),
        ("entry_leaf_steps", _f64p),
        ("tops_ni", _i32p),
        ("leaf_top", _i32p),
        ("leaf_d", _f64p),
        ("ev_time", _f64p),
        ("ev_kind", _i32p),
        ("ev_arg", _i32p),
        ("out_path_id", _i32p),
        ("out_avail", _f64p),
        ("out_avail_cnt", _i32p),
        ("out_comp", _f64p),
        ("out_comp_cnt", _i32p),
        ("out_deficit", _f64p),
        ("out_cancel", _f64p),
        ("out_num_events", _i64p),
    ]


def _ptr(arr: np.ndarray | None, ctype):
    """``arr``'s data as a typed pointer (``None`` stays a NULL)."""
    if arr is None:
        return None
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


class CEngine:
    """One simulation run on the compiled kernel.

    Construction plans and gates (raising :class:`CKernelInapplicable`
    when the kernel cannot express the call — the dispatcher then runs
    the python engine instead) and :meth:`run` precomputes the input
    columns, invokes ``repro_run`` once, and assembles the result.
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
        if priority is sjf_priority:
            self._prio_kind = 1
        elif priority is fifo_priority:
            self._prio_kind = 2
        else:
            raise CKernelInapplicable("generic priority callables")

        jobs = instance.jobs
        n = len(jobs)
        tree = instance.tree
        n_nodes = len(tree.node_ids) - 1
        if n == 0:
            raise CKernelInapplicable("empty instance")
        if n > _MAX_JOBS or n * n_nodes > _MAX_DENSE_SLOTS:
            raise CKernelInapplicable("instance too large for dense buffers")
        self._identical = instance.setting is Setting.IDENTICAL

        ptype = type(policy)
        if ptype in _STATIC_POLICIES:
            self._kind = 0
        elif ptype in _LIVE_POLICIES:
            if instance.router_origins().any():
                raise CKernelInapplicable(
                    f"{ptype.__name__} with non-root job origins"
                )
            if ptype is GreedyIdenticalAssignment and not self._identical:
                raise CKernelInapplicable(
                    "greedy-identical on unrelated endpoints"
                )
            self._kind = _LIVE_POLICIES[ptype]
        else:
            raise CKernelInapplicable(
                f"policy {ptype.__name__} has no kernel plan"
            )

        # The library is loaded (building it on first use) at plan time
        # so an unavailable compiler surfaces as CKernelUnavailable here,
        # before any policy state is consumed.
        self._dll = c_build.load_kernel()

        # Static precompute — everything that does not consume policy
        # state — happens here (run() keeps the static policies' bulk
        # rule, the kernel call and result assembly).
        (
            self._is_leaf_a, self._speed_a, self._chain_off_a,
            self._chain_concat_a, self._enc_a,
        ) = self._plan_topology()
        # The job columns the instance keeps: built on its first c call,
        # read-only, and only ever read by the kernel.
        self._rel_a = jobs.releases()
        self._ids_a = jobs.job_ids()
        self._size_a = size = jobs.sizes()
        # Policies score the masked job: its size estimate when declared.
        # Heap ranks, aggregates and records keep the true sizes.
        self._p_est_a = jobs.policy_sizes()
        self._ftol_size_a = np.maximum(REMAINING_ATOL, REMAINING_RTOL * size)
        # Jobs come in (release, id) order, so FIFO's rank is the index.
        if self._prio_kind == 2:
            self._rank_a = np.arange(n, dtype=np.int64)
        else:
            self._rank_a = jobs.size_ranks()

        self._paths: list[tuple[int, ...]] = []
        self._pid_of: dict[tuple[int, ...], int] = {}
        # Every leaf's root-origin path, in tree.leaves order, so a leaf's
        # slot in tree.leaves is also its path id.
        for leaf in tree.leaves:
            self._path_id(tree.processing_path(leaf))
        self._leaf_ids = np.array(tree.leaves, dtype=np.int64)
        self._weight = 0.0
        self._leaf_cols = self._e_cols = self._ll_cols = self._jv_cols = None
        if self._kind != 0:
            self._leaf_cols = self._precompute_leaves()
            if self._kind == 2:
                self._ll_cols = self._precompute_least_loaded()
            else:
                self._e_cols = self._precompute_greedy()
                self._weight = float(policy.weight)
            if not self._identical:
                self._jv_cols = self._precompute_leaf_sizes()
        self._ev_cols = self._precompute_events() if self._dyn else None

    # ------------------------------------------------------------------
    # precompute
    # ------------------------------------------------------------------
    def _plan_topology(self):
        instance = self.instance
        tree = instance.tree
        root = tree.root
        order = [v for v in tree.node_ids if v != root]
        ni_of = {v: i for i, v in enumerate(order)}
        self._order = order
        self._ni_of = ni_of
        n_nodes = len(order)
        is_leaf = np.zeros(n_nodes, dtype=np.uint8)
        speed = np.empty(n_nodes, dtype=np.float64)
        chains: list[tuple[int, ...]] = [()] * n_nodes
        for v in order:
            ni = ni_of[v]
            is_leaf[ni] = tree.node(v).is_leaf
            speed[ni] = self.speeds.speed_of(tree, v)
            p = tree.parent(v)
            chains[ni] = (ni,) if p == root else chains[ni_of[p]] + (ni,)
        chain_off = np.zeros(n_nodes + 1, dtype=np.int32)
        for ni, ch in enumerate(chains):
            chain_off[ni + 1] = chain_off[ni] + len(ch)
        chain_concat = np.fromiter(
            (a for ch in chains for a in ch), dtype=np.int32,
            count=int(chain_off[-1]),
        )
        if self._prio_kind == 2:
            enc = np.ones(n_nodes, dtype=np.uint8)
        else:
            enc = np.where(is_leaf == 0, 1, 1 if self._identical else 0)
            enc = enc.astype(np.uint8)
        return is_leaf, speed, chain_off, chain_concat, enc

    def _path_id(self, path_ids: tuple[int, ...]) -> int:
        pid = self._pid_of.get(path_ids)
        if pid is None:
            pid = len(self._paths)
            self._pid_of[path_ids] = pid
            self._paths.append(path_ids)
        return pid

    def _precompute_static(self):
        """Kind 0: every job's leaf from the policy's bulk rule (which
        consumes the policy's state — RNG draws, round-robin counter —
        exactly as one ``assign`` per arrival would), validated as the
        engine's arrival path validates it.  Returns the path-id,
        leaf-size, leaf-tolerance and (unrelated SJF) leaf-rank
        columns."""
        instance = self.instance
        jobs = instance.jobs
        chosen = self.policy.assign_all(instance)
        slot = self._leaf_slots(chosen)
        rows = np.arange(len(slot))
        bad = slot < 0
        slot[bad] = 0
        mask = instance.feasible_mask()
        if mask is not None:
            bad |= ~mask[rows, slot]
        if bad.any():
            i = int(bad.argmax())
            self._reject(jobs[i], chosen.item(i))
        job_path_id = slot.astype(np.int32)
        own = np.flatnonzero(instance.router_origins())
        if len(own):
            # Below-origin paths, one lookup per distinct (origin, leaf).
            pairs = jobs.origins()[own] * len(self._leaf_ids) + slot[own]
            _, first, inverse = np.unique(
                pairs, return_index=True, return_inverse=True
            )
            pids = [
                self._path_id(instance.processing_path_for(
                    jobs[int(own[f])], int(self._leaf_ids[slot[own[f]]])
                ))
                for f in first
            ]
            job_path_id[own] = np.array(pids, dtype=np.int32)[inverse]
        if self._identical:
            return job_path_id, self._size_a, self._ftol_size_a, None
        p_leaf = instance.leaf_size_matrix()[rows, slot]
        ftol_leaf = np.maximum(REMAINING_ATOL, REMAINING_RTOL * p_leaf)
        leaf_rank = None
        if self._prio_kind == 1:
            # Leaf heaps order by (p_leaf, release, id); the dense rank of
            # p_leaf does, as for kinds 2-3 (see _precompute_leaf_sizes).
            leaf_rank = np.unique(p_leaf, return_inverse=True)[1]
        return job_path_id, p_leaf, ftol_leaf, leaf_rank

    def _leaf_slots(self, chosen: np.ndarray) -> np.ndarray:
        """Each chosen node's slot in ``tree.leaves`` (``-1``: not a
        leaf)."""
        leaves = self._leaf_ids
        span = int(leaves.max()) + 1
        if chosen.dtype.kind in "iu" and span <= _MAX_ID_TABLE:
            # Small integer ids: one table read per job.
            table = np.full(span + 1, -1)
            table[leaves] = np.arange(len(leaves))
            return table[np.where((chosen >= 0) & (chosen < span), chosen, span)]
        # Large ids, or a fixed map holding other values: look each up as
        # the engine does.
        slot_of = {v: q for q, v in enumerate(leaves.tolist())}
        return np.array([slot_of.get(v, -1) for v in chosen.tolist()])

    def _reject(self, job, leaf) -> None:
        """Raise the python engine's arrival-path error for ``job``
        assigned to ``leaf``: its checks, in its order, with its
        messages."""
        instance = self.instance
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

    def _precompute_leaves(self):
        """Kinds 1-3: the leaf table — id, node index and path id per
        leaf, in ``tree.leaves`` order (the policies' candidate order)."""
        leaves = self.instance.tree.leaves
        return (
            self._leaf_ids,
            np.array([self._ni_of[v] for v in leaves], dtype=np.int32),
            np.arange(len(leaves), dtype=np.int32),
        )

    def _precompute_least_loaded(self):
        """Kind 2: root-children order for ``top_load``, and per leaf
        slot the position of ``R(leaf)`` in it and ``d_v`` — the
        candidate layout of :meth:`LeastLoadedAssignment._layout_for`
        (origin ``None``)."""
        tree = self.instance.tree
        tops = tree.root_children
        return (
            np.array([self._ni_of[v] for v in tops], dtype=np.int32),
            np.array(
                [tops.index(tree.top_router(v)) for v in tree.leaves],
                dtype=np.int32,
            ),
            np.array([float(tree.d(v)) for v in tree.leaves], dtype=np.float64),
        )

    def _precompute_leaf_sizes(self):
        """Kinds 2-3 on unrelated endpoints: the n x leaves ``p_{j,v}``
        column (row-major by job, ``inf`` = forbidden) and, under SJF,
        the leaf heaps' ranks — both kept by the instance.  A rank only
        has to order a leaf's jobs like the engine's
        ``(p_{j,v}, release, id)`` keys: the dense rank of ``p_{j,v}``
        over the whole column does, because heap entries break rank ties
        by job index, and jobs are in ``(release, id)`` order."""
        instance = self.instance
        rank_jv = None
        if self._prio_kind == 1:
            rank_jv = instance.leaf_size_ranks().ravel()
        return instance.leaf_size_matrix().ravel(), rank_jv

    def _precompute_greedy(self):
        """Kinds 1 and 3: the root-adjacent entries of
        :meth:`GreedyIdenticalAssignment._entries_for` (root origin) and
        every branch's ``(leaf slot, steps)`` pairs, from which the
        kernel derives the per-branch argmin records (kind 1) or scores
        each leaf (kind 3) — over the leaves an outage leaves unblocked,
        when one does."""
        tree = self.instance.tree
        root = tree.root
        root_depth = tree.depth(root)
        slot_of = {v: q for q, v in enumerate(tree.leaves)}
        entries, off, slots, steps = [], [0], [], []
        for entry in tree.children(root):
            entries.append(self._ni_of[entry])
            for leaf in tree.leaves_under(entry):
                slots.append(slot_of[leaf])
                steps.append(float(tree.depth(leaf) - root_depth))
            off.append(len(slots))
        return (
            np.array(entries, dtype=np.int32),
            np.array(off, dtype=np.int32),
            np.array(slots, dtype=np.int32),
            np.array(steps, dtype=np.float64),
        )

    def _precompute_events(self):
        """The schedule as kernel columns: time, kind, and the dense
        node index (outages) or job index (cancels; ``-1`` for ids the
        instance never releases, which the kernel treats as no-ops)."""
        ni_of = self._ni_of
        kinds, args = [], []
        for ev in self._dyn:
            kinds.append(_EV_KIND[type(ev)])
            args.append(ev.job_id if type(ev) is Cancel else ni_of[ev.node])
        kind = np.array(kinds, dtype=np.int32)
        arg = np.array(args, dtype=np.int64)
        cancel = kind == _EV_KIND[Cancel]
        if cancel.any():
            # Job index of each cancelled id, through the id column.
            ids = self._ids_a
            by_id = np.argsort(ids)
            want = arg[cancel]
            pos = by_id[np.searchsorted(ids, want, sorter=by_id).clip(max=len(ids) - 1)]
            arg[cancel] = np.where(ids[pos] == want, pos, -1)
        return (
            np.array([ev.time for ev in self._dyn], dtype=np.float64),
            kind,
            arg.astype(np.int32),
        )

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        if self._finished:
            raise SimulationError("a CEngine instance can only run once")
        self._finished = True

        jobs = self.instance.jobs
        n = len(jobs)
        kind = self._kind
        e_cols = self._e_cols
        leaf_cols = self._leaf_cols
        ll_cols = self._ll_cols
        jv_cols = self._jv_cols
        ev_cols = self._ev_cols

        job_path_id = p_leaf = ftol_leaf = leaf_rank = None
        if kind == 0:
            # The bulk rule runs here, not at construction: it consumes
            # the policy object's state (RNG draws, round-robin counter)
            # exactly as a live arrival loop would.
            job_path_id, p_leaf, ftol_leaf, leaf_rank = self._precompute_static()

        path_len = np.array([len(p) for p in self._paths], dtype=np.int32)
        path_off = np.zeros(len(self._paths), dtype=np.int32)
        if len(self._paths) > 1:
            path_off[1:] = np.cumsum(path_len[:-1])
        ni_of = self._ni_of
        path_concat = np.fromiter(
            (ni_of[v] for p in self._paths for v in p),
            dtype=np.int32,
            count=int(path_len.sum()),
        )
        max_path = int(path_len.max())

        out_path_id = np.zeros(n, dtype=np.int32)
        out_avail = np.zeros((n, max_path), dtype=np.float64)
        out_avail_cnt = np.zeros(n, dtype=np.int32)
        out_comp = np.zeros((n, max_path), dtype=np.float64)
        out_comp_cnt = np.zeros(n, dtype=np.int32)
        out_deficit = np.zeros(n, dtype=np.float64)
        # NaN marks a job no cancel withdrew.
        out_cancel = np.full(n, np.nan)
        out_num_events = np.zeros(1, dtype=np.int64)
        if kind == 0:
            # Every path was chosen statically; echo them so result
            # assembly has one code path.
            out_path_id[:] = job_path_id

        i32, i64, u8, f64 = (
            ctypes.c_int32, ctypes.c_int64, ctypes.c_uint8, ctypes.c_double,
        )
        leaf_id, leaf_ni, leaf_path = leaf_cols or (None,) * 3
        tops_ni, leaf_top, leaf_d = ll_cols or (None,) * 3
        p_jv, rank_jv = jv_cols or (None, None)
        entry_ni, entry_off, entry_slot, entry_steps = e_cols or (None,) * 4
        ev_time, ev_kind, ev_arg = ev_cols or (None,) * 3
        args = _KernelArgs(
            n_jobs=n,
            n_nodes=len(self._order),
            max_path=max_path,
            max_events=self.max_events,
            policy_kind=kind,
            use_agg=1 if kind == 2 else 0,
            n_leaves=len(leaf_id) if leaf_cols else 0,
            n_entries=len(entry_ni) if e_cols else 0,
            n_tops=len(tops_ni) if ll_cols else 0,
            n_paths=len(self._paths),
            n_dyn=len(self._dyn),
            weight=self._weight,
            ftol_atol=REMAINING_ATOL,
            ftol_rtol=REMAINING_RTOL,
            chain_off=_ptr(self._chain_off_a, i32),
            chain_concat=_ptr(self._chain_concat_a, i32),
            is_leaf=_ptr(self._is_leaf_a, u8),
            enc=_ptr(self._enc_a, u8),
            speed=_ptr(self._speed_a, f64),
            path_off=_ptr(path_off, i32),
            path_len=_ptr(path_len, i32),
            path_concat=_ptr(path_concat, i32),
            rel=_ptr(self._rel_a, f64),
            size=_ptr(self._size_a, f64),
            p_est=_ptr(self._p_est_a, f64),
            job_id=_ptr(self._ids_a, i64),
            ftol_size=_ptr(self._ftol_size_a, f64),
            rank=_ptr(self._rank_a, i64),
            job_path_id=_ptr(job_path_id, i32),
            p_leaf_in=_ptr(p_leaf, f64),
            ftol_leaf_in=_ptr(ftol_leaf, f64),
            leaf_rank_in=_ptr(leaf_rank, i64),
            leaf_id=_ptr(leaf_id, i64),
            leaf_ni=_ptr(leaf_ni, i32),
            leaf_path=_ptr(leaf_path, i32),
            p_jv=_ptr(p_jv, f64),
            rank_jv=_ptr(rank_jv, i32),
            entry_ni=_ptr(entry_ni, i32),
            entry_leaf_off=_ptr(entry_off, i32),
            entry_leaf_slot=_ptr(entry_slot, i32),
            entry_leaf_steps=_ptr(entry_steps, f64),
            tops_ni=_ptr(tops_ni, i32),
            leaf_top=_ptr(leaf_top, i32),
            leaf_d=_ptr(leaf_d, f64),
            ev_time=_ptr(ev_time, f64),
            ev_kind=_ptr(ev_kind, i32),
            ev_arg=_ptr(ev_arg, i32),
            out_path_id=_ptr(out_path_id, i32),
            out_avail=_ptr(out_avail, f64),
            out_avail_cnt=_ptr(out_avail_cnt, i32),
            out_comp=_ptr(out_comp, f64),
            out_comp_cnt=_ptr(out_comp_cnt, i32),
            out_deficit=_ptr(out_deficit, f64),
            out_cancel=_ptr(out_cancel, f64),
            out_num_events=_ptr(out_num_events, i64),
        )
        status = self._dll.repro_run(ctypes.byref(args))
        if status == 1:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; "
                "likely a policy or engine bug"
            )
        if status != 0:
            raise SimulationError(f"engine kernel failed with status {status}")

        # The summary columns, in arrival order.  The id and release
        # columns are the engine's own inputs, which nothing writes after
        # planning; the result marks every column read-only.
        ids, rel = self._ids_a, self._rel_a
        hops = path_len[out_path_id]
        completion = np.where(
            out_comp_cnt == hops, out_comp[np.arange(n), hops - 1], np.nan
        )
        # SimulationResult.verify_complete's check, on the kernel's rows.
        unfinished = np.isnan(completion) & np.isnan(out_cancel)
        if unfinished.any():
            raise SimulationError(
                f"jobs did not complete: {ids[unfinished][:10].tolist()}"
            )
        # Every job ended, so no flow runs to a horizon.
        alive_integral, frac = flow_integrals(
            rel, completion, out_cancel, out_deficit, math.nan
        )

        leaves = np.array([p[-1] for p in self._paths], dtype=np.int64)[out_path_id]
        rows = KernelRows(
            jobs=jobs, paths=self._paths, path_id=out_path_id, leaf=leaves,
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
        )
