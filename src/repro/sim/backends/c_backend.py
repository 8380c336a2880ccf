"""The compiled (C) engine backend: planning, marshaling, results.

The heavy lifting lives in ``engine_kernel.c`` (built and loaded by
:mod:`repro.sim.backends.c_build`); this module is the Python half of
the contract:

* **Plan** — decide whether a simulation is *expressible* as one kernel
  call.  The kernel natively replays the built-in priorities (SJF /
  FIFO), dynamic-event schedules (outages, repairs, cancellations),
  size estimates, and three policy shapes: statically-decidable
  assignments (closest / random / round-robin / fixed — their choices
  depend only on the instance, so they are precomputed by calling the
  real policy object once per arrival on the masked job, consuming its
  RNG/counter state exactly as a live run would), the paper's
  greedy-identical rule, and the least-loaded baseline (both
  down-aware).  Anything else — generic priority callables, policies
  with dynamic state the kernel does not model, per-leaf-size greedy
  and least-loaded, origin-restricted greedy/least-loaded, segment
  recording — raises :class:`CKernelInapplicable`, and
  :func:`simulate_c` runs the python engine instead (same schedule,
  slower execution).
* **Marshal** — batch-precompute every input column as a numpy array
  (``np.lexsort`` priority ranks, finished-tolerances, preorder
  topology, and the event columns when the schedule is non-empty),
  allocate every output buffer, and hand the kernel one pointer-table
  struct (:class:`_KernelArgs`, field-for-field the C ``KernelArgs``).
* **Assemble** — turn the output columns back into a
  :class:`~repro.sim.result.SimulationResult`, with the per-job flow
  integrals summed in arrival order.

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

from repro.core.assignment import FixedAssignment, GreedyIdenticalAssignment
from repro.baselines.policies import (
    ClosestLeafAssignment,
    LeastLoadedAssignment,
    RandomAssignment,
    RoundRobinAssignment,
)
from repro.exceptions import AssignmentError, SimulationError, TopologyError
from repro.sim import engine as _engine
from repro.sim.backends import c_build
from repro.sim.engine import AssignmentPolicy, PriorityFn, fifo_priority, sjf_priority
from repro.sim.result import JobRecord, SimulationResult
from repro.sim.speed import SpeedProfile
from repro.sim.tolerances import REMAINING_ATOL, REMAINING_RTOL
from repro.workload.events import Cancel, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting

__all__ = ["CEngine", "CKernelInapplicable", "simulate_c"]


#: Upper bound on ``n_jobs * n_nodes``: the kernel's per-node heap and
#: pending buffers are dense (28 bytes/slot), so past this the python
#: engine's per-node heaps are the better memory trade.
_MAX_DENSE_SLOTS = 20_000_000

#: Packed heap entries carry the job index in the low 32 bits.
_MAX_JOBS = 1 << 30

#: ``ev_kind`` codes of the kernel's dynamic-event columns.
_EV_KIND = {NodeDown: 0, NodeUp: 1, Cancel: 2}

_STATIC_POLICIES = (
    ClosestLeafAssignment,
    RandomAssignment,
    RoundRobinAssignment,
    FixedAssignment,
)


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
        ("n_entries", ctypes.c_int64),
        ("n_tops", ctypes.c_int64),
        ("n_cands", ctypes.c_int64),
        ("n_paths", ctypes.c_int64),
        ("n_dyn", ctypes.c_int64),
        ("weight", ctypes.c_double),
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
        ("leaf_rank", _i64p),
        ("job_path_id", _i32p),
        ("p_leaf_in", _f64p),
        ("ftol_leaf_in", _f64p),
        ("entry_ni", _i32p),
        ("entry_leaf_off", _i32p),
        ("entry_leaf_id", _i64p),
        ("entry_leaf_steps", _f64p),
        ("entry_leaf_path", _i32p),
        ("tops_ni", _i32p),
        ("cand_leaf_id", _i64p),
        ("cand_leaf_ni", _i32p),
        ("cand_top_pos", _i32p),
        ("cand_d", _f64p),
        ("cand_path", _i32p),
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


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


class _StaticView:
    """The view handed to statically-decidable policies during the
    kind-0 precompute: arrival order, call count and the masked job
    match a live run exactly (one ``assign`` per job, in release
    order), so seeded RNGs and round-robin counters advance identically
    — but only the static surface (tree, instance, speeds) is exposed.
    The plan gate admits exactly the policy types that read nothing
    else."""

    __slots__ = ("instance", "speeds", "now")

    def __init__(self, instance: Instance, speeds: SpeedProfile) -> None:
        self.instance = instance
        self.speeds = speeds
        self.now = 0.0

    @property
    def tree(self):
        return self.instance.tree

    def speed_of(self, node: int) -> float:
        return self.speeds.speed_of(self.instance.tree, node)


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

        jobs = list(instance.jobs)
        n = len(jobs)
        self._jobs = jobs
        tree = instance.tree
        n_nodes = len(tree.node_ids) - 1
        if n == 0:
            raise CKernelInapplicable("empty instance")
        if n > _MAX_JOBS or n * n_nodes > _MAX_DENSE_SLOTS:
            raise CKernelInapplicable("instance too large for dense buffers")
        self._identical = instance.setting is Setting.IDENTICAL

        root = tree.root
        root_origins = all(j.origin is None or j.origin == root for j in jobs)
        uniform_sizes = all(
            j.leaf_sizes is None and math.isfinite(j.size) for j in jobs
        )
        if type(policy) is GreedyIdenticalAssignment:
            if not (
                self._prio_kind == 1
                and self._identical
                and root_origins
                and tree.root_children
            ):
                raise CKernelInapplicable(
                    "greedy-identical needs sjf + identical sizes + root origins"
                )
            self._kind = 1
        elif type(policy) is LeastLoadedAssignment:
            if not (uniform_sizes and root_origins):
                raise CKernelInapplicable(
                    "least-loaded needs uniform sizes + root origins"
                )
            self._kind = 2
        elif type(policy) in _STATIC_POLICIES:
            self._kind = 0
        else:
            raise CKernelInapplicable(
                f"policy {type(policy).__name__} has no kernel plan"
            )

        # The library is loaded (building it on first use) at plan time
        # so an unavailable compiler surfaces as CKernelUnavailable here,
        # before any policy state is consumed.
        self._dll = c_build.load_kernel()

        # Static precompute — everything that does not consume policy
        # state — happens here (run() keeps the policy replay, the
        # kernel call and result assembly).
        (
            self._is_leaf_a, self._speed_a, self._chain_off_a,
            self._chain_concat_a, self._enc_a,
        ) = self._plan_topology()
        rel = np.array([j.release for j in jobs], dtype=np.float64)
        size = np.array([j.size for j in jobs], dtype=np.float64)
        ids = np.array([j.id for j in jobs], dtype=np.int64)
        self._rel_a = rel
        self._size_a = size
        self._ids_a = ids
        # Policies score the masked job: its size estimate when declared.
        # Heap ranks, aggregates and records keep the true sizes.
        if any(j.size_estimate is not None for j in jobs):
            self._p_est_a = np.array(
                [j.policy_size for j in jobs], dtype=np.float64
            )
        else:
            self._p_est_a = size
        self._ftol_size_a = np.maximum(REMAINING_ATOL, REMAINING_RTOL * size)
        rank = np.empty(n, dtype=np.int64)
        if self._prio_kind == 2:
            rank[np.lexsort((ids, rel))] = np.arange(n)
        else:
            rank[np.lexsort((ids, rel, size))] = np.arange(n)
        self._rank_a = rank

        self._paths: list[tuple[int, ...]] = []
        self._pid_of: dict[tuple[int, ...], int] = {}
        self._leaf_pid: dict[int, int] = {}
        self._weight = 0.0
        self._e_cols = self._ll_cols = None
        self._p_leaf_a = np.empty(n, dtype=np.float64)
        self._ftol_leaf_a = np.empty(n, dtype=np.float64)
        self._job_path_id_a = np.zeros(n, dtype=np.int32)
        self._leaf_rank_a: np.ndarray | None = None
        if self._kind != 0:
            # Identical-leaf settings: p_{j,leaf} == p_j for every leaf
            # the policy can pick (kind gates enforce it).
            self._p_leaf_a[:] = size
            self._ftol_leaf_a[:] = self._ftol_size_a
            self._leaf_rank_a = self._leaf_ranks()
            if self._kind == 1:
                self._e_cols = self._precompute_greedy()
                self._weight = float(policy.weight)
            else:
                self._ll_cols = self._precompute_least_loaded()
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

    def _leaf_ranks(self) -> np.ndarray:
        """Leaf-heap order at unrelated-setting SJF leaves: the engine
        pushes ``(p_leaf, release, id)`` keys; per-leaf heaps never mix
        leaves, so one global rank orders each identically."""
        n = len(self._jobs)
        leaf_rank = np.empty(n, dtype=np.int64)
        leaf_rank[
            np.lexsort((self._ids_a, self._rel_a, self._p_leaf_a))
        ] = np.arange(n)
        return leaf_rank

    def _path_id(self, path_ids: tuple[int, ...]) -> int:
        pid = self._pid_of.get(path_ids)
        if pid is None:
            pid = len(self._paths)
            self._pid_of[path_ids] = pid
            self._paths.append(path_ids)
        return pid

    def _leaf_path_id(self, leaf: int) -> int:
        pid = self._leaf_pid.get(leaf)
        if pid is None:
            pid = self._path_id(self.instance.tree.processing_path(leaf))
            self._leaf_pid[leaf] = pid
        return pid

    def _precompute_static(self, p_leaf, ftol_leaf, job_path_id):
        """Kind 0: replay the policy per arrival (on the masked job)
        against the static view, validating exactly as the engine's
        arrival path."""
        instance = self.instance
        tree = instance.tree
        root = tree.root
        leaves = set(tree.leaves)
        view = _StaticView(instance, self.speeds)
        policy = self.policy
        for i, job in enumerate(self._jobs):
            view.now = job.release
            leaf = policy.assign(view, job.masked(), job.release)
            origin = job.origin
            if origin is None or origin == root:
                if leaf not in leaves:
                    raise AssignmentError(
                        f"policy assigned job {job.id} to non-leaf node {leaf!r}"
                    )
                pid = self._leaf_path_id(leaf)
            else:
                if leaf not in leaves:
                    raise AssignmentError(
                        f"policy assigned job {job.id} to non-leaf node {leaf!r}"
                    )
                try:
                    path = instance.processing_path_for(job, leaf)
                except TopologyError as exc:
                    raise AssignmentError(
                        f"policy assigned job {job.id} to leaf {leaf} outside "
                        f"its origin's subtree: {exc}"
                    ) from exc
                if not path:
                    raise AssignmentError(
                        f"job {job.id}: empty processing path to leaf {leaf}"
                    )
                pid = self._path_id(path)
            pl = (
                job.size
                if job.leaf_sizes is None
                else job.processing_on_leaf(leaf)
            )
            if not math.isfinite(pl):
                raise AssignmentError(
                    f"policy assigned job {job.id} to forbidden leaf {leaf} (p=inf)"
                )
            job_path_id[i] = pid
            p_leaf[i] = pl
            ft = REMAINING_RTOL * pl
            ftol_leaf[i] = ft if ft > REMAINING_ATOL else REMAINING_ATOL

    def _precompute_greedy(self):
        """Kind 1: the root-adjacent entries of
        :meth:`GreedyIdenticalAssignment._entries_for` (root origin) and
        every branch's ``(leaf, steps)`` pairs, from which the kernel
        derives the per-branch argmin records — over the leaves an
        outage leaves unblocked, when one does."""
        tree = self.instance.tree
        root = tree.root
        root_depth = tree.depth(root)
        entries, off, ids, steps, pids = [], [0], [], [], []
        for entry in tree.children(root):
            entries.append(self._ni_of[entry])
            for leaf in tree.leaves_under(entry):
                ids.append(leaf)
                steps.append(float(tree.depth(leaf) - root_depth))
                pids.append(self._leaf_path_id(leaf))
            off.append(len(ids))
        return (
            np.array(entries, dtype=np.int32),
            np.array(off, dtype=np.int32),
            np.array(ids, dtype=np.int64),
            np.array(steps, dtype=np.float64),
            np.array(pids, dtype=np.int32),
        )

    def _precompute_events(self):
        """The schedule as kernel columns: time, kind, and the dense
        node index (outages) or job index (cancels; ``-1`` for ids the
        instance never releases, which the kernel treats as no-ops)."""
        ni_of = self._ni_of
        idx_of = {jid: i for i, jid in enumerate(self._ids_a.tolist())}
        kinds, args = [], []
        for ev in self._dyn:
            kinds.append(_EV_KIND[type(ev)])
            if type(ev) is Cancel:
                args.append(idx_of.get(ev.job_id, -1))
            else:
                args.append(ni_of[ev.node])
        return (
            np.array([ev.time for ev in self._dyn], dtype=np.float64),
            np.array(kinds, dtype=np.int32),
            np.array(args, dtype=np.int32),
        )

    def _precompute_least_loaded(self):
        """Kind 2: root-children order for ``top_load`` plus the
        ``tree.leaves``-ordered candidate layout of
        :meth:`LeastLoadedAssignment._layout_for` (origin ``None``)."""
        tree = self.instance.tree
        tops = list(tree.root_children)
        top_pos = {v: q for q, v in enumerate(tops)}
        tops_ni = np.array([self._ni_of[v] for v in tops], dtype=np.int32)
        c_id, c_ni, c_top, c_d, c_path = [], [], [], [], []
        for v in tree.leaves:
            c_id.append(v)
            c_ni.append(self._ni_of[v])
            c_top.append(top_pos[tree.top_router(v)])
            c_d.append(float(tree.d(v)))
            c_path.append(self._leaf_path_id(v))
        return (
            tops_ni,
            np.array(c_id, dtype=np.int64),
            np.array(c_ni, dtype=np.int32),
            np.array(c_top, dtype=np.int32),
            np.array(c_d, dtype=np.float64),
            np.array(c_path, dtype=np.int32),
        )

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        if self._finished:
            raise SimulationError("a CEngine instance can only run once")
        self._finished = True

        jobs = self._jobs
        n = len(jobs)
        is_leaf, speed, chain_off, chain_concat, enc = (
            self._is_leaf_a, self._speed_a, self._chain_off_a,
            self._chain_concat_a, self._enc_a,
        )
        n_nodes = len(self._order)
        rel = self._rel_a
        size = self._size_a
        ftol_size = self._ftol_size_a
        rank = self._rank_a
        p_leaf = self._p_leaf_a
        ftol_leaf = self._ftol_leaf_a
        job_path_id = self._job_path_id_a
        kind = self._kind
        weight = self._weight
        e_cols = self._e_cols
        ll_cols = self._ll_cols
        ev_cols = self._ev_cols

        if kind == 0:
            # The policy replay lives in run(), not construction: it
            # consumes the policy object's state (RNG draws, round-robin
            # counters) exactly as a live arrival loop would.
            self._precompute_static(p_leaf, ftol_leaf, job_path_id)
            leaf_rank = self._leaf_ranks()
        else:
            leaf_rank = self._leaf_rank_a

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
        max_path = int(path_len.max()) if len(self._paths) else 1

        out_path_id = np.zeros(n, dtype=np.int32)
        out_avail = np.zeros(n * max_path, dtype=np.float64)
        out_avail_cnt = np.zeros(n, dtype=np.int32)
        out_comp = np.zeros(n * max_path, dtype=np.float64)
        out_comp_cnt = np.zeros(n, dtype=np.int32)
        out_deficit = np.zeros(n, dtype=np.float64)
        out_cancel = np.full(n, np.nan) if ev_cols else None
        out_num_events = np.zeros(1, dtype=np.int64)
        if kind == 0:
            # Every path was chosen statically; echo them so result
            # assembly has one code path.
            out_path_id[:] = job_path_id

        i32, i64, u8, f64 = (
            ctypes.c_int32, ctypes.c_int64, ctypes.c_uint8, ctypes.c_double,
        )
        args = _KernelArgs(
            n_jobs=n,
            n_nodes=n_nodes,
            max_path=max_path,
            max_events=self.max_events,
            policy_kind=kind,
            use_agg=1 if kind == 2 else 0,
            n_entries=len(e_cols[0]) if e_cols else 0,
            n_tops=len(ll_cols[0]) if ll_cols else 0,
            n_cands=len(ll_cols[1]) if ll_cols else 0,
            n_paths=len(self._paths),
            n_dyn=len(self._dyn),
            weight=weight,
            chain_off=_ptr(chain_off, i32),
            chain_concat=_ptr(chain_concat, i32),
            is_leaf=_ptr(is_leaf, u8),
            enc=_ptr(enc, u8),
            speed=_ptr(speed, f64),
            path_off=_ptr(path_off, i32),
            path_len=_ptr(path_len, i32),
            path_concat=_ptr(path_concat, i32),
            rel=_ptr(rel, f64),
            size=_ptr(size, f64),
            p_est=_ptr(self._p_est_a, f64),
            job_id=_ptr(self._ids_a, i64),
            ftol_size=_ptr(ftol_size, f64),
            rank=_ptr(rank, i64),
            leaf_rank=_ptr(leaf_rank, i64),
            job_path_id=_ptr(job_path_id, i32),
            p_leaf_in=_ptr(p_leaf, f64),
            ftol_leaf_in=_ptr(ftol_leaf, f64),
            entry_ni=_ptr(e_cols[0], i32) if e_cols else None,
            entry_leaf_off=_ptr(e_cols[1], i32) if e_cols else None,
            entry_leaf_id=_ptr(e_cols[2], i64) if e_cols else None,
            entry_leaf_steps=_ptr(e_cols[3], f64) if e_cols else None,
            entry_leaf_path=_ptr(e_cols[4], i32) if e_cols else None,
            tops_ni=_ptr(ll_cols[0], i32) if ll_cols else None,
            cand_leaf_id=_ptr(ll_cols[1], i64) if ll_cols else None,
            cand_leaf_ni=_ptr(ll_cols[2], i32) if ll_cols else None,
            cand_top_pos=_ptr(ll_cols[3], i32) if ll_cols else None,
            cand_d=_ptr(ll_cols[4], f64) if ll_cols else None,
            cand_path=_ptr(ll_cols[5], i32) if ll_cols else None,
            ev_time=_ptr(ev_cols[0], f64) if ev_cols else None,
            ev_kind=_ptr(ev_cols[1], i32) if ev_cols else None,
            ev_arg=_ptr(ev_cols[2], i32) if ev_cols else None,
            out_path_id=_ptr(out_path_id, i32),
            out_avail=_ptr(out_avail, f64),
            out_avail_cnt=_ptr(out_avail_cnt, i32),
            out_comp=_ptr(out_comp, f64),
            out_comp_cnt=_ptr(out_comp_cnt, i32),
            out_deficit=_ptr(out_deficit, f64),
            out_cancel=_ptr(out_cancel, f64) if ev_cols else None,
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

        # Per-job exact integrals, summed in arrival order.  The count
        # and scalar columns drop to plain python lists up front so the
        # loop touches no numpy scalars (tolist converts exactly).
        frac = 0.0
        alive_integral = 0.0
        records: dict[int, JobRecord] = {}
        paths = self._paths
        pid_l = out_path_id.tolist()
        avail_rows = out_avail.reshape(n, max_path)
        comp_rows = out_comp.reshape(n, max_path)
        avail_cnt = out_avail_cnt.tolist()
        comp_cnt = out_comp_cnt.tolist()
        deficit_l = out_deficit.tolist()
        # NaN (``c != c``) marks a job no cancel withdrew.
        cancel_l = (
            [None if c != c else c for c in out_cancel.tolist()]
            if ev_cols
            else [None] * n
        )
        for i, job in enumerate(jobs):
            path_ids = paths[pid_l[i]]
            comp = comp_rows[i, : comp_cnt[i]].tolist()
            ct = cancel_l[i]
            records[job.id] = JobRecord(
                job_id=job.id,
                release=job.release,
                leaf=path_ids[-1],
                path=path_ids,
                available_at=avail_rows[i, : avail_cnt[i]].tolist(),
                completed_at=comp,
                cancelled_at=ct,
                size_estimate=job.size_estimate,
            )
            if ct is not None:
                # Truncated model: a cancelled job contributes its flow
                # up to the cancel instant, fractional deficit included.
                flow = ct - job.release
            elif len(comp) == len(path_ids) and comp:
                flow = comp[-1] - job.release
            else:
                continue
            alive_integral += flow
            frac += flow - deficit_l[i]

        result = SimulationResult(
            instance=self.instance,
            speeds=self.speeds,
            records=records,
            fractional_flow=frac,
            alive_integral=alive_integral,
            num_events=int(out_num_events[0]),
            segments=None,
            counters=None,
            trace=None,
        )
        result.verify_complete()
        return result


def simulate_c(
    instance: Instance,
    policy: AssignmentPolicy,
    *,
    speeds: SpeedProfile | None = None,
    priority: PriorityFn = sjf_priority,
    record_segments: bool = False,
    check_invariants: bool = False,
    events=None,
) -> SimulationResult:
    """Simulate on the compiled kernel, falling back to the python
    engine for calls outside its plan (the schedule is identical).

    Raises :class:`~repro.sim.backends.c_build.CKernelUnavailable` when
    no working compiler exists — callers gate on
    :func:`repro.sim.backends.c_build.availability` first.
    """
    try:
        eng = CEngine(
            instance,
            policy,
            speeds,
            priority=priority,
            record_segments=record_segments,
            check_invariants=check_invariants,
            events=events,
        )
    except CKernelInapplicable:
        return _engine.simulate(
            instance,
            policy,
            speeds=speeds,
            priority=priority,
            record_segments=record_segments,
            check_invariants=check_invariants,
            events=events,
        )
    return eng.run()
