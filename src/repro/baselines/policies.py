"""Baseline leaf-assignment policies (see package docstring)."""

from __future__ import annotations

import math

import numpy as np

from repro.core.assignment import path_is_blocked
from repro.exceptions import AssignmentError
from repro.sim.engine import SchedulerView
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job

__all__ = [
    "ClosestLeafAssignment",
    "RandomAssignment",
    "LeastLoadedAssignment",
    "RoundRobinAssignment",
]


def _origin_key(tree, job: Job) -> int | None:
    """The job's origin as a per-origin layout key (``None``: the whole
    tree, which root-origin jobs and unknown origins both see)."""
    origin = job.origin
    if origin is None or origin == tree.root or origin not in tree:
        return None
    return origin


def _feasible_leaves(view: SchedulerView, job: Job) -> tuple[int, ...]:
    """:meth:`Instance.feasible_leaves` of ``job``: its origin's leaves,
    minus the forbidden ones (``p_{j,v} = inf``).  A job without
    per-leaf sizes may run on every candidate, so it costs no scan."""
    tree = view.tree
    origin = _origin_key(tree, job)
    candidates = tree.leaves if origin is None else tree.leaves_under(origin)
    sizes = job.leaf_sizes
    if sizes is None:
        return candidates
    leaves = tuple(v for v in candidates if math.isfinite(sizes[v]))
    if not leaves:
        raise AssignmentError(f"job {job.id} has no feasible leaf")
    return leaves


def _feasible_counts(instance: Instance, mask: np.ndarray | None) -> np.ndarray:
    """``len(_feasible_leaves(...))`` of every job, from
    :meth:`Instance.feasible_mask` ``mask``."""
    if mask is None:
        return np.full(len(instance.jobs), instance.tree.num_leaves)
    return mask.sum(axis=1)


def _kth_feasible(instance: Instance, mask: np.ndarray | None, k: np.ndarray) -> np.ndarray:
    """``_feasible_leaves(...)[k]`` of every job (candidate order)."""
    leaves = np.array(instance.tree.leaves, dtype=np.int64)
    if mask is None:
        return leaves[k]
    # One pass per leaf, in candidate order, counting each job's
    # feasible leaves down to its k-th (a row-wise cumsum is slower).
    out = np.empty(len(k), dtype=np.int64)
    left = k.copy()
    for leaf, feasible in zip(leaves.tolist(), np.ascontiguousarray(mask.T)):
        out[(left == 0) & feasible] = leaf
        left -= feasible
    return out


class ClosestLeafAssignment:
    """Assign to the leaf minimising the job's own path volume
    ``P_{v,j}`` — the congestion-oblivious policy Section 3.1 rejects.

    In the identical setting this is simply the closest leaf; in the
    unrelated setting it additionally prefers fast machines.  Ties break
    by leaf id.

    Uniform-size jobs have ``P_{v,j} = d_v · p_j`` with ``p_j > 0``, so
    the ``(P_{v,j}, v)`` argmin is the static ``(d_v, v)`` minimum —
    cached once per origin.  Jobs carrying a per-leaf size map score
    ``(d_v - 1)·p_j + p_{j,v}`` (exactly
    :meth:`~repro.workload.instance.Instance.path_volume`) over a
    per-origin ``(leaf, d_v - 1)`` layout, skipping forbidden leaves.
    """

    def __init__(self) -> None:
        # origin key (None = whole tree) -> (d_v, v)-argmin leaf
        self._closest: dict[int | None, int] = {}
        # origin key -> ((leaf, d_v - 1), ...) in candidate order
        self._layout: dict[int | None, tuple[tuple[int, int], ...]] = {}

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        tree = view.tree
        origin = _origin_key(tree, job)
        sizes = job.leaf_sizes
        if sizes is None:
            best = self._closest.get(origin)
            if best is None:
                candidates = (
                    tree.leaves if origin is None else tree.leaves_under(origin)
                )
                best = min(candidates, key=lambda v: (tree.d(v), v))
                self._closest[origin] = best
            return best
        layout = self._layout.get(origin)
        if layout is None:
            candidates = tree.leaves if origin is None else tree.leaves_under(origin)
            layout = tuple((v, tree.d(v) - 1) for v in candidates)
            self._layout[origin] = layout
        p = job.size
        best = None
        best_score = math.inf
        for v, hops in layout:
            p_v = sizes[v]
            if not math.isfinite(p_v):
                continue
            score = hops * p + p_v
            if best is None or score < best_score or (score == best_score and v < best):
                best = v
                best_score = score
        if best is None:
            raise AssignmentError(f"job {job.id} has no feasible leaf")
        return best

    def assign_all(self, instance: Instance) -> np.ndarray:
        """:meth:`assign` of every job of ``instance`` (masked), in
        release order, as one leaf-id array: the same ``P_{v,j}`` scores,
        minimised over the feasible leaves in leaf-id order, so ties go
        to the smallest id (``tree.leaves`` is in preorder, not id
        order)."""
        tree = instance.tree
        by_id = np.argsort(tree.leaves)
        leaves = np.array(tree.leaves, dtype=np.int64)[by_id]
        d = np.array([tree.d(v) for v in tree.leaves], dtype=np.float64)[by_id]
        mask = instance.feasible_mask()
        if instance.setting is Setting.IDENTICAL:
            # P_{v,j} = d_v * p_j: the (d_v, v) minimum, whatever p_j is.
            if mask is None:
                return np.full(len(instance.jobs), leaves[d.argmin()])
            score = np.where(mask[:, by_id], d, math.inf)
        else:
            p = instance.jobs.policy_sizes()[:, None]
            score = (d - 1.0) * p + instance.leaf_size_matrix()[:, by_id]
            score[~mask[:, by_id]] = math.inf
        return leaves[score.argmin(axis=1)]


class RandomAssignment:
    """Assign to a uniformly random feasible leaf (seeded)."""

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self.rng = np.random.default_rng(rng)

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        leaves = _feasible_leaves(view, job)
        return int(leaves[int(self.rng.integers(len(leaves)))])

    def assign_all(self, instance: Instance) -> np.ndarray:
        """:meth:`assign` of every job of ``instance`` (masked), in
        release order, as one leaf-id array.  One vector draw with a
        per-job bound yields the same values, and leaves ``rng`` in the
        same state, as one scalar draw per job."""
        mask = instance.feasible_mask()
        k = self.rng.integers(_feasible_counts(instance, mask))
        return _kth_feasible(instance, mask, k)


class LeastLoadedAssignment:
    """Join the least-loaded branch: minimise queued volume ahead of the
    job, ignoring priorities.

    The score of leaf ``v`` is the total remaining volume queued at
    ``R(v)`` plus the total remaining leaf volume of jobs assigned to
    ``v`` plus the job's own path volume.  Congestion-aware but blind to
    SJF order — the natural "join shortest queue" heuristic.

    Both volume terms are O(1) reads of the engine's incremental
    congestion aggregates
    (:meth:`~repro.sim.engine.SchedulerView.queue_volume_at` at the
    root-adjacent node, where the queue is all of ``Q_v``, and
    :meth:`~repro.sim.engine.SchedulerView.volume_through` at the leaf),
    so an arrival costs O(leaves) instead of O(leaves × alive).  The
    tree is immutable, so ``(leaf, R(leaf), d_leaf)`` is precomputed
    once per origin — the repeated ``top_router``/``d``/feasibility
    lookups, not the volume reads, dominated arrival cost on large
    instances.  Jobs without per-leaf sizes score ``d_v · p_j`` for
    their own path volume directly (every leaf is feasible); only jobs
    carrying a leaf-size map pay the per-leaf ``p_{j,v}`` lookup and
    skip forbidden leaves.  Under an outage the policy is down-aware
    over the job's *feasible* leaves: blocked ones drop out unless that
    would leave none, in which case every feasible leaf stays.
    """

    def __init__(self) -> None:
        # origin (None = whole tree) -> ((leaf, R(leaf), d_leaf), ...)
        # in the same candidate order _feasible_leaves would produce.
        self._layout: dict[int | None, tuple[tuple[int, int, int], ...]] = {}

    def _layout_for(self, view: SchedulerView, job: Job):
        tree = view.tree
        origin = _origin_key(tree, job)
        layout = self._layout.get(origin)
        if layout is None:
            candidates = tree.leaves if origin is None else tree.leaves_under(origin)
            layout = tuple((v, tree.top_router(v), tree.d(v)) for v in candidates)
            self._layout[origin] = layout
        return layout

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        tree = view.tree
        p = job.size
        sizes = job.leaf_sizes
        layout = self._layout_for(view, job)
        downs_fn = getattr(view, "downed_nodes", None)
        downs = downs_fn() if downs_fn is not None else None
        if downs:
            origin = _origin_key(tree, job)
            if origin is None:
                origin = tree.root
            if sizes is not None:
                layout = tuple(e for e in layout if math.isfinite(sizes[e[0]]))
            kept = tuple(
                e for e in layout if not path_is_blocked(tree, e[0], downs, origin)
            )
            # keep every feasible leaf when the outage blocks them all:
            # dispatch must still pick one (the job stalls until repair).
            if kept and len(kept) < len(layout):
                layout = kept
        best_leaf: int | None = None
        best_score = math.inf
        top_load = {top: view.queue_volume_at(top) for top in tree.root_children}
        for v, top, d in layout:
            if sizes is None:
                own = d * p  # path_volume: (d-1)·p_j + p_{j,v} with p_{j,v} = p_j
            else:
                leaf_p = sizes[v]
                if not math.isfinite(leaf_p):
                    continue
                own = (d - 1) * p + leaf_p
            score = top_load[top] + view.volume_through(v) + own
            if score < best_score or (score == best_score and (best_leaf is None or v < best_leaf)):
                best_score = score
                best_leaf = v
        if best_leaf is None:
            raise AssignmentError(f"job {job.id} has no feasible leaf")
        return best_leaf


class RoundRobinAssignment:
    """Cycle through the leaves in ``tree.leaves`` order, skipping
    infeasible ones: job number ``k`` (counted over every call) takes
    its feasible leaf ``k mod |feasible|``."""

    def __init__(self) -> None:
        self._next = 0

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        leaves = _feasible_leaves(view, job)
        v = leaves[self._next % len(leaves)]
        self._next += 1
        return v

    def assign_all(self, instance: Instance) -> np.ndarray:
        """:meth:`assign` of every job of ``instance`` (masked), in
        release order, as one leaf-id array; the counter advances by the
        job count."""
        n = len(instance.jobs)
        mask = instance.feasible_mask()
        k = (self._next + np.arange(n)) % _feasible_counts(instance, mask)
        self._next += n
        return _kth_feasible(instance, mask, k)
