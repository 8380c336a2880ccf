"""Leaf-assignment policies of Section 3.4, plus a fixed-map policy.

Both greedy policies are *immediate dispatch*: they score every leaf at
the instant the job arrives using only currently observable state, and
commit to the argmin.  They implement exactly the expressions of
Section 3.4:

* identical endpoints — minimise
  ``F(j,v) + (6/ε²)·d_v·p_j``
  (the lower-priority-count term of the paper's displayed expression is
  part of ``F`` here, see :mod:`repro.core.fvalues`);
* unrelated endpoints — minimise
  ``F(j,v) + F'(j,v) + (6/ε²)·d_v·p_j``.

Ties break by leaf id, making runs fully deterministic.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from repro.core.fvalues import f_prime_value, f_top_value
from repro.exceptions import AssignmentError
from repro.sim.engine import SchedulerView
from repro.workload.instance import Instance
from repro.workload.job import Job

__all__ = [
    "GreedyIdenticalAssignment",
    "GreedyUnrelatedAssignment",
    "FixedAssignment",
    "MISSING",
    "path_is_blocked",
]


class _Missing:
    def __repr__(self) -> str:
        return "MISSING"


#: What :meth:`FixedAssignment.assign_all` reports for a job its map
#: lacks.
MISSING = _Missing()


def _check_eps(eps: float) -> float:
    if not math.isfinite(eps) or eps <= 0:
        raise AssignmentError(f"eps must be finite and > 0, got {eps}")
    return eps


def path_is_blocked(tree, leaf: int, downs, origin: int) -> bool:
    """Whether the processing path ``origin -> leaf`` crosses a node in
    ``downs`` (the origin itself performs no processing and is excluded).

    Down-aware policies use this to drop candidate leaves whose queue
    would stall behind a breakdown; it is a pure function of the static
    tree and the down set, which the compiled kernel re-evaluates over
    its path table.
    """
    root = tree.root
    v = leaf
    while v != origin and v != root:
        if v in downs:
            return True
        v = tree.parent(v)
    return False


def _downed_nodes(view) -> "frozenset[int] | None":
    """The view's current down set, or ``None`` for views predating the
    dynamic-events surface (audit shims, third-party fakes)."""
    fn = getattr(view, "downed_nodes", None)
    return fn() if fn is not None else None


def _filter_branch_records(tree, records, downs, origin):
    """Restrict per-branch greedy records to leaves whose path avoids
    ``downs``.  Returns the filtered records, or ``None`` when the down
    set touches no candidate (nothing to do) or excludes every leaf
    (the policy falls back to the unfiltered set — dispatch must still
    produce a leaf; the job simply stalls en route until the repair).
    """
    out = []
    changed = False
    for entry, leaves, min_steps, min_steps_leaf, min_leaf in records:
        keep = tuple(
            (lf, steps)
            for lf, steps in leaves
            if not path_is_blocked(tree, lf, downs, origin)
        )
        if len(keep) == len(leaves):
            out.append((entry, leaves, min_steps, min_steps_leaf, min_leaf))
            continue
        changed = True
        if not keep:
            continue
        ms, msl = min((s, lf) for lf, s in keep)
        ml = min(lf for lf, _ in keep)
        out.append((entry, keep, ms, msl, ml))
    if not changed or not out:
        return None
    return tuple(out)


class GreedyIdenticalAssignment:
    """Section 3.4's assignment rule for identical endpoints.

    Scores leaf ``v`` with ``F(j,v) + (6/ε²)·d_v·p_j`` and dispatches to
    the minimiser.  Since ``F(j,v)`` depends on ``v`` only through
    ``R(v)``, and the ``d_v`` term is monotone in depth, each branch has
    one precomputable argmin candidate (shallowest leaf, smallest id) —
    so an arrival costs one ``F`` evaluation plus O(1) per branch
    instead of O(1) per leaf.

    Parameters
    ----------
    eps:
        The ``ε`` of the analysis; sets the interior-traversal weight
        ``6/ε²``.
    """

    def __init__(self, eps: float) -> None:
        self.eps = _check_eps(eps)
        self.weight = 6.0 / (eps * eps)
        self._last_parts: tuple | None = None
        # origin -> tuple of per-entry records
        # (entry, ((leaf, steps), ...), min_steps, min_steps_leaf, min_leaf);
        # the tree is immutable, so the layout is computed once per origin
        # (profiling showed repeated depth()/leaves_under() lookups
        # dominating arrival cost on large instances).
        self._layout: dict[
            int, tuple[tuple[int, tuple[tuple[int, int], ...], int, int, int], ...]
        ] = {}

    @property
    def last_scores(self) -> dict[int, float] | None:
        """``leaf -> score`` of the most recent :meth:`assign` call (for
        the dual-fitting audit); materialised lazily so the hot path
        never builds the dict."""
        parts = self._last_parts
        if parts is None:
            return None
        kind = parts[0]
        if kind == "dict":
            return dict(parts[1])
        if kind == "identical":
            _, weight_p, bases, records = parts
            return {
                leaf: base + weight_p * steps
                for base, rec in zip(bases, records)
                for leaf, steps in rec[1]
            }
        _, weight_p, per_entry = parts
        return {
            leaf: base + weight_p * steps
            for base, leaves in per_entry
            for leaf, steps in leaves
        }

    def _entries_for(self, view: SchedulerView, origin: int):
        layout = self._layout.get(origin)
        if layout is None:
            tree = view.tree
            origin_depth = tree.depth(origin)
            records = []
            for entry in tree.children(origin):
                leaves = tuple(
                    (leaf, tree.depth(leaf) - origin_depth)
                    for leaf in tree.leaves_under(entry)
                )
                min_steps, min_steps_leaf = min(
                    (steps, leaf) for leaf, steps in leaves
                )
                min_leaf = min(leaf for leaf, _ in leaves)
                records.append((entry, leaves, min_steps, min_steps_leaf, min_leaf))
            layout = tuple(records)
            self._layout[origin] = layout
        return layout

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        tree = view.tree
        origin = job.origin if job.origin is not None else tree.root
        # Entry nodes: the first processing hop per branch.  For the
        # paper's root-origin jobs these are the root-adjacent nodes and
        # the score is exactly Section 3.4's; for the arbitrary-arrival
        # extension the same estimate prices the origin's children.
        best_leaf: int | None = None
        best_score = math.inf
        weight_p = self.weight * job.size
        records = self._entries_for(view, origin)
        downs = _downed_nodes(view)
        if downs:
            filtered = _filter_branch_records(tree, records, downs, origin)
            if filtered is not None:
                records = filtered
        bases = [f_top_value(view, job, rec[0]) for rec in records]
        if weight_p > 0.0:
            # score is strictly increasing in steps, so the branch
            # argmin by (score, leaf) is the (steps, leaf)-minimum.
            for base, rec in zip(bases, records):
                score = base + weight_p * rec[2]
                if score < best_score or (
                    score == best_score
                    and (best_leaf is None or rec[3] < best_leaf)
                ):
                    best_score = score
                    best_leaf = rec[3]
        else:
            for base, rec in zip(bases, records):
                if weight_p == 0.0:
                    # all leaves of the branch tie at ``base``
                    score = base
                    leaf = rec[4]
                else:  # pathological weight: fall back to the full scan
                    score, leaf = min(
                        (base + weight_p * steps, lf) for lf, steps in rec[1]
                    )
                if score < best_score or (
                    score == best_score and (best_leaf is None or leaf < best_leaf)
                ):
                    best_score = score
                    best_leaf = leaf
        if best_leaf is None:
            raise AssignmentError(f"job {job.id} has no reachable leaf")
        self._last_parts = ("identical", weight_p, bases, records)
        return best_leaf


class GreedyUnrelatedAssignment:
    """Section 3.4's assignment rule for unrelated endpoints.

    Scores leaf ``v`` with ``F(j,v) + F'(j,v) + (6/ε²)·d_v·p_j``,
    skipping forbidden leaves (``p_{j,v} = ∞``).  ``F'`` genuinely
    varies per leaf, so the per-leaf loop is inherent here.
    """

    def __init__(self, eps: float) -> None:
        self.eps = _check_eps(eps)
        self.weight = 6.0 / (eps * eps)
        self._last_parts: tuple | None = None
        self._layout: dict[
            int, tuple[tuple[int, tuple[tuple[int, int], ...], int, int, int], ...]
        ] = {}

    last_scores = GreedyIdenticalAssignment.last_scores
    _entries_for = GreedyIdenticalAssignment._entries_for

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        tree = view.tree
        origin = job.origin if job.origin is not None else tree.root
        downs = _downed_nodes(view)
        best_leaf, scores = self._scan(view, job, origin, downs)
        if best_leaf is None and downs:
            # every feasible leaf sits behind an outage: dispatch must
            # still pick one, so rescore ignoring the down set (the job
            # stalls en route until the repair).
            best_leaf, scores = self._scan(view, job, origin, None)
        if best_leaf is None:
            raise AssignmentError(f"job {job.id} has no feasible leaf")
        self._last_parts = ("dict", scores)
        return best_leaf

    def _scan(self, view, job, origin, downs):
        tree = view.tree
        best_leaf: int | None = None
        best_score = math.inf
        scores: dict[int, float] = {}
        weight_p = self.weight * job.size
        for entry, leaves, _, _, _ in self._entries_for(view, origin):
            base = f_top_value(view, job, entry)
            for leaf, steps in leaves:
                if not math.isfinite(job.processing_on_leaf(leaf)):
                    continue
                if downs and path_is_blocked(tree, leaf, downs, origin):
                    continue
                score = base + f_prime_value(view, job, leaf) + weight_p * steps
                scores[leaf] = score
                if score < best_score or (
                    score == best_score and (best_leaf is None or leaf < best_leaf)
                ):
                    best_score = score
                    best_leaf = leaf
        return best_leaf, scores


class FixedAssignment:
    """Dispatch according to a predetermined ``job id -> leaf`` map.

    Used by the general-tree algorithm (Section 3.7) to replay on ``T``
    the leaf choices made by the shadow broomstick simulation, and by
    tests that need full control of routing.
    """

    def __init__(self, mapping: dict[int, int]) -> None:
        self.mapping = dict(mapping)

    def assign(self, view: SchedulerView, job: Job, now: float) -> int:
        try:
            return self.mapping[job.id]
        except KeyError:
            raise AssignmentError(
                f"no fixed assignment recorded for job {job.id}"
            ) from None

    def assign_all(self, instance: Instance) -> np.ndarray:
        """:meth:`assign` of every job of ``instance``, in release order,
        as one array (of dtype object if the map holds non-integer ids
        or lacks a job, which it reports as :data:`MISSING`, so the
        caller raises for the first offending job, whatever its
        fault)."""
        ids = instance.jobs.job_ids().tolist()
        leaves = list(map(self.mapping.get, ids, repeat(MISSING)))
        out = np.array(leaves) if MISSING not in leaves else None
        if out is not None and out.dtype.kind in "iu":
            return out
        return np.array(leaves, dtype=object)
