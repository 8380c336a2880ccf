"""Problem instances: a tree, a job set, and the endpoint setting.

:class:`Instance` is the unit every simulator, algorithm, LP, and
experiment consumes.  It validates that the jobs are compatible with the
tree (unrelated jobs must price every leaf) and centralises the paper's
processing-time notation:

* :meth:`Instance.processing_time` — ``p_{j,v}``;
* :meth:`Instance.path_volume` — ``P_{v,j}``, the total processing of a
  job over the whole root-to-leaf path (a per-job flow-time lower bound);
* :meth:`Instance.eta` — ``η_{j,v}``, the total processing on the path
  from the root to node ``v`` (used by the LP objective).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from repro.exceptions import WorkloadError
from repro.network.broomstick import BroomstickReduction
from repro.network.tree import TreeNetwork
from repro.workload.job import Job, JobSet

__all__ = ["Setting", "Instance"]


class Setting(enum.Enum):
    """Which endpoint model the instance lives in (Section 2)."""

    IDENTICAL = "identical"
    UNRELATED = "unrelated"


@dataclass(frozen=True)
class Instance:
    """A complete scheduling instance.

    Attributes
    ----------
    tree:
        The network topology.
    jobs:
        The job set, ordered by release time.
    setting:
        :class:`Setting` member; ``UNRELATED`` requires every job to carry
        ``leaf_sizes`` covering every leaf of ``tree``, ``IDENTICAL``
        requires no job to carry them.
    name:
        Optional label used in experiment reports.

    The derived matrices (:meth:`leaf_size_matrix`,
    :meth:`leaf_size_ranks`, :meth:`feasible_mask`), the broomstick
    translations (:meth:`on_broomstick`) and the lower-bound digest are
    built on first use and kept, read-only and unpickled, outside ``==``
    and ``repr``: the tree and the jobs are immutable, so they never go
    stale.  The compiled kernel's topology plans read only the tree, so
    they are kept on the tree (see :meth:`TreeNetwork._memo`).
    """

    tree: TreeNetwork
    jobs: JobSet
    setting: Setting
    name: str = ""

    def __post_init__(self) -> None:
        leaves = set(self.tree.leaves)
        for job in self.jobs:
            if self.setting is Setting.IDENTICAL:
                if job.is_unrelated:
                    raise WorkloadError(
                        f"job {job.id} has leaf_sizes but the instance is IDENTICAL"
                    )
            else:
                if not job.is_unrelated:
                    raise WorkloadError(
                        f"job {job.id} lacks leaf_sizes but the instance is UNRELATED"
                    )
                assert job.leaf_sizes is not None
                missing = leaves - set(job.leaf_sizes)
                if missing:
                    raise WorkloadError(
                        f"job {job.id} leaf_sizes missing leaves {sorted(missing)[:5]}"
                    )
                if all(math.isinf(job.leaf_sizes[v]) for v in leaves):
                    raise WorkloadError(f"job {job.id} has no feasible leaf")
            if job.origin is not None and job.origin != self.tree.root:
                if job.origin not in self.tree:
                    raise WorkloadError(
                        f"job {job.id}: origin {job.origin} is not in the tree"
                    )
                if self.tree.node(job.origin).is_leaf:
                    raise WorkloadError(
                        f"job {job.id}: origin {job.origin} is a leaf; data must "
                        "originate at the root or a router"
                    )
                under = self.tree.leaves_under(job.origin)
                if not any(
                    math.isfinite(job.processing_on_leaf(v)) for v in under
                ):
                    raise WorkloadError(
                        f"job {job.id}: no feasible leaf below origin {job.origin}"
                    )

    def __getstate__(self):
        # The kept matrices stay behind: unpickled arrays come back
        # writable, and they are cheap to rebuild.
        state = dict(vars(self))
        state.pop("_kept", None)
        return state

    def _memo(self, key, build):
        """``build()``, built on first use and kept under ``key``."""
        kept = vars(self).setdefault("_kept", {})
        if key not in kept:
            kept[key] = build()
        return kept[key]

    def _keep(self, name: str, build) -> np.ndarray | None:
        """``build()`` made read-only, built on first use and kept."""
        def frozen():
            arr = build()
            if arr is not None:
                arr.flags.writeable = False
            return arr

        return self._memo(name, frozen)

    # ------------------------------------------------------------------
    # job columns
    # ------------------------------------------------------------------
    def leaf_size_matrix(self) -> np.ndarray:
        """``p_{j,v}`` of every job on every leaf: a read-only
        ``n x leaves`` float array, rows in release order, columns in
        ``tree.leaves`` order, ``inf`` where forbidden.  In the identical
        setting each row repeats ``p_j`` (a broadcast view)."""
        return self._keep("p_jv", self._build_leaf_size_matrix)

    def _build_leaf_size_matrix(self) -> np.ndarray:
        n, leaves = len(self.jobs), self.tree.leaves
        if self.setting is Setting.IDENTICAL:
            return np.broadcast_to(self.jobs.sizes()[:, None], (n, len(leaves)))
        get = itemgetter(*leaves)
        rows = (get(job.leaf_sizes) for job in self.jobs)
        if len(leaves) == 1:
            rows = ((p,) for p in rows)
        p_jv = np.fromiter(
            chain.from_iterable(rows), dtype=np.float64, count=n * len(leaves)
        )
        return p_jv.reshape(n, len(leaves))

    def leaf_size_ranks(self) -> np.ndarray:
        """The dense rank of each :meth:`leaf_size_matrix` entry among
        all its distinct values, as a read-only int32 array of the same
        shape: equal sizes share a rank, and ranks order like sizes."""
        def build():
            p_jv = self.leaf_size_matrix()
            # searchsorted over the distinct values: no n x leaves sort
            # permutation is ever materialised.
            return np.searchsorted(np.unique(p_jv), p_jv).astype(np.int32)

        return self._keep("rank_jv", build)

    def router_origins(self) -> np.ndarray:
        """Whether each job (in release order) originates at a router
        rather than the root."""
        origins = self.jobs.origins()
        return (origins >= 0) & (origins != self.tree.root)

    def feasible_mask(self) -> np.ndarray | None:
        """:meth:`feasible_leaves` of every job at once: a read-only
        ``n x leaves`` boolean array, rows in release order, columns in
        ``tree.leaves`` order — or ``None`` when every job may run on
        every leaf (identical endpoints, root origins).  Built on first
        use and kept."""
        return self._keep("feasible", self._build_feasible_mask)

    def _build_feasible_mask(self) -> np.ndarray | None:
        tree = self.tree
        origins = self.jobs.origins()
        own = self.router_origins()
        mask = None
        if own.any():
            keys, index = np.unique(
                np.where(own, origins, tree.root), return_inverse=True
            )
            under = np.array(
                [np.isin(tree.leaves, tree.leaves_under(int(k))) for k in keys]
            )
            mask = under[index]
        if self.setting is Setting.UNRELATED:
            finite = np.isfinite(self.leaf_size_matrix())
            mask = finite if mask is None else mask & finite
        return mask

    # ------------------------------------------------------------------
    # the paper's processing-time notation
    # ------------------------------------------------------------------
    def processing_time(self, job: Job, node: int) -> float:
        """``p_{j,v}``: the processing of ``job`` on ``node``.

        Routers always cost ``p_j``; leaves cost ``p_j`` in the identical
        setting and ``p_{j,v}`` in the unrelated one.
        """
        if self.tree.node(node).is_leaf:
            return job.processing_on_leaf(node)
        return job.size

    def path_volume(self, job: Job, leaf: int) -> float:
        """``P_{v,j}``: total processing over the path to ``leaf``.

        With ``d`` nodes on the processing path this is
        ``(d-1)·p_j + p_{j,leaf}``.  It lower-bounds the job's flow time
        if assigned to ``leaf`` (at unit speeds).
        """
        d = self.tree.d(leaf)
        return (d - 1) * job.size + job.processing_on_leaf(leaf)

    def eta(self, job: Job, node: int) -> float:
        """``η_{j,v}``: total processing on the root-to-``v`` path.

        Equals :meth:`path_volume` when ``v`` is a leaf.
        """
        if self.tree.node(node).is_leaf:
            return self.path_volume(job, node)
        return self.tree.d(node) * job.size

    def feasible_leaves(self, job: Job) -> tuple[int, ...]:
        """Leaves the job may run on: finite processing time, and inside
        the origin's subtree when the job has a non-root origin."""
        if job.origin is not None and job.origin != self.tree.root:
            candidates = self.tree.leaves_under(job.origin)
        else:
            candidates = self.tree.leaves
        return tuple(
            v for v in candidates if math.isfinite(job.processing_on_leaf(v))
        )

    def processing_path_for(self, job: Job, leaf: int) -> tuple[int, ...]:
        """The nodes ``job`` is processed on when assigned to ``leaf``.

        For root-origin jobs this is the usual processing path; for a
        router origin it is the path strictly below the origin.
        """
        if job.origin is None or job.origin == self.tree.root:
            return self.tree.processing_path(leaf)
        path = self.tree.path_between(job.origin, leaf)
        return path[1:]

    def min_path_volume(self, job: Job) -> float:
        """The smallest ``P_{v,j}`` over feasible leaves.

        The per-job flow-time lower bound used by the combinatorial
        bounds in :mod:`repro.lp.bounds`.
        """
        best = math.inf
        for v in self.tree.leaves:
            p = job.processing_on_leaf(v)
            if math.isfinite(p):
                best = min(best, (self.tree.d(v) - 1) * job.size + p)
        return best

    # ------------------------------------------------------------------
    # load accounting
    # ------------------------------------------------------------------
    def tier_utilisations(self) -> dict[str, float]:
        """Rough offered-load estimates for the two capacity tiers.

        ``root_children``: total router volume that must cross the
        root-adjacent tier divided by (tier width × makespan window).
        ``leaves``: total minimum leaf volume divided by
        (leaf count × window).  The window is the arrival span plus one
        mean job size, so single-burst instances do not divide by zero.
        Purely diagnostic — used to label experiment rows.
        """
        n = len(self.jobs)
        if n == 0:
            return {"root_children": 0.0, "leaves": 0.0}
        sizes = self.jobs.sizes()
        window = float(self.jobs.time_horizon()) + float(sizes.mean())
        top_volume = float(sizes.sum())
        leaf_volume = 0.0
        for job in self.jobs:
            best = min(
                (
                    job.processing_on_leaf(v)
                    for v in self.tree.leaves
                    if math.isfinite(job.processing_on_leaf(v))
                ),
                default=0.0,
            )
            leaf_volume += best
        width_top = len(self.tree.root_children)
        width_leaf = self.tree.num_leaves
        return {
            "root_children": top_volume / (width_top * window),
            "leaves": leaf_volume / (width_leaf * window),
        }

    @staticmethod
    def poisson_rate_for_load(
        tree: TreeNetwork, mean_size: float, load: float
    ) -> float:
        """The Poisson rate that offers ``load`` to the tighter tier.

        With arrival rate ``λ`` and mean router size ``E[p]``, the
        root-adjacent tier of width ``|R|`` sees utilisation
        ``λ·E[p]/|R|`` (in the best balanced case) and the leaf tier of
        width ``|L|`` sees ``λ·E[p]/|L|``.  The returned rate makes the
        *smaller* tier hit ``load``.
        """
        if mean_size <= 0:
            raise WorkloadError(f"mean_size must be > 0, got {mean_size}")
        if load <= 0:
            raise WorkloadError(f"load must be > 0, got {load}")
        width = min(len(tree.root_children), tree.num_leaves)
        return load * width / mean_size

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def on_broomstick(self, reduction: BroomstickReduction) -> "Instance":
        """This instance translated onto the broomstick ``T'``.

        Router sizes are unchanged; in the unrelated setting each job's
        leaf mapping is re-keyed through the reduction's leaf
        correspondence (Section 3.3: a copied leaf keeps the original
        leaf's processing time).  Built once per reduction and kept, so
        repeated calls share one instance.
        """
        if reduction.original is not self.tree and (
            reduction.original.parent_map() != self.tree.parent_map()
        ):
            raise WorkloadError("reduction was built from a different tree")
        # A reduction holds dicts, so it is keyed by identity; the entry
        # keeps it alive, so its id cannot be reused while kept.
        return self._memo(
            ("broomstick", id(reduction)),
            lambda: (reduction, self._translate(reduction)),
        )[1]

    def _translate(self, reduction: BroomstickReduction) -> "Instance":
        if self.setting is Setting.IDENTICAL:
            jobs = self.jobs
        else:
            remapped = []
            for job in self.jobs:
                assert job.leaf_sizes is not None
                remapped.append(
                    job.with_leaf_sizes(
                        {
                            reduction.leaf_map[v]: p
                            for v, p in job.leaf_sizes.items()
                            if v in reduction.leaf_map
                        }
                    )
                )
            jobs = JobSet(remapped)
        return Instance(
            tree=reduction.broomstick,
            jobs=jobs,
            setting=self.setting,
            name=f"{self.name}::broomstick" if self.name else "broomstick",
        )

    def rounded(self, eps: float) -> "Instance":
        """A copy with every processing time rounded up to a
        ``(1+ε)`` power (Section 2's class assumption)."""
        from repro.workload.sizes import round_to_classes

        new_jobs = []
        for job in self.jobs:
            size = float(round_to_classes(np.array([job.size]), eps)[0])
            leaf_sizes = None
            if job.leaf_sizes is not None:
                leaf_sizes = {
                    v: (
                        p
                        if math.isinf(p)
                        else float(round_to_classes(np.array([p]), eps)[0])
                    )
                    for v, p in job.leaf_sizes.items()
                }
            new_jobs.append(Job(job.id, job.release, size, leaf_sizes, job.origin))
        return Instance(self.tree, JobSet(new_jobs), self.setting, self.name)

    def __repr__(self) -> str:
        return (
            f"Instance(name={self.name!r}, setting={self.setting.value}, "
            f"tree={self.tree!r}, jobs={len(self.jobs)})"
        )
