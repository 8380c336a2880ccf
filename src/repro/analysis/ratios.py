"""Competitive-ratio estimation.

The theorems bound ``ALG / OPT``.  ``OPT`` is bracketed here by:

* a **lower bound** — the paper's LP relaxation solved exactly when the
  instance is small enough, otherwise the best combinatorial bound of
  :mod:`repro.lp.bounds` (the report records which bound was used, since
  ratios against different bounds are only comparable within a column);
* optionally an **upper bound** — the best of the baseline portfolio at
  unit speed — which brackets how loose the lower bound itself is.

The lower bound depends only on the *instance* (plus the solver
configuration), never on the policy or speed being evaluated, yet a
(tree × policy × speed × seed) sweep naively re-solves it once per
cell.  :func:`lower_bound_cached` is the memoized service the trial
grids use instead: bounds are keyed by :func:`instance_digest` (a
content hash of topology, jobs, setting, and solver parameters) in a
process-local memo with an optional on-disk layer shared across worker
processes (:func:`set_lower_bound_disk_cache`).  Hits and misses are
tallied into the global :class:`~repro.sim.counters.EngineCounters`
aggregate when collection is enabled, so ``repro experiments
--counters`` shows the memo's hit rate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import AnalysisError, LPError
from repro.lp.bounds import best_lower_bound
from repro.lp.primal import solve_primal_lp
from repro.sim import counters as _counter_mod
from repro.sim.result import SimulationResult
from repro.sim.speed import SpeedProfile
from repro.workload.instance import Instance

__all__ = [
    "RatioReport",
    "lower_bound_for",
    "lower_bound_cached",
    "instance_digest",
    "set_lower_bound_disk_cache",
    "clear_lower_bound_memo",
    "lower_bound_memo_stats",
    "competitive_report",
]

#: Instances with at most this many (node, job, step) variables use the LP.
_LP_SIZE_BUDGET = 150_000


@dataclass(frozen=True)
class RatioReport:
    """One algorithm-vs-lower-bound comparison.

    Attributes
    ----------
    label:
        Name of the algorithm/configuration.
    total_flow / fractional_flow:
        The algorithm's objective values.
    lower_bound:
        The OPT lower bound used.
    bound_name:
        Which bound produced it (``"lp"`` or a combinatorial name).
    ratio:
        ``total_flow / lower_bound``.
    fractional_ratio:
        ``fractional_flow / lower_bound``.
    """

    label: str
    total_flow: float
    fractional_flow: float
    lower_bound: float
    bound_name: str
    ratio: float
    fractional_ratio: float


def _lp_size(instance: Instance) -> int:
    """Crude LP variable-count estimate used to gate the exact solve."""
    tree = instance.tree
    n = len(instance.jobs)
    m = tree.num_nodes - 1
    horizon = instance.jobs.time_horizon() + 2.0 * sum(
        (tree.height - 1) * j.size + j.size for j in instance.jobs
    )
    return int(m * n * max(horizon, 1.0))


def lower_bound_for(
    instance: Instance,
    *,
    prefer_lp: bool = True,
    dt: float = 1.0,
) -> tuple[float, str]:
    """A lower bound on the unit-speed optimum and the bound's name.

    Tries the exact LP when ``prefer_lp`` and the size estimate fits the
    budget; falls back to the best combinatorial bound.
    """
    if prefer_lp and _lp_size(instance) <= _LP_SIZE_BUDGET:
        try:
            sol = solve_primal_lp(instance, SpeedProfile.uniform(1.0), dt=dt)
            combo, combo_name = best_lower_bound(instance)
            if sol.objective >= combo:
                return sol.objective, "lp"
            return combo, combo_name
        except LPError:
            pass
    return best_lower_bound(instance)


# ----------------------------------------------------------------------
# memoized lower-bound service
# ----------------------------------------------------------------------

#: Bump when the digest payload or stored layout changes.
_MEMO_SCHEMA = 1

#: digest -> (bound, name); process-local layer of the service.
_memo: dict[str, tuple[float, str]] = {}

#: Optional on-disk layer shared across worker processes (the runner
#: points this under its cache directory); ``None`` = memory only.
_disk_dir: Path | None = None

#: Cumulative (hits, misses) for this process, independent of whether
#: global counter collection is on; exposed for tests and reports.
_stats = {"hits": 0, "misses": 0}


def instance_digest(
    instance: Instance, *, prefer_lp: bool = True, dt: float = 1.0
) -> str:
    """Content hash identifying one lower-bound computation.

    Covers everything the bound depends on: the tree's parent map, every
    job's release/size/origin/leaf-sizes, the endpoint setting, and the
    solver configuration (``prefer_lp``, ``dt``, the LP size budget —
    the bound is always taken at the unit speed profile).  Two instances
    that differ in any of these digest differently.
    """
    jobs = [
        (
            job.id,
            repr(job.release),
            repr(job.size),
            job.origin,
            sorted((v, repr(p)) for v, p in job.leaf_sizes.items())
            if job.leaf_sizes is not None
            else None,
        )
        for job in instance.jobs
    ]
    payload = json.dumps(
        {
            "schema": _MEMO_SCHEMA,
            "parents": sorted(instance.tree.parent_map().items()),
            "jobs": jobs,
            "setting": instance.setting.value,
            "prefer_lp": bool(prefer_lp),
            "dt": repr(dt),
            "lp_budget": _LP_SIZE_BUDGET,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def set_lower_bound_disk_cache(directory: str | Path | None) -> None:
    """Point the service's shared disk layer at ``directory`` (``None``
    disables it).  The runner calls this — in the parent and in every
    worker — so trials sharded across processes still share bounds."""
    global _disk_dir
    _disk_dir = Path(directory) if directory is not None else None


def clear_lower_bound_memo() -> None:
    """Drop the in-memory layer and zero the hit/miss statistics."""
    _memo.clear()
    _stats["hits"] = 0
    _stats["misses"] = 0


def lower_bound_memo_stats() -> dict[str, int]:
    """This process's cumulative ``{"hits": ..., "misses": ...}``."""
    return dict(_stats)


def _count(hit: bool) -> None:
    _stats["hits" if hit else "misses"] += 1
    tallies = _counter_mod.global_counters()
    if tallies is not None:
        if hit:
            tallies.lp_memo_hits += 1
        else:
            tallies.lp_memo_misses += 1


def _disk_load(digest: str) -> tuple[float, str] | None:
    if _disk_dir is None:
        return None
    try:
        with open(_disk_dir / f"{digest}.json") as fh:
            entry = json.load(fh)
        bound, name = float(entry["bound"]), str(entry["name"])
    except Exception:
        return None
    if not math.isfinite(bound):
        return None
    return bound, name


def _disk_store(digest: str, bound: float, name: str) -> None:
    if _disk_dir is None:
        return
    try:
        _disk_dir.mkdir(parents=True, exist_ok=True)
        tmp = _disk_dir / f"{digest}.tmp.{os.getpid()}"
        tmp.write_text(json.dumps({"bound": bound, "name": name}))
        os.replace(tmp, _disk_dir / f"{digest}.json")
    except OSError:
        pass  # the disk layer is best-effort; the bound is still returned


def lower_bound_cached(
    instance: Instance,
    *,
    prefer_lp: bool = True,
    dt: float = 1.0,
) -> tuple[float, str]:
    """Memoized :func:`lower_bound_for`.

    Identical return value (asserted by property test), solved at most
    once per distinct instance per process — and, when the disk layer is
    configured, once per distinct instance per *sweep* regardless of how
    trials shard over workers.  The digest is kept on the instance.
    """
    digest = instance._memo(
        ("lb_digest", bool(prefer_lp), repr(dt)),
        lambda: instance_digest(instance, prefer_lp=prefer_lp, dt=dt),
    )
    cached = _memo.get(digest)
    if cached is not None:
        _count(hit=True)
        return cached
    cached = _disk_load(digest)
    if cached is not None:
        _memo[digest] = cached
        _count(hit=True)
        return cached
    _count(hit=False)
    bound = lower_bound_for(instance, prefer_lp=prefer_lp, dt=dt)
    _memo[digest] = bound
    _disk_store(digest, *bound)
    return bound


def competitive_report(
    label: str,
    instance: Instance,
    result: SimulationResult,
    *,
    lower_bound: tuple[float, str] | None = None,
    prefer_lp: bool = True,
) -> RatioReport:
    """Build a :class:`RatioReport` for a finished run.

    ``lower_bound`` can be passed in to share one bound across many
    configurations of the same instance (the usual sweep pattern).
    """
    if lower_bound is None:
        lower_bound = lower_bound_for(instance, prefer_lp=prefer_lp)
    lb, name = lower_bound
    if lb <= 0:
        raise AnalysisError(f"non-positive lower bound {lb} ({name})")
    total = result.total_flow_time()
    frac = result.fractional_flow
    return RatioReport(
        label=label,
        total_flow=total,
        fractional_flow=frac,
        lower_bound=lb,
        bound_name=name,
        ratio=total / lb,
        fractional_ratio=frac / lb,
    )
