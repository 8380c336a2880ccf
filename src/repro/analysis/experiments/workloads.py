"""Shared workload builders for the experiments.

Each builder produces a named, fully seeded instance; experiments only
choose topology, load, and size family, so rows across experiments stay
comparable.

Trials of one sweep revisit the same few inputs, so each is built once
per process: :func:`standard_trees` builds its trees once, and each
instance function is a pure function of its arguments (the RNG is
seeded inside, the tree is keyed by identity), memoized for the last
:data:`INSTANCE_MEMO_SIZE` distinct calls.  The returned trees and
instances are shared between callers and must not be mutated.
"""

from __future__ import annotations

from functools import cache, lru_cache

import numpy as np

from repro.exceptions import AnalysisError
from repro.network.builders import (
    caterpillar_tree,
    datacenter_tree,
    kary_tree,
    random_tree,
    star_of_paths,
)
from repro.network.tree import TreeNetwork
from repro.workload.arrivals import adversarial_bursts, bursty_arrivals, poisson_arrivals
from repro.workload.instance import Instance, Setting
from repro.workload.job import JobSet
from repro.workload.sizes import bimodal_sizes, bounded_pareto_sizes, uniform_sizes
from repro.workload.unrelated import affinity_matrix, partition_matrix

__all__ = [
    "standard_trees",
    "identical_instance",
    "unrelated_instance",
    "burst_instance",
]


#: Distinct calls each instance function keeps memoized.  A T1 or T2
#: sweep revisits at most 3 instances per tree between repeats.
INSTANCE_MEMO_SIZE = 16


def standard_trees() -> dict[str, TreeNetwork]:
    """The topology families every sweep runs over: a new dict on every
    call, of the same (immutable) tree objects."""
    return dict(_standard_trees())


@cache
def _standard_trees() -> dict[str, TreeNetwork]:
    return {
        "kary(2,3)": kary_tree(2, 3),
        "caterpillar(4,2)": caterpillar_tree(4, 2),
        "paths(3,3)": star_of_paths(3, 3),
        "random(24)": random_tree(24, rng=7),
        "datacenter(2,2,3)": datacenter_tree(2, 2, 3),
    }


def _sizes(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "uniform":
        return uniform_sizes(n, 1.0, 4.0, rng)
    if kind == "pareto":
        return bounded_pareto_sizes(n, alpha=1.5, low=1.0, high=20.0, rng=rng)
    if kind == "bimodal":
        return bimodal_sizes(n, small=1.0, large=12.0, large_fraction=0.15, rng=rng)
    raise AnalysisError(f"unknown size kind {kind!r}")


@lru_cache(maxsize=INSTANCE_MEMO_SIZE)
def identical_instance(
    tree: TreeNetwork,
    n: int,
    *,
    load: float = 0.9,
    size_kind: str = "uniform",
    seed: int = 0,
    name: str = "",
) -> Instance:
    """Poisson arrivals at the given bottleneck load, identical setting.
    Memoized: the returned instance is shared and must not be mutated."""
    rng = np.random.default_rng(seed)
    sizes = _sizes(size_kind, n, rng)
    rate = Instance.poisson_rate_for_load(tree, float(sizes.mean()), load)
    releases = poisson_arrivals(n, rate, rng)
    return Instance(
        tree,
        JobSet.build(releases, sizes),
        Setting.IDENTICAL,
        name=name or f"identical/{size_kind}/load={load}",
    )


@lru_cache(maxsize=INSTANCE_MEMO_SIZE)
def unrelated_instance(
    tree: TreeNetwork,
    n: int,
    *,
    load: float = 0.8,
    matrix: str = "affinity",
    size_kind: str = "uniform",
    seed: int = 0,
    name: str = "",
) -> Instance:
    """Poisson arrivals with a structured unrelated-endpoint matrix.
    Memoized: the returned instance is shared and must not be mutated."""
    rng = np.random.default_rng(seed)
    sizes = _sizes(size_kind, n, rng)
    rate = Instance.poisson_rate_for_load(tree, float(sizes.mean()), load)
    releases = poisson_arrivals(n, rate, rng)
    if matrix == "affinity":
        rows = affinity_matrix(tree.leaves, sizes, fast_leaves=2, slow_factor=6.0, rng=rng)
    elif matrix == "partition":
        groups = max(2, tree.num_leaves // 3)
        rows = partition_matrix(tree.leaves, sizes, num_groups=groups, rng=rng)
    else:
        raise AnalysisError(f"unknown matrix kind {matrix!r}")
    return Instance(
        tree,
        JobSet.build(releases, sizes, rows),
        Setting.UNRELATED,
        name=name or f"unrelated/{matrix}/load={load}",
    )


@lru_cache(maxsize=INSTANCE_MEMO_SIZE)
def burst_instance(
    tree: TreeNetwork,
    *,
    num_bursts: int = 4,
    jobs_per_burst: int = 12,
    gap: float = 30.0,
    size_kind: str = "bimodal",
    seed: int = 0,
    bursty_process: bool = False,
    name: str = "",
) -> Instance:
    """Adversarial burst arrivals (identical setting) — the stress
    workload for the interior waiting bounds.  Memoized: the returned
    instance is shared and must not be mutated."""
    rng = np.random.default_rng(seed)
    n = num_bursts * jobs_per_burst
    sizes = _sizes(size_kind, n, rng)
    if bursty_process:
        releases = bursty_arrivals(
            n, burst_rate=4.0, idle_rate=0.1, mean_burst=jobs_per_burst, rng=rng
        )
    else:
        releases = adversarial_bursts(num_bursts, jobs_per_burst, gap, jitter=0.5, rng=rng)
    return Instance(
        tree,
        JobSet.build(releases, sizes),
        Setting.IDENTICAL,
        name=name or f"bursts/{size_kind}",
    )
