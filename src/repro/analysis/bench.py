"""Engine benchmark harness behind ``repro bench``.

Three suites, all deterministic in everything except wall-clock:

* **Scaling sweep** — the S1 workload (datacenter tree, identical jobs,
  the paper's greedy policy) at growing job counts, per engine backend
  (``python`` and ``c``); reports events/s, jobs/s and wall seconds
  per size.  Near-linear scaling here is the acceptance bar for the
  incremental congestion aggregates; the backend ratio tracks progress
  toward the 1M ev/s target.
* **Policy microbenchmarks** — every CLI policy on one mid-size
  instance, per backend, so a change to a single policy's arrival cost
  is visible in isolation from the engine.
* **Registry timing** — the full experiment registry through the runner
  on one worker versus on the machine's cores (cache disabled for
  both), so the trial-sharding speedup is tracked alongside raw engine
  throughput.  Speedup is bounded by the worker count (about 1 on a
  single core).

``run_bench`` returns a JSON-ready dict (schema ``bench_engine/v3``:
the ``scaling`` and ``policies`` suites nest one section per backend);
the CLI writes it to ``BENCH_engine.json`` at the repo root so the perf
trajectory is tracked across PRs.  Each configuration is run ``repeats``
times and the fastest wall is kept (standard practice for throughput
benchmarks: the minimum is the least noise-contaminated sample).

``repro bench --compare`` diffs a fresh run against the checked-in
document via :func:`compare_bench`: any suite entry whose events/s fell
by more than :data:`MAX_DEGRADATION` (the same band the scaling guard
test enforces) is a regression and the CLI exits non-zero.  Wall-clock
sections (the registry timing) are excluded — they are one-shot and
machine-dependent.
"""

from __future__ import annotations

from time import perf_counter

from repro.analysis.tables import Table

__all__ = [
    "run_bench",
    "run_registry_bench",
    "compare_bench",
    "render_bench",
    "BENCH_BACKENDS",
    "DEFAULT_SIZES",
    "MAX_DEGRADATION",
]

SCHEMA = "bench_engine/v3"

#: Engine backends the scaling and policy suites cover.  Backends
#: unavailable on the running machine (the compiled ``c`` kernel needs
#: a working compiler) are dropped at :func:`run_bench` time; the
#: document's ``config.backends`` records what actually ran and
#: ``config.toolchain`` the compiler provenance either way.
BENCH_BACKENDS = ("python", "c")

#: Allowed throughput degradation factor, shared by ``repro bench
#: --compare`` and ``benchmarks/bench_scaling_guard.py``: anything
#: slower than ``baseline / MAX_DEGRADATION`` events/s is a regression.
MAX_DEGRADATION = 2.5
DEFAULT_SIZES = (200, 800, 2400)
_MICRO_JOBS = 800
_LOAD = 0.85
_SEED = 12
_EPS = 0.25
_SPEED = 1.5


def _bench_once(instance, policy_factory, backend: str) -> tuple[float, int]:
    """One timed simulation on ``backend``; returns (wall seconds,
    events).  Construction (array precomputation, layouts) happens
    outside the timer for both backends — the suites measure event
    throughput, not setup."""
    from repro.sim.speed import SpeedProfile

    speeds = SpeedProfile.uniform(_SPEED)
    if backend == "c":
        from repro.sim.backends.c_backend import CEngine

        engine = CEngine(instance, policy_factory(), speeds)
    else:
        from repro.sim.engine import Engine

        engine = Engine(instance, policy_factory(), speeds)
    t0 = perf_counter()
    result = engine.run()
    wall = perf_counter() - t0
    return wall, result.num_events


#: Keep sampling a configuration until this much wall clock has been
#: measured (or :data:`_MAX_RUNS` is hit).  The compiled backend can
#: finish a tiny instance in tens of microseconds, where a best-of-N
#: with small N is timer-noise-dominated; accumulating a few
#: milliseconds of samples keeps the min estimator stable at every
#: size without affecting large runs at all.
_MIN_SAMPLE_S = 0.01
_MAX_RUNS = 60


def _measure(
    instance, policy_factory, repeats: int, backend: str = "python"
) -> dict[str, float]:
    n = len(instance.jobs)
    best_wall = float("inf")
    events = 0
    total = 0.0
    runs = 0
    while runs < repeats or (total < _MIN_SAMPLE_S and runs < _MAX_RUNS):
        wall, events = _bench_once(instance, policy_factory, backend)
        total += wall
        runs += 1
        if wall < best_wall:
            best_wall = wall
    return {
        "events": events,
        "wall_s": best_wall,
        "events_per_s": events / best_wall if best_wall > 0 else float("inf"),
        "jobs_per_s": n / best_wall if best_wall > 0 else float("inf"),
    }


def run_registry_bench(parallel: int | None = None) -> dict:
    """Time the full experiment registry on one worker vs ``parallel``.

    Both runs bypass the cache so they measure computation, not disk.
    ``parallel`` defaults to the machine's core count.  Returns the
    ``registry`` section of the bench document.
    """
    import os

    from repro.analysis.runner import run_experiments

    workers = parallel if parallel is not None else max(1, os.cpu_count() or 1)
    t0 = perf_counter()
    serial = run_experiments(use_cache=False, parallel=1)
    serial_s = perf_counter() - t0
    t0 = perf_counter()
    run_experiments(use_cache=False, parallel=workers)
    sharded_s = perf_counter() - t0
    return {
        "experiments": len(serial),
        "trials": sum(out.trials_total for out in serial),
        "workers": workers,
        "serial_wall_s": serial_s,
        "sharded_wall_s": sharded_s,
        "speedup": serial_s / sharded_s if sharded_s > 0 else float("inf"),
    }


def _flatten_measures(section: object, prefix: tuple[str, ...] = ()) -> dict:
    """``name -> measurement`` pairs of a suite section, where a
    measurement is any dict carrying ``events_per_s``.  Walks nested
    per-backend layouts (``bench_engine/v3``: ``backend/size``) and flat
    ones (``v2``: ``size``) alike, so ``--compare`` works across schema
    generations."""
    out: dict[str, dict] = {}
    if isinstance(section, dict):
        if "events_per_s" in section:
            out["/".join(prefix)] = section
        else:
            for key in sorted(section):
                out.update(_flatten_measures(section[key], prefix + (str(key),)))
    return out


def compare_bench(
    baseline: dict, fresh: dict, threshold: float = MAX_DEGRADATION
) -> list[dict]:
    """Throughput regressions of ``fresh`` relative to ``baseline``.

    Compares events/s entry-by-entry across the ``scaling`` and
    ``policies`` suites — per backend in the ``bench_engine/v3`` nested
    layout (entries present in only one document are ignored, so adding
    a size, policy or backend never trips the gate); an entry is a
    regression when it runs more than ``threshold`` times slower.  The
    registry timing is deliberately not compared — it is a one-shot
    wall-clock measurement, not a best-of-N throughput.
    """
    regressions = []
    for section in ("scaling", "policies"):
        base = _flatten_measures(baseline.get(section) or {})
        new = _flatten_measures(fresh.get(section) or {})
        for name in sorted(set(base) & set(new)):
            before = base[name]["events_per_s"]
            after = new[name]["events_per_s"]
            if before > 0 and after < before / threshold:
                regressions.append(
                    {
                        "section": section,
                        "name": name,
                        "baseline_events_per_s": before,
                        "fresh_events_per_s": after,
                        "slowdown": before / after if after > 0 else float("inf"),
                    }
                )
    return regressions


def run_bench(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    repeats: int = 3,
    include_policies: bool = True,
    include_registry: bool = True,
    registry_parallel: int | None = None,
    backends: tuple[str, ...] = BENCH_BACKENDS,
) -> dict:
    """Run the suites; returns the ``bench_engine/v3`` document.

    ``backends`` is filtered down to what the machine can actually run
    (the compiled ``c`` kernel needs a working compiler); the dropped
    names never appear in the suites, so ``--compare`` simply skips
    them on compiler-less machines.
    """
    from repro.analysis.experiments.workloads import identical_instance
    from repro.baselines.policies import (
        ClosestLeafAssignment,
        LeastLoadedAssignment,
        RandomAssignment,
        RoundRobinAssignment,
    )
    from repro.core.assignment import GreedyIdenticalAssignment
    from repro.network.builders import datacenter_tree
    from repro.sim.backends import backend_available
    from repro.sim.backends.c_build import toolchain_info

    backends = tuple(b for b in backends if backend_available(b)[0])
    tree = datacenter_tree(3, 3, 4)
    greedy = lambda: GreedyIdenticalAssignment(_EPS)  # noqa: E731

    instances = {
        n: identical_instance(tree, n, load=_LOAD, seed=_SEED) for n in sizes
    }
    scaling: dict[str, dict[str, dict[str, float]]] = {
        backend: {
            str(n): _measure(instances[n], greedy, repeats, backend)
            for n in sizes
        }
        for backend in backends
    }

    doc = {
        "schema": SCHEMA,
        "config": {
            "tree": "datacenter(3,3,4)",
            "load": _LOAD,
            "seed": _SEED,
            "eps": _EPS,
            "speed": _SPEED,
            "repeats": repeats,
            "backends": list(backends),
            "policy_microbench_jobs": _MICRO_JOBS,
            "toolchain": toolchain_info(),
        },
        "scaling": scaling,
    }
    if include_policies:
        policies = {
            "paper-greedy": greedy,
            "closest": ClosestLeafAssignment,
            "least-loaded": LeastLoadedAssignment,
            "round-robin": RoundRobinAssignment,
            "random": lambda: RandomAssignment(_SEED),
        }
        micro_instance = identical_instance(
            tree, _MICRO_JOBS, load=_LOAD, seed=_SEED
        )
        doc["policies"] = {
            backend: {
                name: _measure(micro_instance, factory, repeats, backend)
                for name, factory in policies.items()
            }
            for backend in backends
        }
    if include_registry:
        doc["registry"] = run_registry_bench(registry_parallel)
    return doc


def render_bench(doc: dict) -> str:
    """Human-readable tables for the CLI."""
    out = []
    scaling = Table(
        "engine scaling sweep (greedy, datacenter tree)",
        ["backend", "n_jobs", "events", "wall_s", "events_per_s", "jobs_per_s"],
    )
    for backend, rows in doc["scaling"].items():
        for size, row in rows.items():
            scaling.add_row(
                backend, int(size), row["events"], row["wall_s"],
                row["events_per_s"], row["jobs_per_s"],
            )
    out.append(scaling.render())
    if "policies" in doc:
        micro = Table(
            f"policy microbenchmarks ({doc['config']['policy_microbench_jobs']} jobs)",
            ["backend", "policy", "events", "wall_s", "events_per_s", "jobs_per_s"],
        )
        for backend, rows in doc["policies"].items():
            for name, row in rows.items():
                micro.add_row(
                    backend, name, row["events"], row["wall_s"],
                    row["events_per_s"], row["jobs_per_s"],
                )
        out.append(micro.render())
    if "registry" in doc:
        reg = doc["registry"]
        registry = Table(
            "experiment registry: serial vs trial-sharded runner (cache off)",
            ["experiments", "trials", "workers", "serial_s", "sharded_s", "speedup"],
        )
        registry.add_row(
            reg["experiments"], reg["trials"], reg["workers"],
            reg["serial_wall_s"], reg["sharded_wall_s"], reg["speedup"],
        )
        out.append(registry.render())
    return "\n\n".join(out)
