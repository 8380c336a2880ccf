"""Parallel experiment runner with content-addressed trial caching.

Every registry experiment (T1–T5, L1–L8, X1–X5, B1/B2, D1, M1, S1,
F1/F2) is a declarative **trial grid**
(:mod:`repro.analysis.experiments.grid`): a list of pure trial specs
plus a deterministic reduce.  This module runs any subset of the
registry with the trial as its only unit of work and of storage: it
schedules the trials of every requested experiment at once over a
worker pool — D1's four LP-heavy cells no longer serialise behind each
other, and T1's 150 simulation cells spread over every core — and
caches each trial payload individually, so rerunning a sweep with three
new seeds pays for exactly the new cells.  The reduce step always runs
in the parent, in spec order, so registry output is bit-identical to the
serial :func:`~repro.analysis.experiments.grid.run_experiment` (asserted
by test).

Determinism
-----------
Experiments are already deterministic given their parameters (seeds are
explicit), but some code paths consult the *global* ``random`` /
``numpy.random`` state.  Every trial — serial in this process or in a
worker — first reseeds both global generators from the trial's content
digest (see :func:`~repro.analysis.experiments.grid.execute_trial`), so
results do not depend on how trials are interleaved over workers.

Cache layout
------------
``<cache_dir>/trials/<key>.pkl`` holds individual trial payloads, where
``key`` is the SHA-256 of the canonical JSON of ``(schema version,
package version, experiment id, trial id, parameters)``.  A warm run
replays every trial from disk and reduces in the parent.  Any parameter
change, package version bump, or cache schema change misses cleanly;
entries are written atomically (temp file + rename) so a crashed run
never leaves a torn entry, and unreadable entries are treated as misses.
``<cache_dir>/lp_bounds/`` is the memoized lower-bound service's shared
disk layer (:func:`repro.analysis.ratios.set_lower_bound_disk_cache`),
enabled whenever the cache is.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.tables import Table
from repro.sim.counters import EngineCounters

__all__ = [
    "RunnerOutcome",
    "cache_key",
    "trial_cache_key",
    "trial_cache_path",
    "manifest_path",
    "clear_cache",
    "run_experiments",
    "summary_table",
    "aggregate_counters",
    "DEFAULT_CACHE_DIR",
    "MANIFEST_SCHEMA",
]

#: Bump when the pickled outcome layout changes; invalidates old entries.
CACHE_SCHEMA = 3

#: Version tag of the JSON trial manifests (``manifest_dir=``).
MANIFEST_SCHEMA = "run-manifest/v1"

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = os.path.join(".cache", "experiments")


@dataclass(slots=True)
class RunnerOutcome:
    """One experiment's result plus runner metadata.

    Attributes
    ----------
    exp_id:
        The experiment id.
    result:
        The :class:`ExperimentResult` (identical to a direct
        ``run_experiment`` call with the same parameters).
    cached:
        Whether every one of its trials came from the cache.
    wall_seconds:
        Wall-clock of the *computation*: the sum of per-trial walls
        (cold-run time for cached trials, re-reported, not re-measured)
        plus the reduce.
    key:
        The content hash of (experiment, parameters)
        (:func:`cache_key`), which names the run in its manifest.
    counters:
        Aggregated :class:`EngineCounters` over every simulation the
        experiment ran, when counter collection was requested (for a
        cached trial: the counters stored by its cold run), else
        ``None``.
    trials_total / trials_cached:
        Grid size and how many of its trials were answered from the
        trial cache.
    """

    exp_id: str
    result: ExperimentResult
    cached: bool
    wall_seconds: float
    key: str
    counters: EngineCounters | None = None
    trials_total: int = 0
    trials_cached: int = 0


def cache_key(exp_id: str, params: dict | None = None) -> str:
    """Content hash identifying one (experiment, parameters) run; it
    names the run in its :class:`RunnerOutcome` and manifest."""
    from repro import __version__

    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "exp_id": exp_id,
            "params": params or {},
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def trial_cache_key(exp_id: str, trial_id: str, params: dict) -> str:
    """Content hash identifying one trial of one experiment.

    Unlike the trial *digest* (which seeds RNGs and must stay stable
    across releases), the cache key is salted with the package version
    so stored payloads never survive a version bump.
    """
    from repro import __version__

    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "exp_id": exp_id,
            "trial_id": trial_id,
            "params": params,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def trial_cache_path(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / "trials" / f"{key}.pkl"


def manifest_path(manifest_dir: str | Path, exp_id: str) -> Path:
    """Where :func:`run_experiments` writes one experiment's manifest."""
    return Path(manifest_dir) / f"{exp_id}.manifest.json"


def clear_cache(cache_dir: str | Path = DEFAULT_CACHE_DIR) -> int:
    """Delete every cache entry (trial payloads and memoized LP
    bounds); returns the number removed."""
    root = Path(cache_dir)
    if not root.is_dir():
        return 0
    removed = 0
    for pattern in ("trials/*.pkl", "lp_bounds/*.json"):
        for entry in root.glob(pattern):
            entry.unlink(missing_ok=True)
            removed += 1
    return removed


def _set_lp_disk(lp_dir: str | None) -> None:
    from repro.analysis.ratios import set_lower_bound_disk_cache

    set_lower_bound_disk_cache(lp_dir)


def _execute_trial(
    exp_id: str,
    trial_id: str,
    params: dict,
    collect_counters: bool,
    lp_dir: str | None = None,
):
    """Run one trial (in this or a worker process).

    Returns ``(payload, counters_dict | None, wall_seconds)``.
    :func:`~repro.analysis.experiments.grid.execute_trial` reseeds the
    global RNGs from the trial digest, so the payload is bit-identical
    no matter which process or in what order the trial runs.
    """
    from repro.analysis.experiments import get_experiment
    from repro.analysis.experiments.grid import TrialSpec, execute_trial
    from repro.sim import counters as counter_mod

    grid = get_experiment(exp_id)
    _set_lp_disk(lp_dir)
    spec = TrialSpec(exp_id, trial_id, params)
    if collect_counters:
        counter_mod.enable_global_counters()
    try:
        started = perf_counter()
        payload = execute_trial(grid, spec)
        wall = perf_counter() - started
        tallies = counter_mod.global_counters()
        counters = tallies.as_dict() if tallies is not None else None
    finally:
        if collect_counters:
            counter_mod.disable_global_counters()
    return payload, counters, wall


def _load_cached(path: Path) -> dict | None:
    """The trial entry at ``path``, or ``None`` for a miss."""
    # Unpickling arbitrary bytes can raise nearly anything (ValueError,
    # ImportError, ...), not just UnpicklingError; any unreadable entry
    # is simply a miss, so the cache can never poison a run.
    try:
        with open(path, "rb") as fh:
            entry = pickle.load(fh)
    except Exception:
        return None
    if not isinstance(entry, dict) or "payload" not in entry:
        return None
    return entry


def _store(path: Path, entry: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        pickle.dump(entry, fh)
    os.replace(tmp, path)


def _merge_counter_dicts(dicts: list[dict | None]) -> dict | None:
    merged: EngineCounters | None = None
    for d in dicts:
        if d is None:
            continue
        if merged is None:
            merged = EngineCounters()
        merged.merge(EngineCounters.from_dict(d))
    return merged.as_dict() if merged is not None else None


def run_experiments(
    exp_ids: list[str] | None = None,
    *,
    params_by_id: dict[str, dict] | None = None,
    parallel: int = 1,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    collect_counters: bool = False,
    manifest_dir: str | Path | None = None,
) -> list[RunnerOutcome]:
    """Run experiments trial by trial, possibly in parallel, with
    per-trial result caching.

    Parameters
    ----------
    exp_ids:
        Ids to run (``None`` = the whole registry), returned in the
        given order.  Every id is resolved before any trial runs, so an
        unknown one raises :class:`~repro.exceptions.AnalysisError`
        up front.
    params_by_id:
        Optional per-id keyword overrides (defaults: each experiment's
        own defaults).  Keyword-only (the positional form was removed
        after its one-release deprecation window).
    parallel:
        Worker processes for the trials that miss the cache, drawn from
        all requested experiments at once; ``<= 1`` runs them serially
        in this process.  Outputs are bit-identical either way.
    cache_dir / use_cache:
        Cache location and switch.  With ``use_cache=False`` nothing is
        read or written (the LP-bound disk layer is disabled too).
    collect_counters:
        Meter every simulation the experiments run and attach the
        aggregate to each outcome.
    manifest_dir:
        When set, write one ``<exp_id>.manifest.json`` per experiment
        (see :func:`manifest_path`): verdict, key, wall clock, and a
        per-trial provenance row (trial id, parameters, content digest,
        cache key, hit/miss, wall).  The manifest is a derived artifact:
        it never feeds back into caching or results.
    """
    from repro.analysis.experiments import all_experiment_ids, get_experiment
    from repro.analysis.experiments.grid import (
        enumerate_trials,
        merge_params,
        trial_digest,
    )

    if exp_ids is None:
        exp_ids = all_experiment_ids()
    grids = [get_experiment(eid) for eid in exp_ids]
    params_by_id = params_by_id or {}
    lp_dir = str(Path(cache_dir) / "lp_bounds") if use_cache else None
    _set_lp_disk(lp_dir)

    # Per experiment: merged parameters, specs, trial cache keys, and
    # one {"payload", "counters", "wall_seconds"} entry per trial (None
    # until computed below) with whether it came from the cache.
    jobs = []
    # Every trial still to compute, across all experiments, with the
    # entry list its result goes into.
    misses = []
    for eid, grid in zip(exp_ids, grids):
        merged = merge_params(grid, params_by_id.get(eid, {}))
        specs = enumerate_trials(grid, merged)
        keys = [trial_cache_key(eid, spec.trial_id, spec.params) for spec in specs]
        entries = [
            _load_cached(trial_cache_path(cache_dir, key)) if use_cache else None
            for key in keys
        ]
        misses += [
            (entries, t, spec, key)
            for t, (spec, key, entry) in enumerate(zip(specs, keys, entries))
            if entry is None
        ]
        jobs.append((merged, specs, keys, entries, [e is not None for e in entries]))

    calls = [(spec.exp_id, spec.trial_id, spec.params) for _, _, spec, _ in misses]
    if parallel > 1 and calls:
        with ProcessPoolExecutor(max_workers=min(parallel, len(calls))) as pool:
            futures = [
                pool.submit(_execute_trial, *call, collect_counters, lp_dir)
                for call in calls
            ]
            computed = [f.result() for f in futures]
    else:
        computed = [_execute_trial(*call, collect_counters, lp_dir) for call in calls]
    for (entries, t, _, key), (payload, counters, wall) in zip(misses, computed):
        entries[t] = {"payload": payload, "counters": counters, "wall_seconds": wall}
        if use_cache:
            _store(trial_cache_path(cache_dir, key), entries[t])

    # -- reduce every experiment in the parent, in spec order ----------
    outcomes = []
    for eid, grid, (merged, specs, keys, entries, hits) in zip(exp_ids, grids, jobs):
        params = params_by_id.get(eid, {})
        started = perf_counter()
        result = grid.reduce(
            merged, [(spec, entry["payload"]) for spec, entry in zip(specs, entries)]
        )
        reduce_wall = perf_counter() - started
        counters = _merge_counter_dicts([entry.get("counters") for entry in entries])
        walls = [entry.get("wall_seconds", 0.0) for entry in entries]
        out = RunnerOutcome(
            exp_id=eid,
            result=result,
            cached=all(hits),
            wall_seconds=sum(walls) + reduce_wall,
            key=cache_key(eid, params),
            counters=(
                EngineCounters.from_dict(counters) if counters is not None else None
            ),
            trials_total=len(specs),
            trials_cached=sum(hits),
        )
        if manifest_dir is not None:
            rows = [
                {
                    "trial_id": spec.trial_id,
                    "params": spec.params,
                    "digest": trial_digest(spec),
                    "cache_key": key,
                    "cached": hit,
                    "wall_seconds": wall,
                }
                for spec, key, hit, wall in zip(specs, keys, hits, walls)
            ]
            _write_manifest(manifest_dir, out, params, rows)
        outcomes.append(out)
    return outcomes


def _toolchain_provenance() -> dict:
    """Per-backend availability plus the compiled kernel's compiler
    identity/version/flags (:func:`repro.sim.backends.c_build.toolchain_info`)."""
    from repro.sim.backends import available_backends
    from repro.sim.backends.c_build import toolchain_info

    return {
        "backends_available": list(available_backends()),
        "ckernel": toolchain_info(),
    }


def _write_manifest(
    manifest_dir: str | Path,
    outcome: RunnerOutcome,
    params: dict,
    trials: list[dict],
) -> Path:
    """Write one experiment's JSON provenance manifest (atomically)."""
    path = manifest_path(manifest_dir, outcome.exp_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": MANIFEST_SCHEMA,
        "exp_id": outcome.exp_id,
        "key": outcome.key,
        "passed": outcome.result.passed,
        "cached": outcome.cached,
        "wall_seconds": outcome.wall_seconds,
        "params": params,
        "trials_total": outcome.trials_total,
        "trials_cached": outcome.trials_cached,
        # Toolchain provenance: which engine backends this machine could
        # have used and the compiled kernel's compiler identity, so a
        # manifest pins the execution environment, not just parameters.
        "toolchain": _toolchain_provenance(),
        "trials": trials,
    }
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def summary_table(outcomes: list[RunnerOutcome]) -> Table:
    """One row per experiment: verdict, wall time, cache provenance."""
    table = Table(
        "experiment runner summary",
        ["id", "verdict", "wall_s", "source", "trials(cached)", "events"],
    )
    for out in outcomes:
        table.add_row(
            out.exp_id,
            "PASS" if out.result.passed else "FAIL",
            out.wall_seconds,
            "cache" if out.cached else "run",
            f"{out.trials_total}({out.trials_cached})",
            int(out.counters.events_processed) if out.counters is not None else "-",
        )
    return table


def aggregate_counters(outcomes: list[RunnerOutcome]) -> EngineCounters | None:
    """Merged engine counters across outcomes (``None`` if none carried any)."""
    merged: EngineCounters | None = None
    for out in outcomes:
        if out.counters is None:
            continue
        if merged is None:
            merged = EngineCounters()
        merged.merge(out.counters)
    return merged
