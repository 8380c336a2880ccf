"""The experiment registry: declarative trial grids.

Every experiment is a *sweep*: a grid of pure trials (one simulation or
LP measurement each) folded by a deterministic reduce step into the
:class:`~repro.analysis.experiments.base.ExperimentResult` tables.  The
trial is the unit the runner (:mod:`repro.analysis.runner`) schedules
across worker processes and caches on disk:

* :func:`register_grid` registers an experiment as three pure pieces —
  ``trials(params) -> [TrialSpec]``, ``run_trial(spec) -> payload`` and
  ``reduce(params, [(spec, payload)]) -> ExperimentResult`` — and is the
  only way to register one.
* :func:`run_experiment` is the serial in-process reference: every
  trial in spec order, then the reduce.
* Trial payloads must be plain picklable data (dicts of floats/strings),
  never simulation objects, so they can cross process boundaries and be
  cached on disk content-addressed by :func:`trial_digest`.

Determinism
-----------
:func:`execute_trial` reseeds the *global* ``random`` / ``numpy.random``
generators from the trial's digest before running it.  The serial
:func:`run_experiment` and the runner both go through it, so a trial
computes bit-identical payloads no matter which process, in which
order, executes it.  The digest deliberately excludes the package
version and cache schema (those salt the *cache key*, in
:mod:`repro.analysis.runner`): bumping the version must invalidate
caches without changing experiment outputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.experiments.base import ExperimentResult
from repro.exceptions import AnalysisError

__all__ = [
    "TrialSpec",
    "GridExperiment",
    "register_grid",
    "get_experiment",
    "run_experiment",
    "all_experiment_ids",
    "merge_params",
    "enumerate_trials",
    "trial_digest",
    "trial_seed",
    "execute_trial",
]


@dataclass(frozen=True)
class TrialSpec:
    """One cell of an experiment's sweep.

    Attributes
    ----------
    exp_id:
        The owning experiment.
    trial_id:
        Stable human-readable id, unique within the experiment's grid
        (e.g. ``"kary(2,3)|paper|s=1.5|seed=2"``).
    params:
        Everything ``run_trial`` needs, as JSON-serialisable scalars —
        trees and instances are rebuilt inside the trial from these.
    """

    exp_id: str
    trial_id: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GridExperiment:
    """The three pure pieces of a grid experiment plus its defaults."""

    exp_id: str
    defaults: dict
    trials: Callable[[dict], list[TrialSpec]]
    run_trial: Callable[[TrialSpec], Any]
    reduce: Callable[[dict, list[tuple[TrialSpec, Any]]], ExperimentResult]


_GRIDS: dict[str, GridExperiment] = {}


def merge_params(grid: GridExperiment, params: dict) -> dict:
    """The grid's defaults overlaid with ``params`` (unknown keys rejected)."""
    unknown = set(params) - set(grid.defaults)
    if unknown:
        raise AnalysisError(
            f"{grid.exp_id}: unknown parameter(s) {sorted(unknown)}; "
            f"known: {sorted(grid.defaults)}"
        )
    return {**grid.defaults, **params}


def enumerate_trials(grid: GridExperiment, merged: dict) -> list[TrialSpec]:
    """The grid's specs for one parameterisation, with uniqueness checked."""
    specs = grid.trials(merged)
    seen: set[str] = set()
    for spec in specs:
        if spec.exp_id != grid.exp_id:
            raise AnalysisError(
                f"{grid.exp_id}: trial {spec.trial_id!r} claims exp_id "
                f"{spec.exp_id!r}"
            )
        if spec.trial_id in seen:
            raise AnalysisError(
                f"{grid.exp_id}: duplicate trial id {spec.trial_id!r}"
            )
        seen.add(spec.trial_id)
    return specs


def trial_digest(spec: TrialSpec) -> str:
    """Version-independent content hash of one trial (seeds its RNGs)."""
    payload = json.dumps(
        {"exp_id": spec.exp_id, "trial_id": spec.trial_id, "params": spec.params},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def trial_seed(digest: str) -> int:
    """A 32-bit RNG seed derived from a trial digest."""
    return int(digest[:16], 16) % 2**32


def execute_trial(grid: GridExperiment, spec: TrialSpec) -> Any:
    """Run one trial after reseeding the global RNGs from its digest.

    Both :func:`run_experiment` and the runner call this, which is what
    makes their outputs bit-identical.
    """
    import numpy as np

    seed = trial_seed(trial_digest(spec))
    random.seed(seed)
    np.random.seed(seed)
    return grid.run_trial(spec)


def register_grid(
    exp_id: str,
    *,
    defaults: dict,
    trials: Callable[[dict], list[TrialSpec]],
    run_trial: Callable[[TrialSpec], Any],
    reduce: Callable[[dict, list[tuple[TrialSpec, Any]]], ExperimentResult],
) -> None:
    """Register a grid experiment under ``exp_id`` (ids are unique)."""
    if exp_id in _GRIDS:
        raise AnalysisError(f"duplicate experiment id {exp_id}")
    _GRIDS[exp_id] = GridExperiment(
        exp_id=exp_id,
        defaults=dict(defaults),
        trials=trials,
        run_trial=run_trial,
        reduce=reduce,
    )


def get_experiment(exp_id: str) -> GridExperiment:
    """The grid registered under ``exp_id``."""
    try:
        return _GRIDS[exp_id]
    except KeyError:
        raise AnalysisError(
            f"unknown experiment {exp_id!r}; known: {sorted(_GRIDS)}"
        ) from None


def run_experiment(exp_id: str, **params) -> ExperimentResult:
    """Run the experiment registered under ``exp_id`` serially, in this
    process: every trial in spec order, then the reduce."""
    grid = get_experiment(exp_id)
    merged = merge_params(grid, params)
    specs = enumerate_trials(grid, merged)
    return grid.reduce(merged, [(spec, execute_trial(grid, spec)) for spec in specs])


def all_experiment_ids() -> list[str]:
    """All registered ids, sorted."""
    return sorted(_GRIDS)
