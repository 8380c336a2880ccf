"""Tests for the declarative trial grids and their sharded execution.

The contract under test: every registry experiment is a grid of pure,
individually cacheable trials whose serial composition
(``run_experiment``) and sharded recomposition (the runner) produce
bit-identical :class:`ExperimentResult` payloads.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import (
    all_experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.analysis.experiments.grid import (
    GridExperiment,
    TrialSpec,
    enumerate_trials,
    execute_trial,
    merge_params,
    trial_digest,
    trial_seed,
)
from repro.analysis.runner import run_experiments, trial_cache_key, trial_cache_path
from repro.exceptions import AnalysisError
from tests.test_experiments import QUICK_PARAMS
from tests.test_runner import same_payload

#: Grids cheap enough to actually execute inside tier-1.
FAST_GRID_IDS = ["F1", "F2", "L2", "X3"]


def test_every_registry_experiment_is_a_grid():
    """Every id resolves to its grid, whose pieces live in the
    experiment's own module (``list-experiments`` reads its summary
    there)."""
    for exp_id in all_experiment_ids():
        grid = get_experiment(exp_id)
        assert isinstance(grid, GridExperiment) and grid.exp_id == exp_id
        module = f"repro.analysis.experiments.{exp_id.lower()}"
        for piece in (grid.trials, grid.run_trial, grid.reduce):
            assert piece.__module__ == module, (exp_id, piece)


@pytest.mark.parametrize("exp_id", sorted(QUICK_PARAMS))
def test_specs_are_unique_and_json_able(exp_id):
    """Trial ids are unique within a grid and params are plain data —
    the whole spec must survive a JSON round-trip (the cache key and the
    RNG digest both hash its canonical JSON)."""
    grid = get_experiment(exp_id)
    specs = enumerate_trials(grid, merge_params(grid, QUICK_PARAMS[exp_id]))
    assert specs, exp_id
    seen = set()
    for spec in specs:
        assert spec.exp_id == exp_id
        assert spec.trial_id not in seen
        seen.add(spec.trial_id)
        round_tripped = json.loads(json.dumps(spec.params))
        assert json.dumps(round_tripped, sort_keys=True)


@pytest.mark.parametrize("exp_id", sorted(QUICK_PARAMS))
def test_digests_distinct_within_grid(exp_id):
    grid = get_experiment(exp_id)
    specs = enumerate_trials(grid, merge_params(grid, QUICK_PARAMS[exp_id]))
    digests = [trial_digest(spec) for spec in specs]
    assert len(set(digests)) == len(digests)
    assert digests == [trial_digest(spec) for spec in specs]  # deterministic
    for digest in digests:
        assert 0 <= trial_seed(digest) < 2**32


def test_unknown_param_rejected():
    grid = get_experiment("F1")
    with pytest.raises(AnalysisError, match="unknown parameter"):
        merge_params(grid, {"no_such_param": 1})


def test_duplicate_trial_id_rejected():
    grid = get_experiment("F1")
    bad = type(grid)(
        exp_id="F1",
        defaults=grid.defaults,
        trials=lambda p: [TrialSpec("F1", "x"), TrialSpec("F1", "x")],
        run_trial=grid.run_trial,
        reduce=grid.reduce,
    )
    with pytest.raises(AnalysisError, match="duplicate trial id"):
        enumerate_trials(bad, dict(grid.defaults))


@pytest.mark.parametrize("exp_id", FAST_GRID_IDS)
def test_trial_reexecution_is_bit_identical(exp_id):
    """A trial reruns to the same payload even after other trials have
    perturbed the global RNG state (the digest reseed at work)."""
    grid = get_experiment(exp_id)
    specs = enumerate_trials(grid, merge_params(grid, QUICK_PARAMS[exp_id]))
    first = [execute_trial(grid, spec) for spec in specs]
    again = [execute_trial(grid, spec) for spec in reversed(specs)]
    assert first == list(reversed(again))


@pytest.mark.parametrize("exp_id", FAST_GRID_IDS)
def test_sharded_runner_matches_direct_run(exp_id, tmp_path):
    direct = run_experiment(exp_id, **QUICK_PARAMS[exp_id])
    sharded = run_experiments(
        [exp_id],
        params_by_id={exp_id: QUICK_PARAMS[exp_id]},
        cache_dir=tmp_path,
    )[0]
    grid = get_experiment(exp_id)
    assert sharded.trials_total == len(
        enumerate_trials(grid, merge_params(grid, QUICK_PARAMS[exp_id]))
    )
    assert same_payload(direct, sharded.result)


def test_partial_rerun_reuses_trial_cache(tmp_path):
    """Extending a sweep only pays for the new cells: L2 at one eps,
    then at two, hits the first eps's trial entry."""
    small = run_experiments(
        ["L2"], params_by_id={"L2": {"eps_values": (0.5,)}}, cache_dir=tmp_path
    )[0]
    assert (small.trials_total, small.trials_cached) == (1, 0)
    grown = run_experiments(
        ["L2"], params_by_id={"L2": {"eps_values": (0.5, 0.25)}}, cache_dir=tmp_path
    )[0]
    assert (grown.trials_total, grown.trials_cached) == (2, 1)
    # the grown result matches a fresh uncached run cell-for-cell
    fresh = run_experiment("L2", eps_values=(0.5, 0.25))
    assert same_payload(fresh, grown.result)


def test_corrupt_trial_entry_is_a_miss(tmp_path):
    first = run_experiments(["F1"], cache_dir=tmp_path)[0]
    grid = get_experiment("F1")
    (spec,) = enumerate_trials(grid, merge_params(grid, {}))
    tkey = trial_cache_key("F1", spec.trial_id, spec.params)
    path = trial_cache_path(tmp_path, tkey)
    assert path.is_file()
    path.write_bytes(b"junk")
    again = run_experiments(["F1"], cache_dir=tmp_path)[0]
    assert (again.trials_total, again.trials_cached) == (1, 0)
    assert same_payload(first.result, again.result)
