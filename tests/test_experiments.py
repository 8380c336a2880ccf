"""Smoke + contract tests for the experiment registry.

The heavyweight claim validation lives in the benchmarks; here each
experiment runs at reduced size and must (a) produce a well-formed
result, (b) PASS its own criterion, and (c) expose the metrics the
benchmark layer keys on.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    all_experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.exceptions import AnalysisError

EXPECTED_IDS = {
    "T1", "T2", "T3", "T4", "T5",
    "L1", "L2", "L3", "L4", "L8",
    "D1", "B1", "B2", "F1", "F2", "S1",
    "X1", "X2", "X3", "X4", "X5", "M1",
}

#: Reduced-size parameters per experiment (defaults already small for some).
QUICK_PARAMS: dict[str, dict] = {
    "T1": {"n": 25, "speeds": (1.0, 1.5)},
    "T2": {"n": 20, "speeds": (1.0, 2.2, 3.0)},
    "T3": {"n": 25, "eps_values": (0.25,), "loads": (0.8,)},
    "T4": {"eps_values": (0.5,)},
    "T5": {"n": 10, "eps_values": (0.5,)},
    "L1": {"eps_values": (0.5,)},
    "L2": {"eps_values": (0.5,)},
    "L3": {"eps_values": (0.5,)},
    "L4": {"n": 15, "seeds": (0, 1)},
    "L8": {"n": 20},
    "D1": {"n": 10, "eps_values": (0.25,)},
    "B1": {"n": 30, "loads": (0.9,)},
    "B2": {"scale": 0.4},
    "S1": {"sizes": (150,), "min_events_per_sec": 1000.0},
    "F1": {},
    "F2": {},
    "X1": {"chunk_sizes": (2.0, 0.5)},
    "X2": {"n": 40},
    "X3": {"n": 40, "multipliers": (0.0, 1.0, 64.0)},
    "X4": {"n": 25},
    "X5": {"n": 35},
    "M1": {"n": 30, "speeds": (1.0, 1.5)},
}


def test_registry_is_complete():
    assert set(all_experiment_ids()) == EXPECTED_IDS


def test_unknown_experiment_rejected():
    with pytest.raises(AnalysisError, match="unknown experiment"):
        get_experiment("ZZ")


@pytest.mark.parametrize("exp_id", sorted(EXPECTED_IDS))
def test_experiment_runs_and_passes(exp_id):
    result = run_experiment(exp_id, **QUICK_PARAMS[exp_id])
    assert result.exp_id == exp_id
    assert result.table.rows, f"{exp_id} produced no rows"
    assert result.metrics, f"{exp_id} produced no metrics"
    assert result.claim
    rendered = result.render()
    assert exp_id in rendered
    assert result.passed, f"{exp_id} failed its own criterion:\n{rendered}"


def test_every_experiment_has_a_benchmark():
    """The benchmark layer must cover the whole registry."""
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    stems = {p.stem for p in bench_dir.glob("bench_*.py")}
    for eid in all_experiment_ids():
        prefix = f"bench_{eid.lower()}_"
        assert any(s.startswith(prefix) for s in stems), (
            f"experiment {eid} has no benchmarks/{prefix}*.py"
        )


def test_duplicate_registration_rejected():
    from repro.analysis.experiments.grid import register_grid

    grid = get_experiment("F2")
    with pytest.raises(AnalysisError, match="duplicate"):
        register_grid(
            "F2",
            defaults=grid.defaults,
            trials=grid.trials,
            run_trial=grid.run_trial,
            reduce=grid.reduce,
        )
    assert get_experiment("F2") is grid


@pytest.mark.parametrize(
    "exp_id, payload",
    [
        ("L2", {"max_norm": 1.0, "checks": 930}),
        (
            "L3",
            {
                "snapshots": 379,
                "min_slack": -7.105427357601002e-15,
                "monotone_violations": 0,
            },
        ),
    ],
)
def test_lemma_audit_counts_pinned(exp_id, payload):
    """L2 and L3 audit every post-event state through an engine sink; a
    sink that skipped or repeated one event would shift these counts."""
    from repro.analysis.experiments.grid import (
        enumerate_trials,
        execute_trial,
        merge_params,
    )

    grid = get_experiment(exp_id)
    (spec,) = enumerate_trials(grid, merge_params(grid, QUICK_PARAMS[exp_id]))
    assert execute_trial(grid, spec) == payload


def test_renders_match_across_backends(monkeypatch):
    """``REPRO_BACKEND`` reaches the registry: every render but S1's
    (wall-clock throughput) is byte-identical with the variable unset
    and with ``REPRO_BACKEND=c``, and the kernel really ran."""
    from repro.sim.backends import c_build
    from repro.sim.backends.c_backend import CEngine

    ok, reason = c_build.availability()
    if not ok:
        pytest.skip(f"c backend unavailable: {reason}")
    kernel_runs = 0
    kernel_run = CEngine.run

    def counting_run(self, **options):
        nonlocal kernel_runs
        kernel_runs += 1
        return kernel_run(self, **options)

    monkeypatch.setattr(CEngine, "run", counting_run)

    def renders():
        return {
            eid: run_experiment(eid, **QUICK_PARAMS[eid]).render()
            for eid in sorted(EXPECTED_IDS - {"S1"})
        }

    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    python = renders()
    assert not kernel_runs
    monkeypatch.setenv("REPRO_BACKEND", "c")
    assert renders() == python
    assert kernel_runs
