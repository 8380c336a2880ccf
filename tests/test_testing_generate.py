"""The seeded case generator (`repro.testing.generate`).

The fuzzer's reproducibility story rests on two properties pinned here:
the case stream is a pure function of its seed, and every case
round-trips through its JSON document bit-for-bit (same content digest),
which is what makes corpus repros replayable after grid changes.
"""

from __future__ import annotations

import pytest

from repro.exceptions import WorkloadError
from repro.sim.engine import simulate
from repro.testing.corpus import case_digest
from repro.testing.generate import (
    CaseConfig,
    FuzzCase,
    build_case,
    iter_cases,
)

_N = 40


def _digests(seed: int, n: int = _N) -> list[str]:
    return [case_digest(c) for c in iter_cases(seed, n)]


class TestDeterminism:
    def test_stream_is_a_function_of_the_seed(self):
        assert _digests(0) == _digests(0)
        assert _digests(7) == _digests(7)

    def test_different_seeds_diverge(self):
        assert _digests(0) != _digests(1)

    def test_build_case_is_deterministic(self):
        config = CaseConfig(
            seed=99, topology="kary_2x2", n_jobs=6,
            arrivals="bursts", sizes="near_tie",
        )
        assert case_digest(build_case(config)) == case_digest(build_case(config))


class TestRoundTrip:
    def test_case_document_round_trips(self):
        for case in iter_cases(3, 20):
            clone = FuzzCase.from_doc(case.to_doc())
            assert case_digest(clone) == case_digest(case)
            assert clone.config == case.config
            assert clone.fixed_assignment == case.fixed_assignment

    def test_config_round_trips(self):
        config = CaseConfig(
            seed=5, topology="broomstick", n_jobs=9, arrivals="tied",
            sizes="powers", setting="unrelated", policy="fixed",
            eps=0.25, speed="tiered", priority="fifo",
        )
        assert CaseConfig.from_doc(config.to_doc()) == config


class TestStreamShape:
    def test_cases_are_well_formed(self):
        for case in iter_cases(11, _N):
            jobs = case.instance.jobs
            assert len(jobs) == case.config.n_jobs
            assert len({j.id for j in jobs}) == len(jobs)
            assert all(j.release >= 0.0 for j in jobs)
            if case.config.policy == "fixed":
                leaves = set(case.instance.tree.leaves)
                assert set(case.fixed_assignment) == {j.id for j in jobs}
                assert set(case.fixed_assignment.values()) <= leaves
            else:
                assert case.fixed_assignment is None
            # Policies are built fresh per call — stateful ones (round
            # robin, random) must not leak state across check re-runs.
            assert case.policy() is not case.policy()

    def test_smoke_deck_covers_boundary_regimes(self):
        configs = [c.config for c in iter_cases(0, 12)]
        assert any(c.arrivals == "all_zero" for c in configs)
        assert any(c.arrivals == "tied" for c in configs)
        assert any(c.sizes == "powers" for c in configs)
        assert any(c.speed == "crawl" for c in configs)
        assert any(c.priority == "fifo" for c in configs)

    def test_stream_includes_collision_regime(self):
        # Every 8th sampled case targets brink-of-completion event
        # collisions: shared-instant releases, power-of-two sizes,
        # non-unit speeds.  They are the cases that exercise the
        # engine's drain-finished rule, so their presence is load-bearing.
        configs = [c.config for c in iter_cases(0, 80)]
        collisions = [
            c
            for c in configs
            if c.sizes == "powers"
            and c.arrivals in ("tied", "integer_grid")
            and c.speed in ("tiered", "fast")
            and c.n_jobs >= 10
        ]
        assert len(collisions) >= 5

    def test_max_cases_bounds_the_stream(self):
        assert len(list(iter_cases(0, 17))) == 17

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_events_stream_cancels_a_job_preempted_at_its_leaf(self, seed):
        # The one cancel whose fractional-flow term is not zero: the job
        # has had part of its leaf service and waits there, preempted.
        hits = 0
        for case in iter_cases(seed, 200, events=True):
            if case.config.events != "preempted" or case.events is None:
                continue
            (cancel,) = case.events.events
            result = simulate(
                case.instance, case.policy(), speeds=case.speeds(),
                priority=case.priority_fn(), record_segments=True,
                events=case.events,
            )
            record = result.records[cancel.job_id]
            assert record.cancelled_at == cancel.time
            served = [
                s for s in result.segments
                if s.job_id == cancel.job_id and s.node == record.leaf
            ]
            assert served and served[-1].end < cancel.time
            hits += 1
        assert hits >= 2


def test_unknown_grid_value_rejected():
    with pytest.raises(WorkloadError, match="unknown topology"):
        build_case(
            CaseConfig(
                seed=0, topology="nope", n_jobs=4,
                arrivals="poisson", sizes="uniform",
            )
        )
