"""Tests for bounded-horizon (``until=``) simulation runs."""

from __future__ import annotations

import pytest

from repro.core.assignment import FixedAssignment, GreedyIdenticalAssignment
from repro.exceptions import SimulationError
from repro.network.builders import spine_tree, star_of_paths
from repro.sim.engine import Engine, simulate
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


def chain_instance(jobs):
    return Instance(spine_tree(1), JobSet(jobs), Setting.IDENTICAL)


class TestHorizonSemantics:
    def test_mid_flight_job_left_unfinished(self):
        instance = chain_instance([Job(id=0, release=0.0, size=2.0)])
        res = simulate(instance, FixedAssignment({0: 2}), until=3.0)
        assert res.unfinished_job_ids() == (0,)
        assert res.completed_records() == {}
        rec = res.records[0]
        assert rec.completed_at == [2.0]  # finished the router only

    def test_horizon_after_everything_is_noop(self):
        instance = chain_instance([Job(id=0, release=0.0, size=2.0)])
        full = simulate(instance, FixedAssignment({0: 2}))
        capped = simulate(instance, FixedAssignment({0: 2}), until=100.0)
        assert capped.records[0].completed_at == full.records[0].completed_at
        assert capped.completed_records().keys() == {0}

    def test_jobs_released_after_horizon_not_admitted(self):
        instance = chain_instance(
            [Job(id=0, release=0.0, size=1.0), Job(id=1, release=50.0, size=1.0)]
        )
        res = simulate(instance, FixedAssignment({0: 2, 1: 2}), until=10.0)
        assert 1 not in res.records
        assert res.completed_records().keys() == {0}

    def test_integrals_cover_exactly_the_window(self):
        cases = [
            # One size-2 job: alive on [0, 4).  Capped at 3: alive
            # integral 3; fractional 1 on [0,2], then drains 0.5/s on
            # [2,3] -> 2 + 0.75.
            ([Job(id=0, release=0.0, size=2.0)], 3.0, 3.0, 2.75),
            # Job 0 reaches the leaf at 4 and runs; job 1 preempts it
            # there at 5.5 with 2.5 left, so at the horizon 6 job 0 is
            # queued at its leaf, partly served.  Deficits: job 0
            # 0.28125 running on [4,5.5] plus 0.375 * 0.5 waiting;
            # job 1 0.25 * 0.5 on [5.5,6].
            (
                [Job(id=0, release=0.0, size=4.0), Job(id=1, release=4.5, size=1.0)],
                6.0,
                7.5,
                6.90625,
            ),
        ]
        for jobs, until, alive, frac in cases:
            fixed = FixedAssignment({j.id: 2 for j in jobs})
            res = simulate(chain_instance(jobs), fixed, until=until)
            assert (res.alive_integral, res.fractional_flow) == (alive, frac)

    def test_segments_closed_at_horizon(self):
        instance = chain_instance([Job(id=0, release=0.0, size=4.0)])
        res = simulate(
            instance, FixedAssignment({0: 2}), until=2.5, record_segments=True
        )
        assert res.segments is not None
        assert max(s.end for s in res.segments) == pytest.approx(2.5)

    def test_negative_horizon_rejected(self):
        instance = chain_instance([Job(id=0, release=0.0, size=1.0)])
        with pytest.raises(SimulationError, match="until"):
            Engine(instance, FixedAssignment({0: 2})).run(until=-1.0)

    def test_zero_horizon(self):
        instance = chain_instance([Job(id=0, release=0.0, size=1.0)])
        res = simulate(instance, FixedAssignment({0: 2}), until=0.0)
        # The release at t=0 is not past the horizon, so it is admitted,
        # but no processing time elapses.
        assert res.alive_integral == 0.0

    def test_prefix_consistency_with_full_run(self):
        """Completions before the horizon match the full run exactly."""
        tree = star_of_paths(2, 2)
        jobs = JobSet(
            [Job(id=i, release=0.4 * i, size=1.0 + (i % 3)) for i in range(14)]
        )
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        full = simulate(instance, GreedyIdenticalAssignment(0.5))
        horizon = full.makespan() / 2
        capped = simulate(instance, GreedyIdenticalAssignment(0.5), until=horizon)
        for jid, rec in capped.completed_records().items():
            assert full.records[jid].completion == pytest.approx(rec.completion)
            assert rec.completion <= horizon + 1e-9

    def test_mean_over_completed_only(self):
        instance = chain_instance(
            [Job(id=0, release=0.0, size=1.0), Job(id=1, release=0.0, size=5.0)]
        )
        res = simulate(instance, FixedAssignment({0: 2, 1: 2}), until=4.0)
        done = res.completed_records()
        assert set(done) == {0}
        assert done[0].flow_time == pytest.approx(2.0)
