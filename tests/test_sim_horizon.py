"""Tests for bounded-horizon (``until=``) simulation runs, on the python
engine and, where a compiler is available, on the compiled kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import api
from repro.baselines.policies import (
    ClosestLeafAssignment,
    LeastLoadedAssignment,
    RandomAssignment,
    RoundRobinAssignment,
)
from repro.core.assignment import (
    FixedAssignment,
    GreedyIdenticalAssignment,
    GreedyUnrelatedAssignment,
)
from repro.exceptions import SimulationError
from repro.network.builders import datacenter_tree, kary_tree, spine_tree, star_of_paths
from repro.sim import backends
from repro.sim.backends import c_build
from repro.sim.backends.c_backend import CEngine
from repro.sim.engine import Engine, fifo_priority, simulate, sjf_priority
from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp
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


# ---------------------------------------------------------------------------
# Bounded runs on the compiled kernel: == the python engine's run(until=)
# ---------------------------------------------------------------------------
_C_OK, _C_REASON = c_build.availability()
needs_c = pytest.mark.skipif(not _C_OK, reason=f"c backend unavailable: {_C_REASON}")

_COLUMNS = ("job_ids", "releases", "leaves", "completion_times", "cancel_times")

#: Policy name -> factory per setting: a fresh object per run, so each
#: engine consumes its own RNG / round-robin state.
_POLICIES = {
    "greedy": lambda setting: (
        GreedyUnrelatedAssignment(0.25) if setting is Setting.UNRELATED
        else GreedyIdenticalAssignment(0.25)
    ),
    "closest": lambda setting: ClosestLeafAssignment(),
    "random": lambda setting: RandomAssignment(7),
    "least-loaded": lambda setting: LeastLoadedAssignment(),
    "round-robin": lambda setting: RoundRobinAssignment(),
}


def _policy_state(policy):
    rng = getattr(policy, "rng", None)
    return getattr(policy, "_next", None), None if rng is None else rng.bit_generator.state


def _assert_bounded_parity(instance, make_policy, until, **options):
    """Python's ``run(until=)`` and the kernel's, each with a fresh
    policy, agree exactly; returns the python result."""
    py_policy, c_policy = make_policy(), make_policy()
    ref = Engine(instance, py_policy, **options).run(until=until)
    got = CEngine(instance, c_policy, **options).run(until=until)
    assert got.records == ref.records
    for col in _COLUMNS:
        np.testing.assert_array_equal(getattr(got, col), getattr(ref, col))
    assert (got.alive_integral, got.fractional_flow) == (
        ref.alive_integral, ref.fractional_flow
    )
    assert _policy_state(c_policy) == _policy_state(py_policy)
    return ref


def _horizons(instance, full) -> list[float]:
    """0, mid-run, a release and a completion instant (both engine event
    instants), and past the makespan."""
    releases = instance.jobs.releases()
    return [
        0.0,
        float(releases[-1]) / 2,
        float(releases[len(releases) // 3]),
        float(np.sort(full.completion_times)[len(releases) // 2]),
        1.5 * full.makespan(),
    ]


@needs_c
class TestKernelBoundedParity:
    @pytest.fixture(scope="class")
    def instances(self):
        tree = datacenter_tree(2, 2, 3)
        return {
            Setting.IDENTICAL: api.make_instance(tree=tree, n_jobs=60, load=0.9, seed=5),
            Setting.UNRELATED: api.make_instance(
                tree=tree, n_jobs=60, load=0.9, unrelated=True, seed=6
            ),
        }

    @pytest.mark.parametrize("priority", [sjf_priority, fifo_priority])
    @pytest.mark.parametrize("setting", [Setting.IDENTICAL, Setting.UNRELATED])
    @pytest.mark.parametrize("name", list(_POLICIES))
    def test_grid(self, instances, name, setting, priority):
        instance = instances[setting]

        def make():
            return _POLICIES[name](setting)

        full = Engine(instance, make(), priority=priority).run()
        bounded = []
        for until in _horizons(instance, full):
            ref = _assert_bounded_parity(instance, make, until, priority=priority)
            bounded.append(len(ref.unfinished_job_ids()))
        assert any(bounded)  # some horizon cuts the run mid-flight

    def test_events_on_and_between_event_instants(self, instances):
        instance = instances[Setting.IDENTICAL]
        rack = instance.tree.parent(instance.tree.leaves[0])
        releases = instance.jobs.releases()
        jobs = instance.jobs
        deck = EventSchedule([
            NodeDown(float(releases[10]), rack),
            NodeUp(float(releases[25]), rack),
            Cancel(float(releases[20]), jobs[15].id),
            Cancel(float(releases[30]), jobs[30].id),  # at its own release
        ])
        for until in [0.0, *(ev.time for ev in deck.events), float(releases[-1]), 1e9]:
            for name in _POLICIES:
                _assert_bounded_parity(
                    instance, lambda: _POLICIES[name](Setting.IDENTICAL), until,
                    events=deck,
                )

    def test_cancel_of_a_job_released_after_the_horizon(self, instances):
        # The cancel lies inside the horizon, its job outside: a no-op on
        # both engines (the kernel never indexes past the jobs it runs).
        instance = instances[Setting.IDENTICAL]
        releases = instance.jobs.releases()
        late = instance.jobs[40]
        deck = EventSchedule([Cancel(float(releases[5]), late.id)])
        until = float(releases[20])
        ref = _assert_bounded_parity(
            instance, lambda: GreedyIdenticalAssignment(0.25), until, events=deck
        )
        assert late.id not in ref.records
        assert not np.isfinite(ref.cancel_times).any()

    def test_router_origin_static_policy(self):
        tree = kary_tree(2, 3)
        pods = tree.root_children
        jobs = JobSet([
            Job(id=i, release=0.3 * i, size=1.0 + (i % 4),
                origin=pods[i % 2] if i % 3 else None)
            for i in range(40)
        ])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        for until in (0.0, 4.0, 6.3, 100.0):
            for make in (
                lambda: RandomAssignment(11), RoundRobinAssignment, ClosestLeafAssignment
            ):
                _assert_bounded_parity(instance, make, until)

    def test_negative_horizon_raises_python_message_on_both(self, instances):
        instance = instances[Setting.IDENTICAL]
        for until in (-1.0, math.nan):
            for backend in ("python", "c"):
                policy = RandomAssignment(3)
                state = _policy_state(policy)
                with pytest.raises(SimulationError, match=r"until must be >= 0, got"):
                    backends.simulate(instance, policy, backend=backend, until=until)
                assert _policy_state(policy) == state  # no draw consumed
