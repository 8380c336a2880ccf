"""Direct unit tests for SimulationResult, its per-job columns, the
read-only records mapping, and JobRecord."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro import api
from repro.core.assignment import FixedAssignment
from repro.exceptions import SimulationError
from repro.network.builders import spine_tree
from repro.sim.backends import c_build
from repro.sim.backends.c_backend import CEngine
from repro.sim.engine import simulate
from repro.sim.result import JobRecord, JobRecords, ScheduleSegment
from repro.sim.speed import SpeedProfile
from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet

_C_OK, _C_REASON = c_build.availability()
needs_c = pytest.mark.skipif(
    not _C_OK, reason=f"c backend unavailable: {_C_REASON}"
)

COLUMNS = ("job_ids", "releases", "leaves", "completion_times", "cancel_times")


def run(jobs, **kw):
    instance = Instance(spine_tree(1), JobSet(jobs), Setting.IDENTICAL)
    return simulate(instance, FixedAssignment({j.id: 2 for j in jobs}), **kw)


def in_flight_result():
    """Job 1 (size 1) finishes at 2.0; job 0 (size 5) is still on the
    router at the 2.5 horizon."""
    return run(
        [Job(id=0, release=0.0, size=5.0), Job(id=1, release=0.0, size=1.0)],
        until=2.5,
    )


def cancelled_result():
    """Job 1 is withdrawn at 0.5, mid-service on the router."""
    jobs = [Job(id=i, release=float(i) * 0.25, size=1.0) for i in range(3)]
    return run(jobs, events=EventSchedule([Cancel(0.5, 1)]))


def _events_instance():
    """Every third job declares a size estimate; one leaf goes down for
    a fifth of the horizon and every seventh job is cancelled."""
    base = api.make_instance(n_jobs=60, seed=5)
    releases = [j.release for j in base.jobs]
    sizes = [j.size for j in base.jobs]
    estimates = [1.2 * p if i % 3 == 0 else None for i, p in enumerate(sizes)]
    instance = Instance(
        base.tree,
        JobSet.build(releases, sizes, size_estimates=estimates),
        Setting.IDENTICAL,
    )
    horizon = max(releases)
    leaf = instance.tree.leaves[0]
    deck = [NodeDown(0.2 * horizon, leaf), NodeUp(0.4 * horizon, leaf)]
    deck += [Cancel(j.release + 0.5, j.id) for j in instance.jobs if j.id % 7 == 3]
    return instance, EventSchedule(deck)


def _case(kind):
    if kind == "identical":
        return api.make_instance(n_jobs=60, seed=3), None
    if kind == "unrelated":
        return api.make_instance(n_jobs=60, unrelated=True, seed=4), None
    return _events_instance()


def _pair(kind, policy):
    """The python engine's result and the kernel's, for one call."""
    instance, events = _case(kind)
    speeds = SpeedProfile.uniform(1.5)

    def resolve():
        return api._resolve_policy(policy, instance, 0.25, 7)

    py = simulate(instance, resolve(), speeds=speeds, events=events)
    c = CEngine(instance, resolve(), speeds, events=events).run()
    return py, c


def assert_columns_equal(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)  # NaN == NaN


def assert_columns_read_only(res):
    for name in COLUMNS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(res, name)[0] = 0


class TestJobRecord:
    def test_unfinished_completion_raises(self):
        rec = JobRecord(job_id=0, release=0.0, leaf=2, path=(1, 2))
        rec.available_at = [0.0]
        rec.completed_at = [1.0]
        assert not rec.finished
        with pytest.raises(SimulationError, match="did not complete"):
            _ = rec.completion

    def test_time_on_node(self):
        res = run([Job(id=0, release=0.0, size=2.0)])
        rec = res.records[0]
        assert rec.time_on_node(0) == pytest.approx(2.0)
        assert rec.time_on_node(1) == pytest.approx(2.0)


class TestScheduleSegment:
    def test_duration(self):
        assert ScheduleSegment(1, 0, 2.0, 5.0).duration == 3.0


class TestSimulationResult:
    def test_flow_accessors_consistent(self):
        res = run([Job(id=i, release=float(i), size=1.0) for i in range(4)])
        flows = res.flow_times()
        assert res.total_flow_time() == pytest.approx(float(flows.sum()))
        assert res.mean_flow_time() == pytest.approx(float(flows.mean()))
        assert res.max_flow_time() == pytest.approx(float(flows.max()))
        assert res.completions()[0] == res.records[0].completion

    def test_empty_result_metrics(self):
        res = run([])
        assert res.total_flow_time() == 0.0
        assert res.mean_flow_time() == 0.0
        assert res.max_flow_time() == 0.0
        assert res.makespan() == 0.0
        res.verify_complete()

    def test_verify_complete_raises_on_partial(self):
        for res in (
            run([Job(id=0, release=0.0, size=5.0)], until=2.0),
            in_flight_result(),
        ):
            with pytest.raises(SimulationError, match=r"did not complete: \[0\]"):
                res.verify_complete()

    def test_repr_mentions_totals(self):
        res = run([Job(id=0, release=0.0, size=1.0)])
        assert "total_flow" in repr(res)

    def test_repr_of_a_bounded_run_counts_jobs_in_flight(self):
        text = repr(in_flight_result())
        assert "jobs=2" in text and "in_flight=1" in text
        assert "total_flow" not in text

    def test_completions_of_a_bounded_run_hold_finished_jobs(self):
        res = in_flight_result()
        assert res.completions() == {1: 2.0}
        assert res.makespan() == 2.0

    def test_flow_readers_of_a_bounded_run_still_raise(self):
        res = in_flight_result()
        for reader in (res.flow_times, res.total_flow_time):
            with pytest.raises(SimulationError, match="job 0 did not complete"):
                reader()


class TestColumns:
    def test_bounded_horizon_rows(self):
        res = in_flight_result()
        assert res.job_ids.tolist() == [0, 1]
        assert res.releases.tolist() == [0.0, 0.0]
        assert res.leaves.tolist() == [2, 2]
        assert math.isnan(res.completion_times[0])
        assert res.completion_times[1] == 2.0
        assert np.isnan(res.cancel_times).all()
        assert res.unfinished_job_ids() == (0,)
        assert list(res.completed_records()) == [1]
        partial = res.records[0]
        assert partial.available_at == [0.0] and partial.completed_at == []

    def test_cancelled_rows(self):
        res = cancelled_result()
        assert res.cancel_times[1] == 0.5
        assert math.isnan(res.completion_times[1])
        assert np.isnan(res.cancel_times[[0, 2]]).all()
        assert list(res.cancelled_records()) == [1]
        assert res.records[1].cancelled_at == 0.5
        assert 1 not in res.completions()
        assert res.flow_times().tolist() == [
            res.records[0].flow_time,
            res.records[2].flow_time,
        ]
        assert res.unfinished_job_ids() == ()
        res.verify_complete()

    def test_assignment_reads_the_leaf_column(self):
        res = cancelled_result()
        assert res.assignment() == {0: 2, 1: 2, 2: 2}

    def test_evicting_session_result_holds_in_flight_jobs_only(self):
        instance = api.make_instance(n_jobs=80, seed=2)
        session = api.open_system(instance=instance)
        session.step(until=instance.jobs[40].release)
        res = session.close()
        in_flight = res.unfinished_job_ids()
        assert 0 < len(in_flight) < 80
        assert sorted(res.job_ids.tolist()) == list(in_flight)
        assert list(res.records) == res.job_ids.tolist()
        assert np.isnan(res.completion_times).all()
        assert res.completions() == {}


class TestRecordsMapping:
    @pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
    def test_read_only(self, backend):
        res = api.simulate(instance=api.make_instance(n_jobs=10), backend=backend)
        assert isinstance(res.records, JobRecords)
        with pytest.raises(TypeError):
            res.records[0] = res.records[1]
        with pytest.raises(TypeError):
            del res.records[0]
        assert_columns_read_only(res)

    @pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
    def test_pickle_round_trip(self, backend):
        res = api.simulate(instance=api.make_instance(n_jobs=30), backend=backend)
        # Pickled before any record is read: a c result ships its rows.
        back = pickle.loads(pickle.dumps(res))
        assert back.records == res.records
        assert back.total_flow_time() == res.total_flow_time()
        assert_columns_equal(back, res)
        assert_columns_read_only(back)

    @pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_c)])
    def test_results_compare_field_by_field(self, backend):
        instance = api.make_instance(n_jobs=30)
        a = api.simulate(instance=instance, backend=backend)
        b = api.simulate(instance=instance, backend=backend)
        assert a == b and not a != b
        b.fractional_flow += 1.0
        assert a != b
        with pytest.raises(TypeError):
            hash(a)

    @needs_c
    def test_c_len_iter_and_in_build_nothing(self):
        instance = api.make_instance(n_jobs=30)
        res = api.simulate(instance=instance, backend="c")
        ids = [j.id for j in instance.jobs]
        assert len(res.records) == 30
        assert list(res.records) == ids and ids[4] in res.records
        assert -1 not in res.records
        res.total_flow_time(), res.assignment(), res.completions()
        res.verify_complete(), repr(res)
        assert res.records._records is None  # still only rows
        assert res.records[ids[4]].job_id == ids[4]
        assert res.records._records is not None  # one read built them all


@needs_c
class TestBackendParity:
    """The c result's columns and lazily built records against the
    python engine's, on every policy and on an event-bearing deck."""

    @pytest.mark.parametrize("kind", ["identical", "unrelated", "events"])
    @pytest.mark.parametrize("policy", api.POLICY_NAMES)
    def test_columns_and_records_match(self, kind, policy):
        py, c = _pair(kind, policy)
        assert_columns_equal(py, c)
        assert py.flow_times().tobytes() == c.flow_times().tobytes()
        assert py.records == c.records
        assert py.assignment() == c.assignment()
        assert py.completions() == c.completions()
        assert py.cancelled_records() == c.cancelled_records()
        # Both engines close the same per-job deficits with the same
        # algebra and sum them the same way.
        assert py.fractional_flow == c.fractional_flow
        assert py.alive_integral == c.alive_integral
        # The integral: a left-to-right sum over the records in arrival
        # order, each job's flow up to completion or cancel.
        alive = 0.0
        for rec in c.records.values():
            end = rec.cancelled_at if rec.cancelled else rec.completion
            alive += end - rec.release
        assert c.alive_integral == alive
