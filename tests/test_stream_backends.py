"""Open-system sessions on the compiled kernel: a c session equals the
python session on every snapshot, window, finished record and its
closing result; declined sessions say why they run python."""

from __future__ import annotations

import warnings

import pytest

from repro import api
from repro.core.assignment import FixedAssignment
from repro.exceptions import SimulationError
from repro.network.builders import kary_tree, star_of_paths
from repro.sim import counters as engine_counters
from repro.sim.backends import available_backends
from repro.workload.events import EventSchedule, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet

pytestmark = pytest.mark.skipif(
    "c" not in available_backends(), reason="c backend unavailable"
)

POLICIES = ("greedy", "closest", "random", "least-loaded", "round-robin")


def _instance(n_jobs=200, seed=11, **kw):
    return api.make_instance(n_jobs=n_jobs, load=0.95, seed=seed, **kw)


def _run(backend, untils=None, **kw):
    """Drive one session; returns ``(session, finished records, the
    snapshot after every step, closing result)``."""
    finished = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sess = api.open_system(backend=backend, on_finish=finished.append, **kw)
    assert sess.backend == backend
    snaps = []
    for until in untils or ():
        sess.step(until=until)
        snaps.append(sess.snapshot().to_dict())
    while untils is None and not sess.idle():
        sess.step()
        snaps.append(sess.snapshot().to_dict())
    return sess, finished, snaps, sess.close()


def _assert_same(a, b):
    (sa, fa, na, ra), (sb, fb, nb, rb) = a, b
    assert fa == fb
    assert na == nb
    assert [w.to_dict() for w in sa.windows] == [w.to_dict() for w in sb.windows]
    assert ra.records == rb.records
    assert ra.alive_integral == rb.alive_integral
    assert ra.fractional_flow == rb.fractional_flow
    assert ra.trace.gauges == rb.trace.gauges
    assert ra.trace.meta == rb.trace.meta


class TestParity:
    @pytest.mark.parametrize("unrelated", [False, True], ids=["identical", "unrelated"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_window_stepped_sessions_agree(self, policy, unrelated):
        inst = _instance(seed=3, unrelated=unrelated)
        kw = dict(instance=inst, policy=policy, window=4.0)
        _assert_same(_run("python", **kw), _run("c", **kw))

    @pytest.mark.parametrize("policy", ["greedy", "random"])
    def test_closed_mid_stream_with_jobs_in_flight(self, policy):
        # Incommensurate slices, closed before the stream drains: the
        # in-flight records, both integrals and the trailing gauge
        # sample all agree.
        inst = _instance(n_jobs=300, seed=8)
        untils = [2.7 * k for k in range(1, 40)]
        kw = dict(instance=inst, policy=policy, window=5.0, priority="fifo")
        a, b = _run("python", untils, **kw), _run("c", untils, **kw)
        assert a[3].records  # closed with jobs in flight
        assert b[3].trace.gauges
        _assert_same(a, b)

    def test_c_session_sliced_at_3_3_equals_window_stepped_python(self):
        inst = _instance(seed=5)
        ref: dict[int, float] = {}
        api.open_system(
            instance=inst, window=7.0,
            on_finish=lambda r: ref.__setitem__(r.job_id, r.completion),
        ).drain()
        got: dict[int, float] = {}
        sess = api.open_system(
            instance=inst, window=7.0, backend="c",
            on_finish=lambda r: got.__setitem__(r.job_id, r.completion),
        )
        t = 0.0
        while not sess.idle():
            t += 3.3
            sess.step(until=t)
        assert got == ref

    @pytest.mark.parametrize("backend", available_backends())
    def test_same_instant_completions_fold_in_job_id_order(self, backend):
        # Job 5 (size 2, released at 0) and job 3 (size 1, released at 2)
        # each cross a router and finish at t=4 on two leaves.  The
        # python engine pops job 5's completion first (it was scheduled
        # first); both engines hand the two over in (completion time,
        # job id) order.
        tree = star_of_paths(2, 1)
        a, b = tree.leaves
        inst = Instance(
            tree,
            JobSet([Job(id=5, release=0.0, size=2.0), Job(id=3, release=2.0, size=1.0)]),
            Setting.IDENTICAL,
        )
        finished = []
        sess = api.open_system(
            instance=inst, policy=FixedAssignment({5: a, 3: b}), window=10.0,
            backend=backend, on_finish=finished.append,
        )
        sess.drain()
        assert [r.completion for r in finished] == [4.0, 4.0]  # the tie
        assert [r.job_id for r in finished] == [3, 5]

    @pytest.mark.parametrize("policy", ["greedy", "random", "round-robin"])
    def test_equal_releases_with_descending_ids(self, policy):
        # The source order, not (release, id), is the arrival order; the
        # heaps still order ties by (release, id).
        tree = kary_tree(2, 2)
        jobs = [
            Job(id=20 - i, release=float(i // 4), size=1.0 + (i % 3) / 2)
            for i in range(20)
        ]
        ctx = Instance(tree, JobSet(()), Setting.IDENTICAL)
        kw = dict(instance=ctx, arrivals=jobs, policy=policy, window=1.5)
        _assert_same(_run("python", **kw), _run("c", **kw))

    @pytest.mark.parametrize("descending", [False, True])
    def test_static_policy_with_router_origins(self, descending):
        # Descending ids in each release group split a step's jobs into
        # one bulk-rule call per job, router-origin or not.
        tree = kary_tree(2, 3)
        router = tree.root_children[0]
        jobs = [
            Job(id=60 - i if descending else i, release=float(i // 3),
                size=1.0, origin=router if i % 3 == 2 else None)
            for i in range(40)
        ]
        ctx = Instance(tree, JobSet(()), Setting.IDENTICAL)
        kw = dict(instance=ctx, arrivals=jobs, policy="random", window=2.0)
        _assert_same(_run("python", **kw), _run("c", **kw))


class TestDeclines:
    @pytest.mark.parametrize(
        "option, reason",
        [
            (dict(record_points=True), "record_points"),
            (dict(record_spans=True), "record_spans"),
            (dict(check_invariants=True), "check_invariants"),
            (dict(events=EventSchedule([NodeDown(1.0, 1), NodeUp(2.0, 1)])), "events"),
            (dict(priority=lambda inst, job, node: (job.id,)), "priority"),
        ],
        ids=["points", "spans", "invariants", "events", "priority"],
    )
    def test_declined_session_warns_and_runs_python(self, option, reason):
        inst = _instance(n_jobs=20)
        with pytest.warns(RuntimeWarning, match=reason):
            sess = api.open_system(instance=inst, backend="c", **option)
        assert sess.backend == "python"
        sess.drain()
        assert sess.snapshot().arrivals_total == 20

    def test_plannable_session_runs_on_c_without_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "c")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sess = api.open_system(instance=_instance(n_jobs=20))
        assert sess.backend == "c"


class TestFailures:
    @pytest.mark.parametrize("policy", ["greedy", "least-loaded"])
    def test_router_origin_job_in_a_live_c_session_raises(self, policy):
        tree = kary_tree(2, 3)
        jobs = [Job(0, 0.0, 1.0), Job(1, 1.0, 1.0, origin=tree.root_children[0])]
        sess = api.open_system(
            tree=tree, arrivals=jobs, policy=policy, backend="c"
        )
        with pytest.raises(SimulationError, match="job 1 originates at router"):
            sess.drain()

    @pytest.mark.parametrize("backend", available_backends())
    def test_out_of_order_release_fails_alike(self, backend):
        tree = kary_tree(2, 2)
        jobs = [Job(0, 5.0, 1.0), Job(1, 1.0, 1.0)]
        sess = api.open_system(tree=tree, arrivals=jobs, backend=backend)
        with pytest.raises(SimulationError, match=r"time went backwards: 5\.0 -> 1\.0"):
            sess.step(until=10.0)


class TestCounters:
    def test_c_session_merges_its_counters_at_close(self):
        inst = _instance(n_jobs=50)
        aggregate = engine_counters.enable_global_counters()
        try:
            sess = api.open_system(instance=inst, backend="c")
            sess.drain()
            assert aggregate.runs == 0  # merged at close, as the engine does
            sess.close()
        finally:
            engine_counters.disable_global_counters()
        assert aggregate.runs == 1
        assert aggregate.arrivals == 50
        assert aggregate.completions >= 50
        assert aggregate.events_processed == aggregate.arrivals + aggregate.completions
        assert aggregate.run_seconds > 0.0
