"""Dynamic events through the open-system :class:`StreamSession`.

The satellite contract under test: windowed stats must never count a
cancelled or outage-stalled job as a completion.  The deterministic
timeline below places a cancellation inside window 0 and stalls a job
across the window-0/window-1 boundary with a node outage, then checks
every counter, all closed windows, and the ``snapshot/v1`` document.

Timeline (window = 10, chain root 0 → router 1 → leaf 2, speed 1,
identical setting so each hop of job *j* takes ``p_j``):

====  =======================================================
t     event
====  =======================================================
0     job 0 (size 3) released; starts at router 1
1     job 1 (size 5) released; queued at the router
2     job 2 (size 4) released; queued at the router
3     job 0 hops to the leaf; SJF starts job 2 (4 < 5)
6     job 0 **completes** (flow 6); job 1 **cancelled** while
      queued at the router (completion-before-event tie rule)
7     job 2 hops to the leaf; job 3 (size 5, released at 4)
      starts at the router
8     router 1 goes **down** — job 3 stalls with 4 remaining
10    window 0 closes: 1 completion, 1 cancellation, jobs 2
      and 3 in flight (neither is a completion)
11    job 2 **completes** (flow 9) — a window-1 completion
13    router 1 comes back **up**; job 3 resumes
17    job 3 hops to the leaf
22    job 3 **completes** (flow 18) — a window-2 completion
====  =======================================================
"""

from __future__ import annotations

import pytest

from repro import api
from repro.exceptions import SimulationError
from repro.network.builders import tree_from_parent_map
from repro.service.http import render_metrics
from repro.service.metrics import validate_snapshot
from repro.testing.generate import FuzzCase
from repro.testing.stream import check_stream, stream_plan
from repro.workload.events import Cancel, EventSchedule, NodeDown, NodeUp
from repro.workload.instance import Instance, Setting
from repro.workload.job import JobSet

WINDOW = 10.0


def _instance():
    tree = tree_from_parent_map({0: None, 1: 0, 2: 1})
    jobs = JobSet.build(
        releases=[0.0, 1.0, 2.0, 4.0],
        sizes=[3.0, 5.0, 4.0, 5.0],
    )
    return Instance(tree, jobs, Setting.IDENTICAL, name="stream-events")


def _events():
    return EventSchedule(
        [Cancel(6.0, 1), NodeDown(8.0, 1), NodeUp(13.0, 1)]
    )


def _session(**kw):
    return api.open_system(
        instance=_instance(), events=_events(), window=WINDOW,
        keep_windows=100, **kw
    )


class TestWindowBoundary:
    def test_cancelled_and_stalled_jobs_are_not_window_completions(self):
        sess = _session()
        sess.step(until=WINDOW)  # close window 0 exactly at the boundary
        w0 = sess.last_window
        assert w0 is not None and w0.index == 0
        assert w0.arrivals == 4
        assert w0.completions == 1, (
            "window 0 saw exactly job 0 complete; the cancelled and the "
            "stalled jobs must not inflate the count"
        )
        assert w0.cancelled == 1
        # The in-flight jobs (one stalled on the downed router, one in
        # service at the leaf) are not completions at the boundary.
        snap = sess.snapshot()
        assert snap.completions_total == 1
        assert snap.cancelled_total == 1
        assert snap.jobs_in_flight == 2

        sess.drain()
        w1, w2 = sess.windows[1], sess.windows[2]
        assert w1.completions == 1  # job 2, finishing at the leaf
        assert w1.cancelled == 0
        assert w2.completions == 1  # job 3, after the repair
        assert w2.cancelled == 0
        assert sess.snapshot().completions_total == 3

    def test_cancelled_flow_never_enters_the_histograms(self):
        sess = _session()
        sess.drain()
        snap = sess.snapshot()
        # Completions: flows 6, 9, 18.  The cancellation contributes
        # nothing, cumulatively or per window.
        assert snap.flow["count"] == 3
        assert snap.flow["mean"] == pytest.approx((6.0 + 9.0 + 18.0) / 3.0)
        w0, w1, w2 = sess.windows[0], sess.windows[1], sess.windows[2]
        assert [w.flow["count"] for w in (w0, w1, w2)] == [1, 1, 1]
        assert w0.flow["mean"] == pytest.approx(6.0)
        assert w1.flow["mean"] == pytest.approx(9.0)
        assert w2.flow["mean"] == pytest.approx(18.0)

    def test_completion_times_are_the_documented_timeline(self):
        done: dict[int, float] = {}
        sess = _session(
            on_finish=lambda r: done.__setitem__(r.job_id, r.completion)
        )
        sess.drain()
        assert done == {0: 6.0, 2: 11.0, 3: 22.0}

    def test_on_cancel_hook_sees_the_withdrawn_record(self):
        cancelled: list = []
        done: list[int] = []
        sess = _session(
            on_finish=lambda r: done.append(r.job_id),
            on_cancel=cancelled.append,
        )
        sess.drain()
        assert [r.job_id for r in cancelled] == [1]
        assert cancelled[0].cancelled_at == 6.0
        with pytest.raises(SimulationError):
            cancelled[0].completion  # a cancel is not a completion
        assert 1 not in done

    def test_counters_partition_the_arrivals(self):
        sess = _session()
        sess.drain()
        snap = sess.snapshot()
        assert (
            snap.completions_total + snap.cancelled_total
            == snap.arrivals_total
        )
        assert snap.jobs_in_flight == 0
        assert sum(w.cancelled for w in sess.windows) == snap.cancelled_total


class TestSnapshotContract:
    def test_snapshot_document_validates_with_cancelled_fields(self):
        sess = _session()
        sess.drain()
        doc = sess.snapshot().to_dict()
        assert validate_snapshot(doc) == []
        assert doc["cancelled_total"] == 1
        assert doc["last_window"]["cancelled"] == 0

    def test_validator_requires_the_cancelled_fields(self):
        sess = _session()
        sess.drain()
        doc = sess.snapshot().to_dict()
        bad = {k: v for k, v in doc.items() if k != "cancelled_total"}
        assert any("cancelled_total" in p for p in validate_snapshot(bad))
        doc["last_window"] = {
            k: v for k, v in doc["last_window"].items() if k != "cancelled"
        }
        assert any(
            "last_window.cancelled" in p for p in validate_snapshot(doc)
        )

    def test_prometheus_export_carries_the_cancelled_counter(self):
        sess = _session()
        sess.step(until=WINDOW)
        body = render_metrics(sess)
        assert "repro_stream_cancelled_total 1" in body
        assert "repro_stream_completions_total 1" in body


class CallbackBroke(RuntimeError):
    pass


class TestCallbacks:
    def test_terminal_callbacks_run_at_the_end_of_the_step_in_order(self):
        # Job 0 finishes and job 1 is cancelled at t=6: both callbacks
        # run once the step reaches the boundary, in (terminal time,
        # job id) order, finished and cancelled alike.
        calls = []

        def note(kind):
            return lambda r: calls.append((kind, r.job_id, sess.now))

        sess = _session(on_finish=note("finish"), on_cancel=note("cancel"))
        sess.step(until=WINDOW)
        assert calls == [("finish", 0, WINDOW), ("cancel", 1, WINDOW)]
        sess.drain()
        assert [c[:2] for c in calls[2:]] == [("finish", 2), ("finish", 3)]

    def test_raising_on_cancel_fails_the_session(self):
        def on_cancel(record):
            raise CallbackBroke("on_cancel broke")

        sess = _session(on_cancel=on_cancel)
        with pytest.raises(CallbackBroke):
            sess.step(until=WINDOW)
        # The engine step reached its boundary before the callback ran.
        assert sess.now == WINDOW
        for call in (sess.step, sess.drain, sess.idle):
            with pytest.raises(SimulationError, match="callback raised") as info:
                call()
            assert isinstance(info.value.__cause__, CallbackBroke)
        snap = sess.snapshot()
        assert (snap.completions_total, snap.cancelled_total) == (1, 1)
        assert snap.arrivals_total == (
            snap.completions_total + snap.cancelled_total + snap.jobs_in_flight
        )
        # The cancelled job is not in flight.
        assert sorted(sess.close().records) == [2, 3]


class TestFuzzWitness:
    def test_cancel_event_of_an_evicted_job_crosschecks(self):
        # Shrunk from `repro fuzz --stream --events --seed 0`: the traced
        # session evicts job 4, cancelled at t=8, and hands it to
        # on_cancel; its cancel event stays in the unretired trace tail
        # and must match that record, not be reported as a cancel of a
        # job that is not cancelled.
        jobs = [1.0356006509798017, 1.1781383440669069, 1.0797739871655232,
                2.5483180571335886, 1.535040268286245, 1.1327308462234222]
        case = FuzzCase.from_doc({
            "config": {
                "arrivals": "all_zero", "eps": 0.25, "events": "mixed",
                "n_jobs": 6, "policy": "closest", "priority": "sjf",
                "seed": 397927511, "setting": "identical", "sizes": "pareto",
                "speed": "tiered", "topology": "paths_3x2",
            },
            "events": [
                {"job": 3, "kind": "cancel", "time": 2.5},
                {"job": 4, "kind": "cancel", "time": 8.0},
            ],
            "fixed_assignment": None,
            "instance": {
                "format": "treesched-instance",
                "jobs": [
                    {"id": i, "leaf_sizes": None, "origin": None,
                     "release": 0.0, "size": size}
                    for i, size in enumerate(jobs)
                ],
                "name": "witness/stream-cancel",
                "setting": "identical",
                "tree": {"names": {},
                         "parent_map": {"0": None, "7": 0, "8": 7, "9": 8}},
                "version": 1,
            },
            "shrunk": True,
        })
        assert stream_plan(case)[0].record
        assert check_stream(case) == []
