"""End-to-end proof the events fuzz stream catches a dynamic-events bug.

The injected bug breaks :meth:`Engine._handle_node_down`: the handler
settles the interrupted run but "forgets" the version bump that
invalidates the node's pending completion event.  The stale event then
restarts the node mid-outage, so work completes while the node is down —
exactly the class of bug the outage families of ``repro fuzz --events``
exist to catch.  The fuzzer must (a) catch it within the default budget
at seed 0, (b) shrink the witness to a handful of jobs AND events,
(c) persist it to the corpus, and (d) replay it: reproducing while the
bug is present, clean once the handler is restored.

The event-free stream cannot see this bug (no outages, no down
handler), which doubles as proof that the ``--events`` flag is what
buys the coverage.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine, simulate
from repro.testing import replay, run_fuzz
from repro.testing.checks import ALL_CHECKS, BACKEND_CHECK, run_checks
from repro.testing.exact import exact_replay
from repro.testing.generate import FuzzCase

MAX_CASES = 500
SHRUNK_JOB_CEILING = 6
SHRUNK_EVENT_CEILING = 3


def _broken_handle_node_down(self, node: int) -> None:
    """The real handler minus the version bump: the stale completion
    event keeps serving the node through the outage."""
    ns = self._nodes[node]
    self._settle(ns)
    self._drain_finished_top(ns)
    ns.down = True
    self._down.add(node)
    if self._tracer is not None:
        self._tracer.on_node_down(self.now, node)


@pytest.fixture
def broken_node_down(monkeypatch):
    monkeypatch.setattr(
        Engine, "_handle_node_down", _broken_handle_node_down
    )


@pytest.mark.slow
def test_injected_node_down_bug_is_caught_shrunk_and_replayable(
    broken_node_down, tmp_path, monkeypatch
):
    corpus = tmp_path / "corpus"
    summary = run_fuzz(
        seed=0, max_cases=MAX_CASES, corpus_dir=corpus, events=True
    )

    assert not summary.ok, (
        f"events fuzzer missed the injected node_down bug in "
        f"{MAX_CASES} cases"
    )

    best = min(
        summary.failures,
        key=lambda rec: (rec.n_jobs_shrunk, rec.n_events_shrunk),
    )
    assert best.n_jobs_shrunk <= SHRUNK_JOB_CEILING, (
        f"witness only shrank to {best.n_jobs_shrunk} jobs"
    )
    assert best.n_events_shrunk <= SHRUNK_EVENT_CEILING, (
        f"witness kept {best.n_events_shrunk} events"
    )
    assert best.n_events_shrunk >= 1, (
        "an event-free witness cannot exercise the node_down handler"
    )
    for rec in summary.failures:
        assert rec.path is not None
        assert (corpus / f"{rec.digest}.json").exists()
        assert rec.failing_checks, rec

    # With the bug still present the repro reproduces...
    report = replay(best.digest, corpus)
    assert report.reproduced
    assert set(report.failing_checks) & set(best.failing_checks)

    # ...and with the handler restored, it is clean: the corpus entry
    # now documents a fixed bug.
    monkeypatch.undo()
    report = replay(best.digest, corpus)
    assert not report.reproduced


def test_event_free_stream_is_blind_to_the_bug(broken_node_down, tmp_path):
    """Without ``events=True`` no outage is ever generated, so the
    broken handler never runs — the coverage is bought by the flag."""
    summary = run_fuzz(
        seed=0, max_cases=60, corpus_dir=tmp_path / "corpus", shrink=False
    )
    assert summary.ok


def test_broken_node_down_caught_quickly(broken_node_down, tmp_path):
    """A cheaper smoke version: the deterministic outage deck entries
    mean the bug cannot hide even in a short run."""
    summary = run_fuzz(
        seed=0,
        max_cases=60,
        corpus_dir=tmp_path / "corpus",
        shrink=False,
        events=True,
    )
    assert not summary.ok


def _witness(topology, parent_map, jobs, schedule, **config):
    """A shrunk ``repro fuzz --events`` witness, as its corpus document
    would rebuild it."""
    return FuzzCase.from_doc(
        {
            "config": {
                "arrivals": "poisson", "eps": 0.25, "events": "mixed",
                "n_jobs": len(jobs), "policy": "greedy", "priority": "sjf",
                "seed": 0, "setting": "unrelated", "sizes": "uniform",
                "speed": "unit", "topology": topology, **config,
            },
            "events": schedule,
            "fixed_assignment": None,
            "instance": {
                "format": "treesched-instance",
                "jobs": jobs,
                "name": f"witness/{topology}",
                "setting": "unrelated",
                "tree": {"names": {}, "parent_map": parent_map},
                "version": 1,
            },
            "shrunk": True,
        }
    )


class TestPinnedWitnesses:
    """Shrunk witnesses of two defects the events fuzz found at seeds
    1 and 2, pinned so the whole battery (backends included) stays
    clean on them."""

    def test_cancel_inside_an_outage_withdraws_the_queued_job(self):
        # Path 4 -> 5 -> 6; leaf 6 is down over [2.25, 15.5).  Job 3
        # reaches it at 3.0 and is cancelled at 13.0, inside the
        # outage.  The exact oracle used to jump straight to the repair,
        # spend the cancel before admitting job 3, and complete it at
        # 17.25.
        case = _witness(
            "paths_3x2",
            {"0": None, "4": 0, "5": 4, "6": 5},
            [
                {"id": jid, "leaf_sizes": {"6": 1.0}, "origin": None,
                 "release": 0.0, "size": 1.0}
                for jid in (2, 3)
            ],
            [
                {"kind": "node_down", "node": 6, "time": 2.25},
                {"job": 3, "kind": "cancel", "time": 13.0},
                {"kind": "node_up", "node": 6, "time": 15.5},
            ],
            arrivals="all_zero",
        )
        assert run_checks(case, checks=ALL_CHECKS + (BACKEND_CHECK,)) == []
        result = simulate(case.instance, case.policy(), events=case.events)
        assert result.records[3].cancelled_at == 13.0
        assert 3 not in exact_replay(
            case.instance, result.assignment(), events=case.events
        )

    def test_cancel_at_the_brink_of_the_last_completion_is_a_no_op(self):
        # One unit job on a 2-hop path, cancelled at release + 2.0: its
        # settled residual at the cancel instant is within finished_tol,
        # so it finishes first and the cancel finds it done.  The engine
        # used to withdraw it, and time_shift flipped the outcome.
        release = 0.4947915350708311
        case = _witness(
            "paths_2x1",
            {"0": None, "3": 0, "4": 3},
            [{"id": 0, "leaf_sizes": {"4": 1.0}, "origin": None,
              "release": release, "size": 1.0}],
            [{"job": 0, "kind": "cancel", "time": 2.494791535070831}],
            events="cancels", policy="least-loaded", sizes="equal", eps=1.0,
        )
        assert run_checks(case, checks=ALL_CHECKS + (BACKEND_CHECK,)) == []
        result = simulate(case.instance, case.policy(), events=case.events)
        record = result.records[0]
        assert not record.cancelled
        assert record.completion == pytest.approx(release + 2.0)
