"""A failed step leaves the session in a defined state, on both engines.

When the arrival source raises, the step that pulled it re-raises the
source's own exception and the session is failed: every later ``step``,
``drain`` and ``idle`` raises a ``SimulationError`` whose ``__cause__``
is that exception, while ``snapshot`` and ``close`` still read the
state at the failure.  No admitted job is handed out twice and none is
dropped silently.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.analysis.experiments.workloads import identical_instance
from repro.exceptions import SimulationError
from repro.network.builders import kary_tree
from repro.sim.backends import available_backends

_YIELDED = 100


class SourceBroke(RuntimeError):
    pass


def _session(backend: str, window: float):
    instance = identical_instance(kary_tree(2, 3), 200, load=0.9, seed=1)

    def source():
        for i, job in enumerate(instance.jobs):
            if i == _YIELDED:
                raise SourceBroke("the arrival source broke")
            yield job

    session = api.open_system(
        instance=instance, policy="greedy", arrivals=source(), window=window,
        backend=backend,
    )
    assert session.backend == backend
    return session


@pytest.mark.parametrize("window", [1.0, 50.0])
@pytest.mark.parametrize("backend", ["python", "c"])
def test_raising_source_fails_the_session(backend, window):
    if backend not in available_backends():
        pytest.skip("c backend unavailable")
    session = _session(backend, window)
    with pytest.raises(SourceBroke):
        while True:
            session.step()
    for call in (session.step, session.drain, session.idle):
        with pytest.raises(SimulationError, match="arrival source raised") as info:
            call()
        assert isinstance(info.value.__cause__, SourceBroke)
    snap = session.snapshot()
    assert snap.arrivals_total <= _YIELDED
    # Every admitted job is accounted for exactly once.
    assert snap.arrivals_total == snap.completions_total + snap.jobs_in_flight
    result = session.close()
    assert len(result.records) == snap.jobs_in_flight
    assert session.close() is result


def test_stream_fuzz_runs_raising_sources_on_both_engines():
    """``repro fuzz --stream`` streams a quarter of its cases from a
    raising source too, and counts the runs per engine."""
    from repro.testing import run_fuzz

    summary = run_fuzz(seed=0, max_cases=40, corpus_dir=None, backends=True, stream=True)
    assert summary.ok, [f.to_doc() for f in summary.failures]
    raised = summary.to_doc()["raising_sources"]
    assert raised["python"] > 0
    if "c" in available_backends():
        assert 0 < raised["c"] <= raised["python"]
