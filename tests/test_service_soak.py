"""Bounded-memory soak: a million streamed jobs through one session.

The open-system contract is that memory scales with the work *in
flight*, not the length of the stream: finished jobs are evicted, trace
records retire with their window, and flow times land in fixed-bin
histograms.  This suite streams 1M jobs and asserts the traced heap
plateaus (second half of the run no bigger than the first) and that
every per-session container is bounded at the end, on every backend: a
c session's kernel recycles the slots of finished jobs, so its resident
set must plateau too.  Marked slow — ``make test`` excludes it; CI runs
it in the scheduled lane.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.sim.backends import available_backends
from repro.workload.arrivals import job_stream, poisson_process, uniform_size_stream
from repro.workload.instance import Instance

N_JOBS = 1_000_000
LOAD = 0.8


def _rss_bytes() -> int:
    """Resident set size of this process (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


@pytest.mark.slow
def test_million_job_soak_memory_plateau():
    _soak("python")


@pytest.mark.slow
@pytest.mark.skipif("c" not in available_backends(), reason="c backend unavailable")
def test_million_job_soak_memory_plateau_on_c():
    _soak("c")


def _soak(backend: str) -> None:
    tree = api.build_tree("paths", num_paths=2, path_length=1)
    rate = Instance.poisson_rate_for_load(tree, 2.5, LOAD)
    jobs = job_stream(
        poisson_process(rate, np.random.default_rng(101)),
        uniform_size_stream(rng=np.random.default_rng(102)),
        limit=N_JOBS,
    )
    # Window sized so the whole run closes a few thousand windows: wide
    # enough that fold overhead is negligible, narrow enough that
    # retirement actually runs throughout.
    horizon_estimate = N_JOBS / rate
    window = horizon_estimate / 4000.0
    session = api.open_system(
        tree=tree, arrivals=jobs, window=window, keep_windows=8, backend=backend
    )
    assert session.backend == backend

    tracemalloc.start()
    samples: list[int] = []
    rss: list[int] = []
    try:
        while not session.idle():
            session.step(until=session.now + 50 * window)
            samples.append(tracemalloc.get_traced_memory()[0])
            rss.append(_rss_bytes())
    finally:
        tracemalloc.stop()

    snap = session.snapshot()
    assert snap.arrivals_total == N_JOBS
    assert snap.completions_total == N_JOBS
    assert snap.jobs_in_flight == 0

    # RSS-plateau proxy: once warmed up, the traced heap must not grow
    # with the stream.  Compare the halves of the run (skipping the
    # first few warm-up samples); a leak of even a small per-job record
    # (~100 bytes * 500k jobs) would blow the second half up by tens of
    # megabytes, far beyond the 20% head-room granted here.
    assert len(samples) > 20
    first_half = samples[5 : len(samples) // 2]
    second_half = samples[len(samples) // 2 :]
    assert max(second_half) <= max(first_half) * 1.2 + 1_000_000
    # The kernel's own buffers are invisible to tracemalloc: the whole
    # resident set must plateau as well (8 bytes leaked per job would
    # add ~4 MB over the second half).
    assert max(rss[len(rss) // 2 :]) <= max(rss[5 : len(rss) // 2]) + 2_000_000

    # Every per-session container is bounded by in-flight work, not N.
    assert session._engine.alive_count == 0
    assert len(session.windows) == 8
    if backend == "python":
        assert len(session._engine._states) == 0
        # Every ended job's record was taken at the end of its step.
        assert len(session._engine._evicted) == 0
    else:
        # The step buffers grow with the jobs one step admits or
        # finishes, never with the stream.
        assert session._engine._in_cap <= 4096
        assert session._engine._out_cap <= 4096

    # The steady-state metrics survived the whole stream.
    assert snap.flow["count"] == N_JOBS
    assert snap.flow["p50"] is not None
    assert snap.flow["p99"] >= snap.flow["p50"]
    assert 0.0 < max(snap.utilization.values()) <= 1.0 + 1e-9
