"""The session's window fold: one binning pass per engine step, window
stats built when first read.

The oracle for every session here is the callback stream: each
``on_finish`` record's flow time, added with one
:meth:`StreamingHistogram.add` to the histogram of the window that was
open when the callback ran (and to a cumulative one), must rebuild
every ``WindowStats.flow`` and every snapshot's ``flow`` exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.service.metrics import StreamingHistogram
from repro.sim.backends import available_backends
from repro.workload.arrivals import job_stream, poisson_process, uniform_size_stream

_LAYOUTS = (
    {"low": 1e-3, "high": 1e5, "bins": 128},
    {"low": 0.5, "high": 8.0, "bins": 4},
    {"low": 0.1, "high": 0.2, "bins": 1},
)


def _state(hist: StreamingHistogram):
    """Everything ``add`` changes; ``repr`` keeps -0.0 apart from 0.0."""
    return list(hist._counts), hist.count, hist.total.hex(), repr(hist.min), repr(hist.max)


def _edges(layout) -> list[float]:
    """Each bin edge, one ulp either side, and the range's extremes."""
    probe = StreamingHistogram(**layout)
    out = [0.0, -0.0, layout["low"] / 3, layout["high"], layout["high"] * 7, 1e300]
    for i in range(layout["bins"] + 1):
        edge = math.exp(probe._log_low + i / probe._scale)
        out += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    return out


@st.composite
def _batches(draw):
    layout = draw(st.sampled_from(_LAYOUTS))
    value = st.one_of(
        st.sampled_from(_edges(layout)),
        st.floats(min_value=0.0, max_value=layout["low"]),
        st.floats(min_value=layout["low"], max_value=layout["high"]),
        st.floats(min_value=layout["high"], max_value=1e300),
    )
    prefix = draw(st.lists(value, max_size=5))
    batches = draw(st.lists(st.lists(value, max_size=12), min_size=1, max_size=6))
    return layout, prefix, batches


class TestAddMany:
    @settings(max_examples=300, deadline=None)
    @given(_batches())
    def test_one_pass_equals_one_add_per_value(self, drawn):
        """Binning each step's flows once leaves both histograms exactly
        as one ``add`` per value on each would: counts, count, min, max
        and the left-to-right total, bit for bit."""
        layout, prefix, batches = drawn
        cum, ref_cum = StreamingHistogram(**layout), StreamingHistogram(**layout)
        for value in prefix:
            cum.add(value)
            ref_cum.add(value)
        for batch in batches:
            win, ref_win = StreamingHistogram(**layout), StreamingHistogram(**layout)
            cum.add_many(batch, win)
            for value in batch:
                ref_cum.add(value)
                ref_win.add(value)
            assert _state(cum) == _state(ref_cum)
            assert _state(win) == _state(ref_win)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, -math.inf, math.inf, math.nan])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_bad_value_raises_before_either_histogram_changes(self, bad, at):
        cum, win = StreamingHistogram(), StreamingHistogram()
        cum.add(3.0)
        win.add(0.5)
        before = _state(cum), _state(win)
        batch = [1.0, 2e-4, 7.0, 2e5]
        batch.insert(at, bad)
        with pytest.raises(ValueError) as info:
            cum.add_many(batch, win)
        with pytest.raises(ValueError) as single:
            StreamingHistogram().add(bad)
        assert str(info.value) == str(single.value)
        assert (_state(cum), _state(win)) == before


def _tree():
    return api.build_tree("kary", branching=2, depth=2)


def _source(n_jobs: int, seed: int = 3):
    return job_stream(
        poisson_process(0.9, np.random.default_rng(seed)),
        uniform_size_stream(rng=np.random.default_rng(seed + 1)),
        limit=n_jobs,
    )


class _Oracle:
    """Rebuilds the session's histograms from its ``on_finish`` calls."""

    def __init__(self, layout=None) -> None:
        self.layout = layout or {}
        self.cum = StreamingHistogram(**self.layout)
        self.windows: dict[int, StreamingHistogram] = {}
        self.session = None

    def on_finish(self, record) -> None:
        index = self.session._windows_closed  # the window open right now
        if index not in self.windows:
            self.windows[index] = StreamingHistogram(**self.layout)
        self.cum.add(record.flow_time)
        self.windows[index].add(record.flow_time)

    def window_flow(self, index: int) -> dict:
        return self.windows.get(index, StreamingHistogram(**self.layout)).summary()


def _open(backend, window, keep, oracle, n_jobs=300):
    sess = api.open_system(
        tree=_tree(), arrivals=_source(n_jobs), policy="greedy",
        window=window, keep_windows=keep, backend=backend,
        on_finish=oracle.on_finish,
    )
    assert sess.backend == backend
    oracle.session = sess
    return sess


def _drive(sess, window, read, seed=5):
    """Step to idle through a seeded mix of window steps and mid-window
    ``step(until=)`` slices; ``read(sess)`` after every step."""
    rng = np.random.default_rng(seed)
    while not sess.idle():
        if rng.random() < 0.5:
            sess.step()
        else:
            sess.step(until=sess.now + window * float(rng.uniform(0.0, 2.5)))
        read(sess)


@pytest.mark.parametrize("keep", [1, 10**4])
@pytest.mark.parametrize("window", [1.0, 3.7, 10.0])
@pytest.mark.parametrize("backend", ["python", "c"])
def test_window_and_snapshot_flows_rebuild_from_on_finish(backend, window, keep):
    if backend not in available_backends():
        pytest.skip("c backend unavailable")

    def check(sess, oracle):
        snap = sess.snapshot()
        assert snap.flow == oracle.cum.summary()
        assert snap.flow["count"] == snap.completions_total
        windows = sess.windows
        assert len(windows) == min(keep, snap.windows_closed)
        assert snap.last_window == (windows[-1] if windows else None)
        for stats in windows:
            assert stats.flow == oracle.window_flow(stats.index)
            assert stats.flow["count"] == stats.completions
        return snap, windows

    eager = _Oracle()
    sess = _open(backend, window, keep, eager)
    _drive(sess, window, lambda s: check(s, eager))
    eager_end = check(sess, eager)

    lazy = _Oracle()
    sess = _open(backend, window, keep, lazy)
    _drive(sess, window, lambda s: None)
    lazy_end = check(sess, lazy)

    # Windows built at the end equal windows built as each one closed.
    assert lazy_end == eager_end
    assert lazy_end[0].windows_closed > 10


def test_histogram_prototype_is_a_layout_not_shared_state():
    """Sessions on one prototype each fill their own histograms, laid
    out like it, and leave the prototype empty."""
    layout = {"low": 0.01, "high": 1000.0, "bins": 16}
    proto = StreamingHistogram(**layout)
    empty = _state(proto)
    backends = ["python", "c"] if "c" in available_backends() else ["python"] * 2
    opened = []
    for backend in backends:
        oracle = _Oracle(layout)
        oracle.session = api.open_system(
            tree=_tree(), arrivals=_source(200), policy="greedy", window=5.0,
            histogram=proto, backend=backend, on_finish=oracle.on_finish,
        )
        opened.append(oracle)
    for oracle in opened:
        oracle.session.drain()
    for oracle in opened:
        snap = oracle.session.snapshot()
        assert snap.completions_total == 200
        assert snap.flow["count"] == snap.completions_total
        assert snap.flow == oracle.cum.summary()
        assert _state(proto) == empty
