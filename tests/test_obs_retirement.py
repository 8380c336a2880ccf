"""Window retirement in the trace recorder: dropped records, the
``retired`` meta entry, schema acceptance, and crosscheck tolerance."""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.core.assignment import GreedyIdenticalAssignment
from repro.exceptions import SimulationError
from repro.obs.schema import validate_line
from repro.obs.trace import TraceConfig, TraceRecorder, crosscheck_trace
from repro.sim.engine import Engine


def _streamed(recorder, *, until, retire_at, n_jobs=60, seed=17,
              record_segments=True):
    """Run a streamed simulation, retiring at ``retire_at`` mid-flight,
    then finish and build the result."""
    inst = api.make_instance(n_jobs=n_jobs, seed=seed)
    eng = Engine(
        inst, GreedyIdenticalAssignment(0.25), sink=recorder,
        record_segments=record_segments,
    )
    eng.stream_start(inst.jobs)
    eng.stream_step(until=until)
    dropped = recorder.retire(before=retire_at)
    return eng, dropped


class TestRetire:
    def test_drops_only_records_before_the_boundary(self):
        rec = TraceRecorder(TraceConfig(gauge_interval=1.0))
        _, dropped = _streamed(rec, until=20.0, retire_at=10.0)
        assert dropped["points"] > 0
        assert dropped["gauges"] > 0
        assert all(p.time > 10.0 for p in rec._points)
        assert all(s.end > 10.0 for s in rec._service)
        assert all(g.time > 10.0 for g in rec._gauges)

    def test_retired_tally_accumulates_and_lands_in_meta(self):
        rec = TraceRecorder(TraceConfig(gauge_interval=1.0))
        eng, d1 = _streamed(rec, until=10.0, retire_at=5.0)
        eng.stream_step(until=40.0)
        d2 = rec.retire(before=20.0)
        result = eng.stream_result()
        meta = result.trace.meta["retired"]
        for key in ("points", "spans", "gauges"):
            assert meta[key] == d1[key] + d2[key]
        assert meta["points"] > 0

    def test_unretired_trace_has_no_meta_entry(self):
        rec = TraceRecorder(TraceConfig(gauge_interval=1.0))
        inst = api.make_instance(n_jobs=20, seed=17)
        result = api.simulate(instance=inst, policy="greedy", sink=rec)
        assert "retired" not in result.trace.meta

    def test_retire_after_build_raises(self):
        rec = TraceRecorder(TraceConfig())
        inst = api.make_instance(n_jobs=10, seed=17)
        api.simulate(instance=inst, policy="greedy", sink=rec)
        with pytest.raises(SimulationError):
            rec.retire(before=1.0)

    def test_cumulative_busy_survives_retirement(self):
        """Retiring gauges must not lose cumulative busy time — the
        accumulator is independent of the retained samples."""
        rec = TraceRecorder(TraceConfig(gauge_interval=1.0))
        eng, _ = _streamed(rec, until=15.0, retire_at=0.0, seed=23)
        before = {v: rec.cumulative_busy(v, 15.0) for v in eng._nodes}
        rec.retire(before=15.0)
        after = {v: rec.cumulative_busy(v, 15.0) for v in eng._nodes}
        assert after == before
        assert any(b > 0.0 for b in after.values())


class TestSchemaAndCrosscheck:
    def _retired_result(self):
        rec = TraceRecorder(TraceConfig(gauge_interval=1.0))
        eng, _ = _streamed(rec, until=12.0, retire_at=6.0, n_jobs=50, seed=29)
        return eng.stream_result()

    def _meta_doc(self, result):
        # mirror the JSONL exporter's meta line
        from repro.obs.schema import TRACE_SCHEMA

        return json.loads(json.dumps(
            {"type": "meta", "schema": TRACE_SCHEMA, **result.trace.meta}
        ))

    def test_meta_with_retired_entry_validates(self):
        doc = self._meta_doc(self._retired_result())
        assert validate_line(doc, first=True) is None

    def test_meta_rejects_malformed_retired(self):
        doc = self._meta_doc(self._retired_result())
        doc["retired"] = {"points": -1}
        assert validate_line(doc, first=True) is not None
        doc["retired"] = "lots"
        assert validate_line(doc, first=True) is not None

    def test_jsonl_round_trip_validates(self, tmp_path):
        from repro.obs import validate_jsonl, write_jsonl

        result = self._retired_result()
        out = tmp_path / "trace.jsonl"
        write_jsonl(result.trace, str(out))
        counts, errors = validate_jsonl(str(out))
        assert errors == []
        assert counts["meta"] == 1

    def test_crosscheck_tolerates_retired_trace(self):
        """A trace with retired records still crosschecks against the
        result: remaining spans must be a subset of the schedule, and
        missing lifecycle points are not errors."""
        result = self._retired_result()
        assert result.trace.meta["retired"]["points"] > 0
        assert crosscheck_trace(result) == []

    def test_crosscheck_still_catches_foreign_spans(self):
        """Subset tolerance must not become blanket acceptance: a span
        the schedule never produced still fails."""
        from dataclasses import replace

        result = self._retired_result()
        service = result.trace.spans_of("service")
        bogus = replace(service[0], start=service[0].start + 0.123)
        result.trace.spans.append(bogus)
        assert crosscheck_trace(result)

    def test_full_trace_crosscheck_unchanged(self):
        """The strict (non-retired) path still demands exact equality."""
        rec = TraceRecorder(TraceConfig(gauge_interval=1.0))
        inst = api.make_instance(n_jobs=40, seed=31)
        result = api.simulate(
            instance=inst, policy="greedy", sink=rec, record_segments=True
        )
        assert crosscheck_trace(result) == []


class TestChromeExportWithRetirement:
    def test_chrome_exporter_handles_retired_trace(self, tmp_path):
        from repro.obs import write_chrome

        rec = TraceRecorder(TraceConfig(gauge_interval=1.0))
        eng, _ = _streamed(rec, until=12.0, retire_at=6.0, n_jobs=50, seed=37)
        result = eng.stream_result()
        out = tmp_path / "trace.json"
        count = write_chrome(result.trace, str(out))
        assert count > 0
        doc = json.loads(out.read_text())
        assert doc["otherData"]["retired"]["points"] > 0
