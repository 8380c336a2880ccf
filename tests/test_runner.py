"""Tests for the parallel experiment runner and its result cache."""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.analysis.runner import (
    MANIFEST_SCHEMA,
    RunnerOutcome,
    aggregate_counters,
    cache_key,
    clear_cache,
    manifest_path,
    run_experiments,
    summary_table,
)

#: Small-but-nonzero workloads: fast enough for tier-1, long enough that
#: cold wall time dominates cache-read time.
FAST_IDS = ["F1", "F2"]


def same_payload(a, b) -> bool:
    """Bit-identical experiment outputs: metrics, rows, verdict, text."""
    return (
        a.metrics == b.metrics
        and a.table.rows == b.table.rows
        and a.table.columns == b.table.columns
        and a.passed == b.passed
        and a.render() == b.render()
    )


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("T1", {"n": 5}) == cache_key("T1", {"n": 5})

    def test_sensitive_to_id_and_params(self):
        base = cache_key("T1", {"n": 5})
        assert cache_key("T2", {"n": 5}) != base
        assert cache_key("T1", {"n": 6}) != base
        assert cache_key("T1", {}) != base

    def test_tuple_and_list_params_hash_alike(self):
        # argparse/json hand over lists, experiment defaults are tuples;
        # the canonical form must not distinguish them.
        assert cache_key("T1", {"speeds": (1.0, 1.5)}) == cache_key(
            "T1", {"speeds": [1.0, 1.5]}
        )


class TestCacheRoundTrip:
    def test_cold_then_warm(self, tmp_path):
        cold = run_experiments(FAST_IDS, cache_dir=tmp_path)
        assert [o.exp_id for o in cold] == FAST_IDS
        assert all(not o.cached for o in cold)
        warm = run_experiments(FAST_IDS, cache_dir=tmp_path)
        assert all(o.cached for o in warm)
        for a, b in zip(cold, warm):
            assert same_payload(a.result, b.result)
            assert a.key == b.key

    def test_no_cache_never_touches_disk(self, tmp_path):
        out = run_experiments(FAST_IDS, cache_dir=tmp_path, use_cache=False)
        assert all(not o.cached for o in out)
        assert list(tmp_path.rglob("*")) == []

    # pickle raises different exceptions depending on which opcode the
    # garbage happens to decode to: b"not a pickle" -> UnpicklingError,
    # b"garbage\n" -> ValueError (the GET opcode expects an int line).
    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n", b""])
    def test_corrupt_entry_is_a_miss(self, tmp_path, junk):
        first = run_experiments(FAST_IDS, cache_dir=tmp_path)
        entries = sorted((tmp_path / "trials").glob("*.pkl"))
        entries[0].write_bytes(junk)
        # one unreadable trial entry: that trial recomputes, the rest replay
        again = run_experiments(FAST_IDS, cache_dir=tmp_path)
        assert sum(o.trials_total - o.trials_cached for o in again) == 1
        for a, b in zip(first, again):
            assert same_payload(a.result, b.result)
        # and the repaired entry is served on the next read
        assert all(o.cached for o in run_experiments(FAST_IDS, cache_dir=tmp_path))
        # with every trial entry unreadable, the run is an honest recompute
        for entry in entries:
            entry.write_bytes(junk)
        cold = run_experiments(FAST_IDS, cache_dir=tmp_path)
        assert all(not o.cached and o.trials_cached == 0 for o in cold)
        for a, b in zip(first, cold):
            assert same_payload(a.result, b.result)

    def test_clear_cache(self, tmp_path):
        outcomes = run_experiments(FAST_IDS, cache_dir=tmp_path)
        # one entry per trial, and no experiment-level entries beside them
        assert clear_cache(tmp_path) == sum(o.trials_total for o in outcomes)
        assert list(tmp_path.glob("*.pkl")) == []
        assert clear_cache(tmp_path) == 0
        assert clear_cache(tmp_path / "missing") == 0


def test_unknown_id_rejected_before_any_trial_runs(tmp_path, monkeypatch):
    from repro.analysis import runner
    from repro.exceptions import AnalysisError

    ran = []
    monkeypatch.setattr(
        runner, "_execute_trial", lambda *args: ran.append(args) or (None, None, 0.0)
    )
    with pytest.raises(AnalysisError, match="unknown experiment 'ZZ'"):
        run_experiments(["F1", "ZZ"], cache_dir=tmp_path)
    assert ran == []
    assert list(tmp_path.rglob("*")) == []


class TestParallelIdentity:
    def test_full_registry_parallel_matches_serial(self, tmp_path):
        """Acceptance: --parallel 4 over the whole registry is
        bit-identical to the serial in-process reference
        (``run_experiment``), cold and warm (reduced-size parameters
        keep tier-1 fast; every experiment id is exercised).  S1 is the
        one experiment whose *output is itself a wall-clock measurement*
        (events/second); for it only the deterministic columns can be
        compared.
        """
        from repro.analysis.experiments import all_experiment_ids, run_experiment
        from tests.test_experiments import QUICK_PARAMS

        ids = all_experiment_ids()
        serial = [run_experiment(eid, **QUICK_PARAMS[eid]) for eid in ids]
        parallel = run_experiments(
            None,
            params_by_id=QUICK_PARAMS,
            parallel=4,
            cache_dir=tmp_path,
        )
        warm = run_experiments(
            None, params_by_id=QUICK_PARAMS, parallel=4, cache_dir=tmp_path
        )
        assert [o.exp_id for o in parallel] == [o.exp_id for o in warm] == ids
        for eid, s, p, w in zip(ids, serial, parallel, warm):
            assert not p.cached and w.cached
            assert p.key == w.key == cache_key(eid, QUICK_PARAMS[eid])
            assert same_payload(p.result, w.result), f"{eid} warm diverged"
            if eid == "S1":
                assert s.passed == p.result.passed
                assert s.table.columns == p.result.table.columns
                for col in ("n_jobs", "tree_nodes", "events"):
                    assert s.table.column(col) == p.result.table.column(col)
            else:
                assert same_payload(s, p.result), f"{eid} diverged"

    def test_warm_cache_is_fast(self, tmp_path):
        """Acceptance: a warm-cache re-run completes in under 25% of the
        cold run's wall time."""
        from tests.test_experiments import QUICK_PARAMS

        ids = ["T1", "T2", "D1"]  # the slowest quick-size experiments
        params = {i: QUICK_PARAMS[i] for i in ids}
        started = perf_counter()
        run_experiments(ids, params_by_id=params, cache_dir=tmp_path)
        cold_wall = perf_counter() - started
        started = perf_counter()
        warm = run_experiments(ids, params_by_id=params, cache_dir=tmp_path)
        warm_wall = perf_counter() - started
        assert all(o.cached for o in warm)
        assert warm_wall < 0.25 * cold_wall, (
            f"warm {warm_wall:.3f}s vs cold {cold_wall:.3f}s"
        )


class TestManifests:
    def _load(self, manifest_dir, exp_id):
        import json

        return json.loads(manifest_path(manifest_dir, exp_id).read_text())

    def test_cold_sharded_run_records_every_trial(self, tmp_path):
        mdir = tmp_path / "manifests"
        out = run_experiments(
            ["F1"], cache_dir=tmp_path / "cache", manifest_dir=mdir
        )[0]
        doc = self._load(mdir, "F1")
        assert doc["schema"] == MANIFEST_SCHEMA
        assert doc["exp_id"] == "F1"
        assert doc["key"] == out.key
        assert doc["passed"] == out.result.passed
        assert not doc["cached"]
        assert doc["trials_total"] == out.trials_total == len(doc["trials"])
        assert doc["trials_cached"] == 0
        for trial in doc["trials"]:
            assert not trial["cached"]
            assert trial["wall_seconds"] >= 0.0
            assert trial["cache_key"] and trial["digest"]
            assert isinstance(trial["params"], dict)
        assert len({t["trial_id"] for t in doc["trials"]}) == len(doc["trials"])

    def test_warm_manifest_lists_every_trial_cached(self, tmp_path):
        mdir = tmp_path / "manifests"
        cold = run_experiments(["F2"], cache_dir=tmp_path / "cache")[0]
        warm = run_experiments(
            ["F2"], cache_dir=tmp_path / "cache", manifest_dir=mdir
        )[0]
        assert warm.cached
        doc = self._load(mdir, "F2")
        assert doc["cached"]
        # replayed trial by trial: every trial is listed, each a hit
        assert len(doc["trials"]) == doc["trials_total"] == cold.trials_total > 1
        assert doc["trials_cached"] == doc["trials_total"]
        assert all(t["cached"] for t in doc["trials"])

    def test_trial_cache_replay_marks_trials_cached(self, tmp_path):
        from repro.analysis.runner import trial_cache_path

        cache = tmp_path / "cache"
        mdir = tmp_path / "manifests"
        run_experiments(["F2"], cache_dir=cache, manifest_dir=mdir)
        dropped = self._load(mdir, "F2")["trials"][0]["cache_key"]
        trial_cache_path(cache, dropped).unlink()
        # the re-run replays every surviving trial and recomputes the one
        # dropped; the manifest marks each accordingly
        run_experiments(["F2"], cache_dir=cache, manifest_dir=mdir)
        doc = self._load(mdir, "F2")
        assert not doc["cached"]
        assert doc["trials_cached"] == len(doc["trials"]) - 1
        for trial in doc["trials"]:
            assert trial["cached"] == (trial["cache_key"] != dropped)

    def test_manifest_is_derived_not_consulted(self, tmp_path):
        """Deleting manifests never changes results or cache behaviour."""
        cache = tmp_path / "cache"
        mdir = tmp_path / "manifests"
        first = run_experiments(["F1"], cache_dir=cache, manifest_dir=mdir)[0]
        manifest_path(mdir, "F1").unlink()
        again = run_experiments(["F1"], cache_dir=cache, manifest_dir=mdir)[0]
        assert again.cached
        assert same_payload(first.result, again.result)
        assert manifest_path(mdir, "F1").exists()


class TestCountersThroughRunner:
    def test_counters_collected_and_cached(self, tmp_path):
        cold = run_experiments(
            ["F1"], cache_dir=tmp_path, collect_counters=True
        )[0]
        assert cold.counters is not None
        assert cold.counters.events_processed > 0
        warm = run_experiments(
            ["F1"], cache_dir=tmp_path, collect_counters=True
        )[0]
        assert warm.cached
        assert warm.counters is not None
        assert warm.counters.events_processed == cold.counters.events_processed

    def test_counters_off_by_default(self, tmp_path):
        out = run_experiments(["F1"], cache_dir=tmp_path)[0]
        assert out.counters is None

    def test_aggregate_and_summary(self, tmp_path):
        outcomes = run_experiments(
            FAST_IDS, cache_dir=tmp_path, collect_counters=True
        )
        merged = aggregate_counters(outcomes)
        assert merged is not None
        assert merged.runs == sum(o.counters.runs for o in outcomes)
        text = summary_table(outcomes).render()
        for eid in FAST_IDS:
            assert eid in text
        assert "PASS" in text

    def test_aggregate_none_without_counters(self):
        assert aggregate_counters([]) is None


def test_outcome_is_plain_data():
    out = RunnerOutcome(
        exp_id="T1", result=None, cached=False, wall_seconds=0.0, key="k"
    )
    assert out.counters is None
