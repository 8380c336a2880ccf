"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestRun:
    def test_basic_run_prints_metrics(self, capsys):
        code = main(["run", "--jobs", "10", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "total flow time" in out
        assert "fractional flow time" in out

    def test_per_job_and_gantt(self, capsys):
        code = main(
            ["run", "--jobs", "6", "--per-job", "--gantt", "--gantt-width", "40"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per-job" in out
        assert "legend" in out

    def test_every_policy_runs(self, capsys):
        for policy in ("greedy", "closest", "random", "least-loaded", "round-robin"):
            assert main(["run", "--jobs", "5", "--policy", policy]) == 0
        capsys.readouterr()

    def test_unrelated_flag(self, capsys):
        code = main(["run", "--jobs", "6", "--unrelated"])
        assert code == 0
        assert "unrelated" in capsys.readouterr().out

    def test_fifo_flag(self, capsys):
        code = main(["run", "--jobs", "6", "--fifo"])
        assert code == 0
        assert "fifo" in capsys.readouterr().out

    def test_until_flag(self, capsys):
        code = main(["run", "--jobs", "20", "--until", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "horizon" in out
        assert "in flight" in out

    def test_tree_families(self, capsys):
        for tree, targs in (
            ("paths", ["2", "2", "0"]),
            ("caterpillar", ["3", "1", "0"]),
            ("datacenter", ["2", "2", "2"]),
            ("random", ["12", "0", "0"]),
            ("figure1", ["0", "0", "0"]),
        ):
            assert (
                main(["run", "--jobs", "4", "--tree", tree, "--tree-args", *targs])
                == 0
            )
        capsys.readouterr()


class TestGenerateAndBound:
    def test_generate_then_run_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        assert main(["generate", trace, "--jobs", "5", "--seed", "1"]) == 0
        assert main(["run", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "wrote 5 jobs" in out

    def test_bound(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        main(["generate", trace, "--jobs", "4", "--tree", "paths",
              "--tree-args", "2", "1", "0"])
        assert main(["bound", trace]) == 0
        out = capsys.readouterr().out
        assert "combinatorial bound" in out
        assert "best bound" in out

    def test_bound_no_lp(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        main(["generate", trace, "--jobs", "4"])
        assert main(["bound", trace, "--no-lp"]) == 0
        capsys.readouterr()


class TestPlan:
    def test_feasible_plan(self, capsys):
        code = main(
            ["plan", "--jobs", "12", "--target", "1000", "--metric", "total_flow"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "minimum uniform speed" in out

    def test_infeasible_plan(self, capsys):
        code = main(["plan", "--jobs", "12", "--target", "0.0001"])
        err = capsys.readouterr().err
        assert code == 1
        assert "infeasible" in err


class TestReport:
    def test_report_subset_stdout(self, capsys):
        assert main(["report", "--ids", "F2"]) == 0
        out = capsys.readouterr().out
        assert "## F2" in out

    def test_report_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "exp.md")
        assert main(["report", "-o", path, "--ids", "F2"]) == 0
        capsys.readouterr()
        assert "## F2" in open(path).read()


class TestExperiments:
    def test_list(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "F2" in out and "X1" in out

    def test_list_summaries_come_from_each_experiment(self, capsys):
        from repro.analysis.experiments import all_experiment_ids

        assert main(["list-experiments"]) == 0
        rows = {
            cells[0]: cells[1]
            for line in capsys.readouterr().out.splitlines()
            if len(cells := [c.strip() for c in line.split("|")]) == 2
            and cells[0] in all_experiment_ids()
        }
        assert set(rows) == set(all_experiment_ids())
        assert rows["T1"] == "Experiment T1 — Theorem 1's shape: identical endpoints."
        assert len(set(rows.values())) == len(rows) == 22

    def test_run_single_experiment(self, capsys):
        assert main(["experiment", "F2"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_lowercase_id_accepted(self, capsys):
        assert main(["experiment", "f2"]) == 0
        capsys.readouterr()


class TestExperimentsRunner:
    def test_parallel_cached_run(self, capsys, tmp_path):
        argv = [
            "experiments", "f1", "F2",
            "--parallel", "2",
            "--cache-dir", str(tmp_path),
            "--summary-only",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "experiment runner summary" in out
        assert "F1" in out and "F2" in out
        assert "run" in out
        # warm re-run is served from the cache
        assert main(argv) == 0
        assert "cache" in capsys.readouterr().out

    def test_no_cache_bypasses_disk(self, capsys, tmp_path):
        argv = [
            "experiments", "F1",
            "--no-cache",
            "--cache-dir", str(tmp_path),
            "--summary-only",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert list(tmp_path.glob("*.pkl")) == []

    def test_counters_flag_prints_aggregate(self, capsys, tmp_path):
        argv = [
            "experiments", "F1",
            "--counters",
            "--cache-dir", str(tmp_path),
            "--summary-only",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "engine counters (all experiments)" in out
        assert "events processed" in out

    def test_full_reports_printed_without_summary_only(self, capsys, tmp_path):
        assert main(["experiments", "F2", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_run_counters_flag(self, capsys):
        assert main(["run", "--jobs", "6", "--counters"]) == 0
        out = capsys.readouterr().out
        assert "engine counters" in out
        assert "events processed" in out

    def test_run_counters_with_until(self, capsys):
        assert main(["run", "--jobs", "10", "--until", "3", "--counters"]) == 0
        out = capsys.readouterr().out
        assert "horizon" in out
        assert "engine counters" in out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "nope"])
