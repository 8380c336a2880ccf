"""The ``repro fuzz`` CLI: flag plumbing, JSON output, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exceptions import WorkloadError
from repro.sim.backends import c_build
from repro.testing import run_fuzz
from repro.testing.checks import CheckFailure
from repro.testing.corpus import case_digest, save_repro
from repro.testing.generate import CaseConfig, build_case


def _fuzz(*extra: str) -> list[str]:
    return ["fuzz", *extra]


def test_clean_run_exits_zero(tmp_path, capsys):
    rc = main(_fuzz("--seed", "0", "--max-cases", "40", "--corpus", str(tmp_path)))
    assert rc == 0
    out = capsys.readouterr().out
    assert "cases=40" in out
    assert "no disagreements" in out
    assert not list(tmp_path.glob("*.json"))


def test_json_summary_is_machine_readable(tmp_path, capsys):
    rc = main(
        _fuzz(
            "--seed", "1", "--max-cases", "25",
            "--corpus", str(tmp_path), "--json",
        )
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 1
    assert doc["cases_run"] == 25
    assert doc["ok"] is True
    assert doc["stopped_by"] == "max_cases"
    assert doc["failures"] == []


@pytest.mark.skipif(
    not c_build.availability()[0], reason="c backend unavailable"
)
def test_backends_summary_counts_kernel_plans(tmp_path, capsys):
    rc = main(
        _fuzz(
            "--backends", "--seed", "0", "--max-cases", "40",
            "--corpus", str(tmp_path), "--json",
        )
    )
    assert rc == 0
    kernel = json.loads(capsys.readouterr().out)["kernel"]
    by_case = kernel["by_case"]
    assert kernel["planned"] == 40  # every case reached the kernel
    assert kernel["bounded"] == 40  # and ran bounded on both engines too
    assert kernel["declined"] == kernel["unavailable"] == 0
    assert sum(c.get("planned", 0) for c in by_case.values()) == 40
    # The smoke deck's unrelated-endpoint greedy case runs on the kernel.
    assert by_case["unrelated/greedy"]["planned"] >= 1


def test_declined_cases_are_counted(tmp_path, monkeypatch):
    from repro.sim.backends import c_backend

    def decline(self, *args, **kwargs):
        raise c_backend.CKernelInapplicable("declined for the test")

    monkeypatch.setattr(c_backend.CEngine, "__init__", decline)
    summary = run_fuzz(seed=0, max_cases=12, corpus_dir=None, backends=True)
    assert summary.ok
    expected = "declined" if c_build.availability()[0] else "unavailable"
    assert summary.kernel_count(expected) == 12
    assert summary.kernel_count("planned") == summary.kernel_count("bounded") == 0
    assert summary.to_doc()["kernel"][expected] == 12


def test_text_summary_reports_kernel_plans(tmp_path, capsys):
    rc = main(
        _fuzz("--backends", "--seed", "0", "--max-cases", "12", "--corpus", str(tmp_path))
    )
    assert rc == 0
    assert "c kernel: " in capsys.readouterr().out


def test_no_kernel_block_without_backends(tmp_path, capsys):
    rc = main(_fuzz("--seed", "0", "--max-cases", "5", "--corpus", str(tmp_path), "--json"))
    assert rc == 0
    assert "kernel" not in json.loads(capsys.readouterr().out)


def test_budget_flag_stops_the_run(tmp_path, capsys):
    rc = main(
        _fuzz(
            "--seed", "0", "--budget-seconds", "0",
            "--corpus", str(tmp_path), "--json",
        )
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stopped_by"] == "budget"
    assert doc["cases_run"] == 0


def test_list_empty_corpus(tmp_path, capsys):
    rc = main(_fuzz("--list", "--corpus", str(tmp_path)))
    assert rc == 0
    assert "empty" in capsys.readouterr().out


def test_list_renders_entries(tmp_path, capsys):
    case = build_case(
        CaseConfig(
            seed=4, topology="spine2", n_jobs=3,
            arrivals="all_zero", sizes="equal",
        )
    )
    save_repro(case, [CheckFailure("counters", "off by one")], tmp_path)
    rc = main(_fuzz("--list", "--corpus", str(tmp_path)))
    assert rc == 0
    out = capsys.readouterr().out
    assert case_digest(case)[:8] in out
    assert "counters" in out


def test_replay_of_fixed_case_exits_zero(tmp_path, capsys):
    # A clean case saved with a recorded failure no longer reproduces
    # (the recorded check passes on the current engine) -> exit 0.
    case = build_case(
        CaseConfig(
            seed=4, topology="spine2", n_jobs=3,
            arrivals="all_zero", sizes="equal",
        )
    )
    save_repro(case, [CheckFailure("exact_oracle", "stale message")], tmp_path)
    rc = main(
        _fuzz("--replay", case_digest(case)[:8], "--corpus", str(tmp_path))
    )
    assert rc == 0
    assert "reproduced: False" in capsys.readouterr().out


def test_replay_unknown_digest_raises(tmp_path):
    with pytest.raises(WorkloadError, match="no corpus entry"):
        main(_fuzz("--replay", "0123456789abcdef", "--corpus", str(tmp_path)))
