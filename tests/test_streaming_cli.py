"""The streaming CLI surface: ``repro serve`` (including the CI smoke
mode) and ``repro run --backend`` through the shared resolver."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.sim.backends import available_backends


class TestServe:
    def test_smoke_exits_zero(self, capsys):
        rc = main(["serve", "--smoke", "--seed", "5", "--window", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all endpoint checks passed" in out
        assert "serving open system on http://127.0.0.1:" in out

    def test_smoke_is_deterministic_given_seed(self, capsys):
        main(["serve", "--smoke", "--seed", "9", "--window", "4"])
        first = capsys.readouterr().out
        main(["serve", "--smoke", "--seed", "9", "--window", "4"])
        second = capsys.readouterr().out

        def stats(text):
            [line] = [ln for ln in text.splitlines() if ln.startswith("smoke: t=")]
            return line

        assert stats(first) == stats(second)

    def test_finite_jobs_drain(self, capsys):
        rc = main([
            "serve", "--smoke", "--jobs", "50", "--window", "10",
            "--max-windows", "1000", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        [line] = [ln for ln in out.splitlines() if ln.startswith("smoke: t=")]
        assert "arrivals=50" in line
        assert "completions=50" in line

    def test_explicit_rate_accepted(self, capsys):
        rc = main([
            "serve", "--smoke", "--rate", "1.5", "--jobs", "30",
            "--window", "5", "--seed", "3",
        ])
        assert rc == 0

    def test_bad_backend_name_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["serve", "--backend", "fortran", "--smoke"])


class TestRunBackendFlag:
    def _flow_line(self, capsys):
        out = capsys.readouterr().out
        [line] = [ln for ln in out.splitlines() if "total flow time" in ln]
        return line

    def test_backend_flag_matches_default(self, capsys):
        base = ["run", "--jobs", "40", "--seed", "3"]
        assert main(base) == 0
        ref = self._flow_line(capsys)
        for backend in available_backends():
            assert main(base + ["--backend", backend]) == 0
            assert self._flow_line(capsys) == ref

    def test_env_var_respected(self, capsys, monkeypatch):
        base = ["run", "--jobs", "40", "--seed", "3"]
        assert main(base) == 0
        ref = self._flow_line(capsys)
        monkeypatch.setenv("REPRO_BACKEND", "c")
        assert main(base) == 0
        assert self._flow_line(capsys) == ref

    def test_backend_composes_with_profile(self, capsys):
        # event-order options (profiling changes nothing, but --until
        # does) force the python engine; the flag must still be accepted
        rc = main([
            "run", "--jobs", "30", "--seed", "1",
            "--backend", available_backends()[-1],
            "--profile", "--until", "10",
        ])
        assert rc == 0
        assert "horizon" in capsys.readouterr().out

    def test_bad_backend_name_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "--backend", "fortran"])
