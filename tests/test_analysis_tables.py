"""Unit tests for the table renderer and ratio helpers."""

from __future__ import annotations

import pytest

from repro.analysis.ratios import competitive_report, lower_bound_for
from repro.analysis.tables import Table, fmt
from repro.core.assignment import GreedyIdenticalAssignment
from repro.exceptions import AnalysisError
from repro.network.builders import star_of_paths
from repro.sim.engine import simulate
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


class TestFmt:
    def test_float_precision(self):
        assert fmt(1.23456, 3) == "1.235"

    def test_int_passthrough(self):
        assert fmt(7) == "7"

    def test_bool_and_str(self):
        assert fmt(True) == "True"
        assert fmt("x") == "x"

    def test_scientific_for_extremes(self):
        assert "e" in fmt(1e9)
        assert "e" in fmt(1e-9)

    def test_nan(self):
        assert fmt(float("nan")) == "nan"


class TestTable:
    def test_render_alignment(self):
        t = Table("title", ["a", "bb"])
        t.add_row(1, 2.0)
        t.add_row(100, 3.5)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "title"
        assert all("|" in line for line in lines[1:] if "-+-" not in line)

    def test_row_arity_checked(self):
        t = Table("t", ["a"])
        with pytest.raises(AnalysisError, match="cells"):
            t.add_row(1, 2)

    def test_column_access(self):
        t = Table("t", ["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("a") == ["1", "3"]
        with pytest.raises(AnalysisError, match="no column"):
            t.column("zzz")

    def test_csv(self):
        t = Table("t", ["a", "b"])
        t.add_row(1, 2)
        assert t.to_csv() == "a,b\n1,2"

    def test_empty_columns_rejected(self):
        with pytest.raises(AnalysisError):
            Table("t", [])

    def test_extend_and_len(self):
        t = Table("t", ["a"])
        t.extend([[1], [2], [3]])
        assert len(t) == 3


@pytest.fixture
def instance():
    tree = star_of_paths(2, 1)
    jobs = JobSet([Job(id=i, release=0.5 * i, size=1.0 + (i % 2)) for i in range(10)])
    return Instance(tree, jobs, Setting.IDENTICAL)


class TestRatios:
    def test_lower_bound_positive(self, instance):
        lb, name = lower_bound_for(instance)
        assert lb > 0
        assert isinstance(name, str)

    def test_lp_bound_at_least_combinatorial(self, instance):
        from repro.lp.bounds import best_lower_bound

        lp_lb, _ = lower_bound_for(instance, prefer_lp=True)
        combo, _ = best_lower_bound(instance)
        assert lp_lb >= combo - 1e-9

    def test_report_fields(self, instance):
        res = simulate(instance, GreedyIdenticalAssignment(0.5))
        rep = competitive_report("g", instance, res, prefer_lp=False)
        assert rep.ratio == pytest.approx(rep.total_flow / rep.lower_bound)
        assert rep.fractional_ratio <= rep.ratio + 1e-9

    def test_shared_bound(self, instance):
        res = simulate(instance, GreedyIdenticalAssignment(0.5))
        rep = competitive_report("g", instance, res, lower_bound=(10.0, "fixed"))
        assert rep.lower_bound == 10.0
        assert rep.bound_name == "fixed"

    def test_nonpositive_bound_rejected(self, instance):
        res = simulate(instance, GreedyIdenticalAssignment(0.5))
        with pytest.raises(AnalysisError):
            competitive_report("g", instance, res, lower_bound=(0.0, "bad"))
