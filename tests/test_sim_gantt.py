"""Unit tests for the ASCII Gantt renderer."""

from __future__ import annotations

import pytest

from repro.core.assignment import FixedAssignment, GreedyIdenticalAssignment
from repro.exceptions import AnalysisError
from repro.network.builders import spine_tree, star_of_paths
from repro.sim.engine import simulate
from repro.sim.gantt import render_gantt
from repro.workload.instance import Instance, Setting
from repro.workload.job import Job, JobSet


@pytest.fixture
def pipeline_result():
    tree = spine_tree(1)
    jobs = JobSet([Job(id=0, release=0.0, size=2.0), Job(id=1, release=0.0, size=4.0)])
    instance = Instance(tree, jobs, Setting.IDENTICAL)
    return simulate(instance, FixedAssignment({0: 2, 1: 2}), record_segments=True)


class TestRenderGantt:
    def test_requires_segments(self):
        tree = spine_tree(1)
        instance = Instance(
            tree, JobSet([Job(id=0, release=0.0, size=1.0)]), Setting.IDENTICAL
        )
        res = simulate(instance, FixedAssignment({0: 2}))
        with pytest.raises(AnalysisError, match="record_segments"):
            render_gantt(res)

    def test_row_per_processing_node(self, pipeline_result):
        text = render_gantt(pipeline_result, width=40)
        lines = text.splitlines()
        # header + router + leaf + legend
        assert len(lines) == 4

    def test_glyphs_reflect_schedule(self, pipeline_result):
        # Router: job0 [0,2), job1 [2,6).  Leaf: job0 [2,4), idle, job1 [6,10).
        text = render_gantt(pipeline_result, width=10)  # cell = 1.0
        router_row = next(l for l in text.splitlines() if "router#1" in l)
        cells = router_row.split("| ")[1]
        assert cells[0] == "0" and cells[1] == "0"
        assert cells[2] == "1" and cells[5] == "1"
        leaf_row = next(l for l in text.splitlines() if "leaf#2" in l)
        lcells = leaf_row.split("| ")[1]
        assert lcells[2] == "0" and lcells[3] == "0"
        assert lcells[4] == "." and lcells[5] == "."
        assert lcells[6] == "1"

    def test_idle_everywhere_before_release(self):
        tree = spine_tree(1)
        jobs = JobSet([Job(id=0, release=5.0, size=1.0)])
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, FixedAssignment({0: 2}), record_segments=True)
        text = render_gantt(res, width=7)  # horizon 7, cell 1
        router_row = next(l for l in text.splitlines() if "router#1" in l)
        assert router_row.split("| ")[1][:5] == "....."

    def test_busy_system_renders_without_error(self):
        tree = star_of_paths(3, 2)
        jobs = JobSet(
            [Job(id=i, release=0.3 * i, size=1.0 + i % 3) for i in range(20)]
        )
        instance = Instance(tree, jobs, Setting.IDENTICAL)
        res = simulate(instance, GreedyIdenticalAssignment(0.5), record_segments=True)
        text = render_gantt(res, width=60)
        assert len(text.splitlines()) == tree.num_nodes - 1 + 2

    def test_until_window(self, pipeline_result):
        text = render_gantt(pipeline_result, width=10, until=2.0)
        router_row = next(l for l in text.splitlines() if "router#1" in l)
        assert set(router_row.split("| ")[1]) == {"0"}

    def test_empty_schedule(self):
        tree = spine_tree(1)
        instance = Instance(tree, JobSet([]), Setting.IDENTICAL)
        res = simulate(instance, FixedAssignment({}), record_segments=True)
        assert render_gantt(res) == "(empty schedule)"


class TestSubCellSegments:
    """Regression: segments shorter than one cell used to be binned one
    cell early (an absolute ``end - 1e-12`` clamp interacted badly with
    inexact cell widths) or could index past the rendered window."""

    @staticmethod
    def _result_with_segments(segments):
        from repro.sim.result import ScheduleSegment, SimulationResult
        from repro.sim.speed import SpeedProfile

        tree = spine_tree(1)
        instance = Instance(
            tree, JobSet([Job(id=7, release=0.0, size=1.0)]), Setting.IDENTICAL
        )
        return SimulationResult.from_records(
            {},
            instance=instance,
            speeds=SpeedProfile.uniform(1.0),
            fractional_flow=0.0,
            alive_integral=0.0,
            num_events=0,
            segments=[ScheduleSegment(1, 7, s, e) for s, e in segments],
        )

    def _router_cells(self, segments, width=10, until=1.0):
        res = self._result_with_segments(segments)
        text = render_gantt(res, width=width, until=until)
        row = next(l for l in text.splitlines() if "router#1" in l)
        return row.split("| ")[1]

    def test_boundary_start_lands_in_majority_cell(self):
        # cell = 0.1 (inexact); 3 * cell = 0.30000000000000004 > 0.3, so
        # int(0.3 / cell) == 2 although nearly all of the segment lies in
        # cell 3.  The old clamp drew only cell 2.
        cells = self._router_cells([(0.3, 0.30000000000001)])
        assert cells[3] == "7"

    def test_interior_sub_cell_segment_draws_its_cell(self):
        cells = self._router_cells([(0.55, 0.56)])
        assert cells[5] == "7"
        assert cells.count("7") == 1

    def test_end_on_boundary_does_not_spill(self):
        # A segment ending exactly on a representable cell boundary
        # belongs to the cell it closes, not the one it opens.
        boundary = 6 * (1.0 / 10)  # 0.6000000000000001, exactly 6*cell
        cells = self._router_cells([(0.45, boundary)])
        assert cells[6] == "."
        assert cells[4] == "7" and cells[5] == "7"

    def test_segment_beyond_window_is_ignored(self):
        cells = self._router_cells([(5.0, 5.5)], until=1.0)
        assert set(cells) == {"."}
