"""Tests for repro.grid.canvas."""

import numpy as np
import pytest

from repro.grid.canvas import Canvas, CanvasError
from repro.grid.palette import Color
from repro.grid.regions import Rect, horizontal_stripe


class TestConstruction:
    def test_starts_blank(self):
        c = Canvas(4, 6)
        assert c.n_cells == 24
        assert c.n_colored() == 0
        assert c.fraction_colored() == 0.0

    def test_rejects_empty_grid(self):
        with pytest.raises(CanvasError):
            Canvas(0, 5)
        with pytest.raises(CanvasError):
            Canvas(5, -1)


class TestPaint:
    def test_paint_records_color(self):
        c = Canvas(3, 3)
        c.paint((1, 1), Color.RED)
        assert c.color_at((1, 1)) is Color.RED
        assert c.is_colored((1, 1))
        assert c.n_colored() == 1

    def test_paint_records_stroke_metadata(self):
        c = Canvas(3, 3)
        s = c.paint((0, 0), Color.BLUE, agent="P1", time=2.5, coverage=0.7)
        assert s.agent == "P1"
        assert s.time == 2.5
        assert s.coverage == 0.7
        assert c.history == [s]

    def test_paint_out_of_range_raises(self):
        c = Canvas(3, 3)
        with pytest.raises(CanvasError, match="outside"):
            c.paint((3, 0), Color.RED)

    def test_paint_blank_raises(self):
        c = Canvas(3, 3)
        with pytest.raises(CanvasError, match="BLANK"):
            c.paint((0, 0), Color.BLANK)

    def test_overpaint_forbidden_by_default(self):
        c = Canvas(3, 3)
        c.paint((0, 0), Color.RED)
        with pytest.raises(CanvasError, match="already colored"):
            c.paint((0, 0), Color.BLUE)

    def test_overpaint_allowed_when_enabled(self):
        c = Canvas(3, 3, allow_overpaint=True)
        c.paint((0, 0), Color.RED)
        c.paint((0, 0), Color.BLUE)
        assert c.color_at((0, 0)) is Color.BLUE
        assert len(c.history) == 2

    def test_coverage_bounds(self):
        c = Canvas(3, 3)
        with pytest.raises(CanvasError, match="coverage"):
            c.paint((0, 0), Color.RED, coverage=0.0)
        with pytest.raises(CanvasError, match="coverage"):
            c.paint((0, 0), Color.RED, coverage=1.5)


class TestPaintRegion:
    def test_fills_region(self):
        c = Canvas(8, 12)
        n = c.paint_region(horizontal_stripe(0, 4), Color.RED)
        assert n == 24
        assert c.color_counts() == {Color.RED: 24}

    def test_overlap_check(self):
        c = Canvas(8, 12)
        c.paint_region(Rect(0, 0, 0.5, 1.0), Color.RED)
        with pytest.raises(CanvasError, match="overlaps"):
            c.paint_region(Rect(0.25, 0, 0.75, 1.0), Color.BLUE)

    def test_history_recorded_per_cell(self):
        c = Canvas(4, 4)
        c.paint_region(Rect(0, 0, 0.5, 0.5), Color.GREEN, agent="lib")
        assert len(c.history) == 4
        assert all(s.agent == "lib" for s in c.history)


class TestQueries:
    def test_color_counts_multiple(self):
        c = Canvas(8, 12)
        for i, color in enumerate(
            (Color.RED, Color.BLUE, Color.YELLOW, Color.GREEN)
        ):
            c.paint_region(horizontal_stripe(i, 4), color)
        assert all(v == 24 for v in c.color_counts().values())

    def test_matches_exact(self):
        c = Canvas(2, 2)
        c.paint((0, 0), Color.RED)
        target = np.array([[1, 0], [0, 0]], dtype=np.int8)
        assert c.matches(target, ignore_blank_target=False)

    def test_matches_ignores_blank_target(self):
        c = Canvas(2, 2)
        c.paint((0, 0), Color.RED)
        c.paint((1, 1), Color.BLUE)  # extra paint where target is blank
        target = np.array([[1, 0], [0, 0]], dtype=np.int8)
        assert c.matches(target)
        assert not c.matches(target, ignore_blank_target=False)

    def test_matches_shape_mismatch_raises(self):
        c = Canvas(2, 2)
        with pytest.raises(CanvasError):
            c.matches(np.zeros((3, 3), dtype=np.int8))

    def test_diff_lists_mismatches(self):
        c = Canvas(2, 2)
        c.paint((0, 0), Color.RED)
        target = np.array([[2, 0], [0, 0]], dtype=np.int8)
        assert c.diff(target) == [(0, 0)]

    def test_mean_coverage(self):
        c = Canvas(2, 2)
        assert c.mean_coverage() == 0.0
        c.paint((0, 0), Color.RED, coverage=0.5)
        c.paint((0, 1), Color.RED, coverage=1.0)
        assert c.mean_coverage() == pytest.approx(0.75)

    def test_agent_cell_counts(self):
        c = Canvas(2, 2)
        c.paint((0, 0), Color.RED, agent="P1")
        c.paint((0, 1), Color.RED, agent="P1")
        c.paint((1, 0), Color.BLUE, agent="P2")
        assert c.agent_cell_counts() == {"P1": 2, "P2": 1}

    def test_copy_blank_preserves_config(self):
        c = Canvas(3, 4, allow_overpaint=True)
        c.paint((0, 0), Color.RED)
        fresh = c.copy_blank()
        assert fresh.rows == 3 and fresh.cols == 4
        assert fresh.allow_overpaint
        assert fresh.n_colored() == 0

    def test_snapshot_is_independent(self):
        c = Canvas(2, 2)
        snap = c.snapshot()
        c.paint((0, 0), Color.RED)
        assert snap[0, 0] == 0
