"""Tests for ASCII chart rendering used in benchmark reports."""

import numpy as np

from repro.common.ascii_chart import line_chart, series_table, sparkline


class TestSparkline:
    def test_empty_series(self):
        assert sparkline([]) == ""

    def test_constant_series_renders(self):
        out = sparkline([5, 5, 5])
        assert len(out) == 3

    def test_monotone_series_monotone_blocks(self):
        out = sparkline(np.arange(8), width=8)
        assert list(out) == sorted(out)

    def test_downsamples_to_width(self):
        assert len(sparkline(np.arange(1000), width=40)) == 40


class TestLineChart:
    def test_contains_title_and_axis(self):
        out = line_chart([1, 2, 3], title="demo")
        assert out.startswith("demo")
        assert "+" in out and "*" in out

    def test_empty(self):
        assert "(empty series)" in line_chart([])

    def test_height_rows(self):
        out = line_chart(np.sin(np.linspace(0, 6, 50)), height=7)
        # 7 chart rows + axis row
        assert len(out.splitlines()) == 8


class TestSeriesTable:
    def test_empty(self):
        assert series_table({}) == "(no data)"

    def test_has_headers_and_rows(self):
        out = series_table({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]}, max_rows=3)
        lines = out.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert len(lines) == 2 + 3

    def test_ragged_columns_render_dash(self):
        out = series_table({"a": [1.0, 2.0, 3.0], "b": [4.0]}, max_rows=3)
        assert "-" in out.splitlines()[-1]


class TestLineChartDetails:
    def test_gaps_stay_blank_and_the_y_label_marks_the_middle_row(self):
        out = line_chart([1.0, float("nan"), 3.0], height=5, y_label="req")
        rows = out.splitlines()
        assert len(rows) == 6  # five plot rows and the axis
        assert rows[2].startswith("req |")
        # The NaN column holds no point in any row.
        assert all(row.split("|", 1)[1][1] == " " for row in rows[:5])
        assert sum(row.count("*") for row in rows) == 2
