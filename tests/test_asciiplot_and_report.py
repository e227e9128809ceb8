"""Tests for the ASCII chart renderer and the markdown report."""

import re

import pytest

from repro.experiments.asciiplot import AsciiChart
from repro.experiments.base import ExperimentReport, Table
from repro.experiments.report import generate_report, render_markdown


class TestAsciiChart:
    def make(self):
        chart = AsciiChart(title="demo", width=40, height=10)
        chart.add_series("up", [0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0])
        chart.add_series("down", [0, 1, 2, 3], [3.0, 2.0, 1.0, 0.0])
        return chart

    def test_renders_title_axes_and_legend(self):
        text = self.make().render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "o up" in text and "x down" in text
        assert "3" in lines[1]              # top y label
        assert any("+" in line and "-" in line for line in lines)

    def test_series_markers_placed(self):
        text = self.make().render()
        assert text.count("o") >= 4         # includes legend marker
        assert text.count("x") >= 4

    def test_corner_points(self):
        chart = AsciiChart(title="c", width=20, height=6)
        chart.add_series("s", [0.0, 1.0], [0.0, 1.0])
        rows = chart.render().splitlines()
        plot_rows = rows[1:7]
        assert plot_rows[-1].endswith("o") is False   # left-bottom point
        assert "o" in plot_rows[0]          # top-right
        assert "o" in plot_rows[-1]         # bottom-left

    def test_constant_series_handled(self):
        chart = AsciiChart(title="flat", width=20, height=6)
        chart.add_series("s", [0, 1, 2], [1.0, 1.0, 1.0])
        assert "flat" in chart.render()

    def test_validation(self):
        with pytest.raises(ValueError):
            AsciiChart(title="tiny", width=4, height=2)
        chart = AsciiChart(title="v", width=20, height=6)
        with pytest.raises(ValueError):
            chart.add_series("bad", [1, 2], [1.0])
        with pytest.raises(ValueError):
            chart.add_series("nan", [1.0], [float("nan")])
        with pytest.raises(ValueError):
            chart.render()

    def test_nonfinite_points_dropped(self):
        chart = AsciiChart(title="v", width=20, height=6)
        chart.add_series("s", [0, 1, 2], [1.0, float("inf"), 2.0])
        assert "s" in chart.render()


class TestRenderMarkdown:
    def make_report(self, passed=True):
        table = Table(title="inner", headers=["x"])
        table.add_row(1.5)
        return ExperimentReport(
            experiment_id="demo", claim="a claim", passed=passed,
            tables=[table], charts=["CHART"],
            summary={"k": 2.0}, notes=["careful"])

    def test_document_structure(self):
        text = render_markdown([self.make_report()], fast=True, seed=3)
        assert "# Reproduction report" in text
        assert "Mode: fast; seed 3; 1/1 experiments passed." in text
        assert "## demo — PASS" in text
        assert "```" in text
        assert "CHART" in text
        assert "`k` = 2.0000" in text
        assert "> careful" in text

    def test_failures_bolded(self):
        text = render_markdown([self.make_report(passed=False)],
                               fast=False, seed=0)
        assert "**FAIL**" in text
        assert "0/1 experiments passed" in text


class TestGenerateReport:
    def test_writes_file_and_counts_failures(self, tmp_path):
        out = tmp_path / "r.md"
        messages = []
        failures = generate_report(str(out), fast=True, seed=0,
                                   experiment_ids=["poa_sweep"],
                                   echo=messages.append)
        assert failures == 0
        assert out.exists()
        assert "poa_sweep" in out.read_text()
        assert any("running poa_sweep" in m for m in messages)
        # The host's timing goes to the echo line, never the document.
        assert "wall time" not in out.read_text()
        assert re.fullmatch(r"wrote .*r\.md: 1/1 passed in \d+s",
                            messages[-1])
