"""Report-rendering tests (pure formatting; no simulation)."""

import numpy as np
import pytest

from repro.analysis.figures import Fig1Data, MethodologyComparison
from repro.analysis.report import render_fig1, render_fig8, render_fig9, render_table1
from repro.analysis.tables import Table1Data, Table1Row


@pytest.fixture()
def fig1():
    return Fig1Data(
        sizes_f=(5_000, 25_000),
        time_s=np.arange(3, dtype=float),
        temps_k=(np.array([298.0, 310.0, 318.0]), np.array([298.0, 305.0, 308.0])),
        safe_limit_k=313.15,
        violation_s=(120.0, 0.0),
    )


@pytest.fixture()
def comparison():
    return MethodologyComparison(
        cycles=("us06",),
        methodologies=("parallel", "cooling", "dual", "otem"),
        qloss_percent={"us06": {"parallel": 0.2, "cooling": 0.12, "dual": 0.17, "otem": 0.08}},
        avg_power_w={"us06": {"parallel": 18_000.0, "cooling": 24_000.0, "dual": 20_000.0, "otem": 21_000.0}},
        qloss_ratio_vs_parallel={"us06": {"parallel": 1.0, "cooling": 0.6, "dual": 0.85, "otem": 0.4}},
    )


@pytest.fixture()
def table1():
    row = Table1Row(
        size_f=25_000.0,
        avg_power_w={"parallel": 18_000.0, "dual": 20_000.0, "otem": 21_000.0},
        capacity_loss_pct={"parallel": 100.0, "dual": 85.0, "otem": 45.0},
    )
    return Table1Data(cycle="us06", repeat=2, rows=(row,))


class TestRenderFig1:
    def test_contains_sizes_and_violations(self, fig1):
        text = render_fig1(fig1)
        assert "5000" in text
        assert "25000" in text
        assert "120" in text

    def test_reports_limit_in_celsius(self, fig1):
        assert "40.0 C" in render_fig1(fig1)


class TestRenderFig8:
    def test_contains_ratios(self, comparison):
        text = render_fig8(comparison)
        assert "100.0" in text
        assert "40.0" in text

    def test_mentions_paper_reference(self, comparison):
        assert "paper" in render_fig8(comparison)

    def test_mean_reduction(self, comparison):
        assert comparison.mean_qloss_reduction_vs_parallel("otem") == pytest.approx(60.0)


class TestRenderFig9:
    def test_contains_power_rows(self, comparison):
        text = render_fig9(comparison)
        assert "18000" in text
        assert "24000" in text

    def test_mean_power_reduction(self, comparison):
        assert comparison.mean_power_reduction_vs("otem", "cooling") == pytest.approx(
            12.5
        )


class TestRenderTable1:
    def test_layout(self, table1):
        text = render_table1(table1)
        assert "Table I" in text
        assert "US06" in text
        assert "85.00" in text

    def test_all_methods_in_header(self, table1):
        text = render_table1(table1)
        for m in ("parallel", "dual", "otem"):
            assert m in text

    def test_renders_a_subset_of_methods(self):
        row = Table1Row(
            size_f=25_000.0,
            avg_power_w={"parallel": 18_000.0, "dual": 20_000.0},
            capacity_loss_pct={"parallel": 100.0, "dual": 85.0},
        )
        text = render_table1(Table1Data(cycle="us06", repeat=2, rows=(row,)))
        assert "P(dual)" in text and "85.00" in text
        assert "otem" not in text
