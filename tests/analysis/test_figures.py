"""Figure-generator tests (small workloads; full scale lives in benchmarks/)."""

import numpy as np
import pytest

from repro.analysis.figures import (
    ALL_CYCLES,
    ALL_METHODOLOGIES,
    METHOD_LABELS,
    fig1_data,
    fig6_data,
    fig7_data,
    fig8_data,
)
from repro.sim.scenario import Scenario, run_scenario


class TestFig1:
    @pytest.fixture(scope="class")
    def data(self):
        return fig1_data(sizes_f=(5_000, 25_000), cycle="us06", repeat=2)

    def test_one_trace_per_size(self, data):
        assert len(data.temps_k) == 2
        assert data.sizes_f == (5_000, 25_000)

    def test_traces_share_time_axis(self, data):
        for trace in data.temps_k:
            assert trace.shape == data.time_s.shape

    def test_small_bank_runs_hotter(self, data):
        assert np.max(data.temps_k[0]) >= np.max(data.temps_k[1]) - 0.5

    def test_violations_reported(self, data):
        assert len(data.violation_s) == 2
        assert all(v >= 0 for v in data.violation_s)


class TestFig6:
    @pytest.fixture(scope="class")
    def data(self):
        return fig6_data(cycle="us06", repeat=1, methodologies=("parallel", "dual"))

    def test_requested_methodologies_present(self, data):
        assert set(data.temps_k) == {"parallel", "dual"}

    def test_peaks_and_means_consistent(self, data):
        for m in data.temps_k:
            assert data.peak_k[m] >= data.mean_k[m]
            assert data.peak_k[m] == pytest.approx(float(np.max(data.temps_k[m])))


class TestFig7:
    @pytest.fixture(scope="class")
    def data(self):
        return fig7_data(cycle="nycc", repeat=1)

    def test_signals_aligned(self, data):
        n = data.time_s.size
        for arr in (
            data.battery_temp_k,
            data.cap_soe_percent,
            data.request_w,
            data.teb,
            data.upcoming_demand_w,
        ):
            assert arr.size == n

    def test_teb_in_unit_interval(self, data):
        assert np.all(data.teb >= 0.0)
        assert np.all(data.teb <= 1.0)

    def test_preparation_score_finite(self, data):
        assert np.isfinite(data.preparation_score)


class TestFig8:
    @pytest.fixture(scope="class")
    def data(self):
        return fig8_data(
            cycles=("nycc",), methodologies=("parallel", "dual"), repeat=1
        )

    def test_structure(self, data):
        assert data.cycles == ("nycc",)
        assert "parallel" in data.qloss_percent["nycc"]

    def test_parallel_normalized_to_one(self, data):
        assert data.qloss_ratio_vs_parallel["nycc"]["parallel"] == pytest.approx(1.0)

    def test_power_positive(self, data):
        assert data.avg_power_w["nycc"]["dual"] > 0

    def test_reduction_helper(self, data):
        r = data.mean_qloss_reduction_vs_parallel("dual")
        assert np.isfinite(r)


class TestFig8MatchesScalarRuns:
    """The batch sweep (lockstep pairs here) reproduces per-cell scalar runs."""

    def test_cells_match_run_scenario(self):
        cycles, methods = ("nycc", "hwfet"), ("parallel", "dual")
        data = fig8_data(cycles=cycles, methodologies=methods, repeat=1)
        for cycle in cycles:
            for m in methods:
                metrics = run_scenario(
                    Scenario(methodology=m, cycle=cycle, repeat=1)
                ).metrics
                assert data.qloss_percent[cycle][m] == pytest.approx(
                    metrics.qloss_percent, rel=1e-12, abs=0.0
                )
                assert data.avg_power_w[cycle][m] == pytest.approx(
                    metrics.average_power_w, rel=1e-12, abs=0.0
                )


class TestConstants:
    def test_labels_cover_methodologies(self):
        assert set(METHOD_LABELS) == set(ALL_METHODOLOGIES)

    def test_cycles_are_library_names(self):
        from repro.drivecycle.library import available_cycles

        # the paper's evaluation set is a subset of the library (which also
        # carries WLTC/JC08/Artemis beyond the paper)
        assert set(ALL_CYCLES) <= set(available_cycles())
        assert len(ALL_CYCLES) == 5
