"""Paper-shape regression tests.

These pin the qualitative results of the paper's evaluation (Section IV) at
the smallest workload that still exhibits them: US06 x2, 25,000 F, default
parameters.  The full-scale numbers live in benchmarks/ and EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.core.teb import teb_preparation_score
from repro.sim.scenario import Scenario, run_scenario

REPEAT = 2


@pytest.fixture(scope="module")
def results():
    out = {}
    for m in ("parallel", "cooling", "dual", "otem"):
        out[m] = run_scenario(
            Scenario(methodology=m, cycle="us06", repeat=REPEAT, mpc_max_evals=4)
        )
    return out


class TestCapacityLossOrdering:
    """Fig. 8 / Table I: OTEM < cooling-only < parallel; dual < parallel."""

    def test_otem_beats_everything(self, results):
        otem = results["otem"].qloss_percent
        for m in ("parallel", "cooling", "dual"):
            assert otem < results[m].qloss_percent

    def test_dual_beats_parallel(self, results):
        assert results["dual"].qloss_percent < results["parallel"].qloss_percent

    def test_cooling_beats_parallel(self, results):
        assert results["cooling"].qloss_percent < results["parallel"].qloss_percent

    def test_otem_reduction_magnitude(self, results):
        # paper Table I (US06): OTEM at ~43% of parallel; accept 20-80%
        ratio = results["otem"].qloss_percent / results["parallel"].qloss_percent
        assert 0.15 < ratio < 0.8


class TestPowerOrdering:
    """Fig. 9 / Table I: parallel cheapest, cooling-only most expensive."""

    def test_parallel_cheapest(self, results):
        base = results["parallel"].metrics.average_power_w
        for m in ("cooling", "dual", "otem"):
            assert results[m].metrics.average_power_w > base

    def test_cooling_most_expensive(self, results):
        cooling = results["cooling"].metrics.average_power_w
        for m in ("parallel", "dual", "otem"):
            if m != "cooling":
                assert results[m].metrics.average_power_w < cooling

    def test_otem_saves_vs_cooling_only(self, results):
        # paper: 12.1% reduction; accept anything beyond 2%
        ratio = (
            results["otem"].metrics.average_power_w
            / results["cooling"].metrics.average_power_w
        )
        assert ratio < 0.98


class TestThermalSafety:
    """Fig. 6: managed methodologies hold the C1 limit."""

    def test_otem_never_unsafe(self, results):
        assert results["otem"].metrics.time_above_safe_s == 0.0

    def test_cooling_never_unsafe(self, results):
        assert results["cooling"].metrics.time_above_safe_s == 0.0

    def test_otem_runs_cooler_than_parallel(self, results):
        assert (
            np.mean(results["otem"].trace.battery_temp_k)
            < np.mean(results["parallel"].trace.battery_temp_k)
        )


class TestDeliveryQuality:
    def test_otem_meets_demand(self, results):
        assert results["otem"].metrics.unmet_energy_j < 1e5  # < 0.03 kWh

    def test_parallel_meets_demand(self, results):
        assert results["parallel"].metrics.unmet_energy_j < 3e5


class TestTEBPreparation:
    """Fig. 7: OTEM holds more budget ahead of demand than the baselines."""

    def test_otem_prepares_better_than_dual(self, results):
        otem_score = teb_preparation_score(results["otem"].trace)
        dual_score = teb_preparation_score(results["dual"].trace)
        assert otem_score > dual_score


class TestFig1SizeDependence:
    """Fig. 1: small banks fail thermally under the dual methodology."""

    @pytest.fixture(scope="class")
    def dual_sizes(self):
        return {
            size: run_scenario(
                Scenario(methodology="dual", cycle="us06", repeat=3, ucap_farads=size)
            )
            for size in (5_000.0, 25_000.0)
        }

    def test_small_bank_hotter(self, dual_sizes):
        assert (
            dual_sizes[5_000.0].metrics.peak_temp_k
            >= dual_sizes[25_000.0].metrics.peak_temp_k - 0.5
        )

    def test_small_bank_ages_more(self, dual_sizes):
        assert (
            dual_sizes[5_000.0].qloss_percent
            > dual_sizes[25_000.0].qloss_percent
        )
