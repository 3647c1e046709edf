"""Aging-feedback and lifetime-projection tests."""

import dataclasses
from types import SimpleNamespace

import pytest

import repro.sim.batch as batch_mod
from repro.battery.electrical import BatteryElectrical
from repro.battery.lifetime import (
    LifetimeProjection,
    blt_improvement_percent,
    project_lifetime,
)
from repro.battery.pack import PackConfig
from repro.battery.params import NCR18650A
from repro.sim.scenario import Scenario, run_scenario


class TestAgedCell:
    def test_fresh_is_identity(self):
        aged = NCR18650A.aged(0.0)
        assert aged.capacity_ah == NCR18650A.capacity_ah
        assert aged.res_base == NCR18650A.res_base

    def test_capacity_shrinks_proportionally(self):
        aged = NCR18650A.aged(10.0)
        assert aged.capacity_ah == pytest.approx(0.9 * NCR18650A.capacity_ah)

    def test_resistance_grows(self):
        aged = NCR18650A.aged(20.0)
        assert aged.res_base == pytest.approx(1.8 * NCR18650A.res_base)
        assert aged.res_exp_a == pytest.approx(1.8 * NCR18650A.res_exp_a)

    def test_eol_resistance_in_literature_band(self):
        # 1.5-2x at 20% fade is the standard coupling
        aged = NCR18650A.aged(20.0)
        model_fresh = BatteryElectrical(NCR18650A)
        model_aged = BatteryElectrical(aged)
        ratio = float(
            model_aged.internal_resistance(50.0, 298.15)
            / model_fresh.internal_resistance(50.0, 298.15)
        )
        assert 1.5 <= ratio <= 2.0

    def test_voc_curve_unchanged(self):
        aged = NCR18650A.aged(15.0)
        assert aged.voc_p0 == NCR18650A.voc_p0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NCR18650A.aged(-1.0)
        with pytest.raises(ValueError):
            NCR18650A.aged(150.0)

    def test_aged_cell_runs_hotter(self):
        """The feedback mechanism: same power, more heat when aged."""
        from repro.battery.pack import BatteryPack, PackConfig

        fresh = BatteryPack(PackConfig())
        aged = BatteryPack(PackConfig(cell=NCR18650A.aged(15.0)))
        r_fresh = fresh.apply_power(50_000.0, 1.0)
        r_aged = aged.apply_power(50_000.0, 1.0)
        assert r_aged.heat_w > r_fresh.heat_w


def fake_run_batch(monkeypatch, rates):
    """Patch ``run_batch`` to report ``rates`` (one per stage, in order).

    Returns the list the grids it is called with are appended to.
    """
    rates = iter(rates)
    grids = []

    def run_batch(grid):
        grids.append(grid)
        cells = tuple(
            SimpleNamespace(metrics=SimpleNamespace(qloss_percent=next(rates)))
            for _ in grid
        )
        return SimpleNamespace(raise_on_failure=lambda: SimpleNamespace(cells=cells))

    monkeypatch.setattr(batch_mod, "run_batch", run_batch)
    return grids


class TestProjectLifetime:
    def test_constant_rate_matches_naive(self, monkeypatch):
        """With a rate that ignores degradation, feedback changes nothing."""
        fake_run_batch(monkeypatch, [0.05] * 4)
        proj = project_lifetime(
            Scenario(methodology="parallel", cycle="nycc"), stages=4
        )
        assert proj.routes_to_eol == pytest.approx(400.0)
        assert proj.routes_to_eol_naive == pytest.approx(400.0)
        assert proj.acceleration_factor == pytest.approx(1.0)

    def test_accelerating_rate_shortens_life(self, monkeypatch):
        fake_run_batch(monkeypatch, [0.05, 0.10, 0.20, 0.40])
        proj = project_lifetime(
            Scenario(methodology="parallel", cycle="nycc"), stages=4
        )
        expected = 5 / 0.05 + 5 / 0.10 + 5 / 0.20 + 5 / 0.40
        assert proj.routes_to_eol == pytest.approx(expected)
        assert proj.acceleration_factor > 1.9

    def test_stage_edges(self, monkeypatch):
        fake_run_batch(monkeypatch, [0.05] * 4)
        proj = project_lifetime(
            Scenario(methodology="parallel", cycle="nycc"), stages=4
        )
        assert proj.stage_loss_percent == (0.0, 5.0, 10.0, 15.0)

    def test_runner_receives_derated_pack(self, monkeypatch):
        """All stages go to ``run_batch`` as one grid, each on its own pack."""
        grids = fake_run_batch(monkeypatch, [0.05] * 2)
        project_lifetime(Scenario(methodology="parallel", cycle="nycc"), stages=2)
        (grid,) = grids
        seen = [s.pack.cell.capacity_ah for s in grid]
        assert seen[0] > seen[1]  # second stage has faded capacity

    def test_rejects_bad_stages(self):
        with pytest.raises(ValueError):
            project_lifetime(Scenario(), stages=1)

    def test_stage_rates_match_run_scenario_bitwise(self):
        """Each stage is a scalar singleton: the grid reproduces run_scenario."""
        scenario = Scenario(methodology="parallel", cycle="nycc")
        proj = project_lifetime(scenario, stages=2)
        expected = []
        for stage_loss in proj.stage_loss_percent:
            cell = scenario.pack.cell.aged(stage_loss)
            pack = PackConfig(
                series=scenario.pack.series, parallel=scenario.pack.parallel, cell=cell
            )
            result = run_scenario(dataclasses.replace(scenario, pack=pack))
            expected.append(max(result.metrics.qloss_percent, 1e-12))
        assert proj.stage_rate_percent_per_route == tuple(expected)

    def test_real_simulation_feedback(self):
        """End-to-end on a thermally active cycle: aged batteries fade faster.

        (On mild cycles like NYCC the effect is roughly neutral: the aged
        cell's higher resistance pushes more of the load onto the
        ultracapacitor, offsetting the extra heat - a real consequence of
        the parallel circuit, not a bug.)
        """
        proj = project_lifetime(
            Scenario(methodology="parallel", cycle="us06"), stages=2
        )
        assert proj.stage_rate_percent_per_route[1] > proj.stage_rate_percent_per_route[0]
        assert proj.acceleration_factor > 1.0


class TestBLTImprovement:
    def make(self, routes):
        return LifetimeProjection(
            methodology="x",
            cycle="c",
            stage_loss_percent=(0.0,),
            stage_rate_percent_per_route=(0.1,),
            routes_to_eol=routes,
            routes_to_eol_naive=routes,
        )

    def test_improvement(self):
        assert blt_improvement_percent(self.make(120.0), self.make(100.0)) == pytest.approx(20.0)

    def test_degradation_negative(self):
        assert blt_improvement_percent(self.make(80.0), self.make(100.0)) < 0

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            blt_improvement_percent(self.make(100.0), self.make(0.0))
