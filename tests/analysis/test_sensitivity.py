"""Calibration-sensitivity tests."""

from types import SimpleNamespace

import pytest

from repro.analysis import sensitivity
from repro.analysis.sensitivity import (
    OrderingCheck,
    SensitivityCase,
    check_orderings,
    default_cases,
)
from repro.sim.scenario import Scenario


class TestCases:
    def test_default_cases_include_nominal(self):
        names = [c.name for c in default_cases()]
        assert "nominal" in names
        assert len(names) >= 7

    def test_cell_patch_changes_resistance(self):
        case = next(c for c in default_cases() if c.name == "res_base +25%")
        base = Scenario(methodology="parallel")
        patched = case.scenario_patch(base)
        assert patched.pack.cell.res_base == pytest.approx(
            base.pack.cell.res_base * 1.25
        )

    def test_coolant_patch_changes_passive_h(self):
        case = next(c for c in default_cases() if c.name == "passive h +50%")
        base = Scenario(methodology="parallel")
        patched = case.scenario_patch(base)
        assert patched.coolant.passive_h_w_per_k == pytest.approx(
            base.coolant.passive_h_w_per_k * 1.5
        )

    def test_nominal_patch_is_identity(self):
        case = next(c for c in default_cases() if c.name == "nominal")
        base = Scenario(methodology="parallel")
        assert case.scenario_patch(base) is base


class TestOrderingCheck:
    def make(self, qloss, power):
        return OrderingCheck(case="t", qloss_percent=qloss, avg_power_w=power)

    def test_all_hold(self):
        check = self.make(
            {"parallel": 1.0, "cooling": 0.5, "dual": 0.8},
            {"parallel": 18_000.0, "cooling": 24_000.0, "dual": 20_000.0},
        )
        assert check.all_hold

    def test_detects_broken_qloss_ordering(self):
        check = self.make(
            {"parallel": 1.0, "cooling": 0.5, "dual": 1.2},
            {"parallel": 18_000.0, "cooling": 24_000.0, "dual": 20_000.0},
        )
        assert not check.dual_beats_parallel_qloss
        assert not check.all_hold

    def test_detects_broken_power_ordering(self):
        check = self.make(
            {"parallel": 1.0, "cooling": 0.5, "dual": 0.8},
            {"parallel": 25_000.0, "cooling": 24_000.0, "dual": 20_000.0},
        )
        assert not check.parallel_cheapest


class TestCheckOrderings:
    def test_batch_grid_wiring(self, monkeypatch):
        """One run_batch grid holds every case x methodology cell, patched."""
        grids = []
        metrics = SimpleNamespace(qloss_percent=0.1, average_power_w=1_000.0)

        def fake_run_batch(grid):
            grids.append(grid)
            batch = SimpleNamespace(
                cells=tuple(SimpleNamespace(scenario=s, metrics=metrics) for s in grid)
            )
            return SimpleNamespace(raise_on_failure=lambda: batch)

        monkeypatch.setattr(sensitivity, "run_batch", fake_run_batch)
        cases = [
            SensitivityCase("nominal", lambda s: s),
            default_cases()[1],  # res_base +25%
        ]
        out = check_orderings(cases=cases)
        assert [c.case for c in out] == ["nominal", "res_base +25%"]
        assert len(grids) == 1
        (grid,) = grids
        assert len(grid) == 6  # 2 cases x 3 methodologies
        assert [s.methodology for s in grid] == ["parallel", "cooling", "dual"] * 2
        nominal_r = grid[0].pack.cell.res_base
        for s in grid[3:]:
            assert s.pack.cell.res_base == pytest.approx(nominal_r * 1.25)

    def test_real_nominal_orderings_hold(self):
        """The headline check at reduced scale: orderings survive nominal."""
        out = check_orderings(
            cases=[SensitivityCase("nominal", lambda s: s)],
            cycle="us06",
            repeat=3,
        )
        assert out[0].all_hold
