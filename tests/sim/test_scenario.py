"""Scenario wrapper tests."""

import pytest

from repro.controllers.base import Architecture
from repro.core.otem import OTEMController
from repro.sim.scenario import METHODOLOGIES, Scenario, build_controller, run_scenario


class TestScenario:
    def test_default_is_otem_us06(self):
        s = Scenario()
        assert s.methodology == "otem"
        assert s.cycle == "us06"

    def test_rejects_unknown_methodology(self):
        with pytest.raises(ValueError, match="unknown methodology"):
            Scenario(methodology="magic")

    def test_rejects_zero_repeat(self):
        with pytest.raises(ValueError):
            Scenario(repeat=0)

    @pytest.mark.parametrize("field", ["initial_temp_k", "ucap_farads"])
    @pytest.mark.parametrize("value", [-5.0, 0.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nonfinite_physical_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            Scenario(**{field: value})
        with pytest.raises(ValueError, match=field):
            Scenario.from_dict({field: value})

    @pytest.mark.parametrize("value", [-5.0, 0.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nonfinite_mpc_step(self, value):
        with pytest.raises(ValueError, match="mpc_step_s"):
            Scenario(mpc_step_s=value)
        with pytest.raises(ValueError, match="mpc_step_s"):
            Scenario.from_dict({"mpc_step_s": value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ucap_farads", "25000"),
            ("ucap_farads", True),
            ("initial_temp_k", "298"),
            ("mpc_step_s", "5"),
            ("mpc_step_s", False),
        ],
    )
    def test_rejects_strings_and_bools_for_physical_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            Scenario(**{field: value})
        with pytest.raises(ValueError, match=field):
            Scenario.from_dict({field: value})

    @pytest.mark.parametrize("field", ["repeat", "mpc_horizon", "mpc_max_evals"])
    @pytest.mark.parametrize("value", [0, -3, 2.5, 12.0, True, "12"])
    def test_rejects_counts_that_are_not_integers_from_one(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            Scenario(**{field: value})
        with pytest.raises(ValueError, match=field):
            Scenario.from_dict({field: value})

    def test_accepts_smallest_mpc_settings(self):
        s = Scenario(mpc_horizon=1, mpc_step_s=0.5, mpc_max_evals=1)
        assert (s.mpc_horizon, s.mpc_step_s, s.mpc_max_evals) == (1, 0.5, 1)

    def test_cap_params_resistance_scaled(self):
        small = Scenario(ucap_farads=5_000.0).cap_params()
        large = Scenario(ucap_farads=25_000.0).cap_params()
        assert small.internal_resistance_ohm > large.internal_resistance_ohm


class TestBuildController:
    @pytest.mark.parametrize(
        "name,arch",
        [
            ("parallel", Architecture.PARALLEL),
            ("cooling", Architecture.DUAL),
            ("dual", Architecture.DUAL),
            ("otem", Architecture.HYBRID),
            ("heuristic", Architecture.HYBRID),
        ],
    )
    def test_architecture_mapping(self, name, arch):
        controller = build_controller(Scenario(methodology=name))
        assert controller.architecture is arch
        assert controller.uses_cooling == (name in ("cooling", "otem", "heuristic"))

    def test_all_methodologies_buildable(self):
        for name in METHODOLOGIES:
            assert build_controller(Scenario(methodology=name)) is not None

    def test_otem_gets_scenario_bank(self):
        controller = build_controller(Scenario(methodology="otem", ucap_farads=5_000))
        assert isinstance(controller, OTEMController)
        assert controller._cap_params.capacitance_f == 5_000


class TestRunScenario:
    @pytest.mark.parametrize("name", ["parallel", "cooling", "dual", "heuristic"])
    def test_baselines_run(self, name):
        result = run_scenario(Scenario(methodology=name, cycle="nycc"))
        assert result.qloss_percent > 0
        assert result.metrics.duration_s > 500

    def test_otem_runs(self):
        result = run_scenario(
            Scenario(methodology="otem", cycle="nycc", mpc_max_evals=40)
        )
        assert result.controller_name == "OTEM"
        assert result.metrics.unmet_energy_j < 1e5


class TestJsonRoundTrip:
    def test_default_scenario_roundtrips(self):
        s = Scenario()
        assert Scenario.from_json(s.to_json()) == s

    def test_drive_cycle_refs_and_seeds_roundtrip(self):
        s = Scenario(
            methodology="dual",
            cycle="nycc",
            repeat=3,
            ucap_farads=5_000.0,
            initial_temp_k=305.0,
            rollout_backend="vectorized",
            perturb_seed=17,
        )
        back = Scenario.from_json(s.to_json())
        assert back == s
        assert back.cycle == "nycc" and back.perturb_seed == 17

    def test_nested_configs_roundtrip(self):
        import dataclasses as dc
        import json

        s = Scenario()
        doc = json.loads(s.to_json())
        # nested dataclasses serialize as plain objects...
        assert doc["pack"]["series"] == s.pack.series
        assert doc["weights"]["w1"] == s.weights.w1
        # ...and rebuild into the same frozen values
        back = Scenario.from_json(s.to_json())
        assert back.pack == s.pack and dc.asdict(back) == dc.asdict(s)

    def test_partial_dicts_keep_defaults(self):
        s = Scenario.from_dict({"cycle": "nycc", "pack": {"series": 48}})
        assert s.cycle == "nycc"
        assert s.pack.series == 48
        assert s.pack.parallel == Scenario().pack.parallel
        assert s.methodology == Scenario().methodology

    def test_unknown_fields_rejected_with_path(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            Scenario.from_dict({"warp": 9})
        with pytest.raises(ValueError, match="scenario.weights"):
            Scenario.from_dict({"weights": {"nope": 1.0}})
        with pytest.raises(ValueError, match="scenario.pack.cell"):
            Scenario.from_dict({"pack": {"cell": {"nope": 1.0}}})

    def test_nested_values_must_be_objects(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            Scenario.from_dict({"pack": "big"})

    def test_canonical_json_is_sorted_and_stable(self):
        import json

        a, b = Scenario().to_json(), Scenario().to_json()
        assert a == b
        assert list(json.loads(a)) == sorted(json.loads(a))

    def test_validation_still_applies(self):
        with pytest.raises(ValueError, match="unknown methodology"):
            Scenario.from_dict({"methodology": "magic"})
