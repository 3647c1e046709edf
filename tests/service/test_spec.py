"""SweepSpec: grid compilation, validation, and the JSON wire format."""

import json
import math

import pytest

from repro.service.spec import SWEEPABLE_FIELDS, SweepSpec
from repro.sim.batch import scenario_grid
from repro.sim.scenario import Scenario


class TestCompile:
    def test_single_cell_without_axes(self):
        spec = SweepSpec(base=Scenario(cycle="nycc"))
        assert spec.scenarios() == [Scenario(cycle="nycc")]
        assert spec.cell_count() == 1

    def test_cross_product_matches_scenario_grid(self):
        axes = {
            "methodology": ["parallel", "dual"],
            "ucap_farads": [5_000.0, 25_000.0],
        }
        spec = SweepSpec(base=Scenario(cycle="nycc"), axes=axes)
        assert spec.scenarios() == scenario_grid(Scenario(cycle="nycc"), **axes)
        assert spec.cell_count() == 4

    def test_seeds_append_perturb_axis(self):
        spec = SweepSpec(
            base=Scenario(cycle="nycc"),
            axes={"methodology": ["parallel", "dual"]},
            seeds=3,
        )
        scenarios = spec.scenarios()
        assert len(scenarios) == spec.cell_count() == 6
        assert sorted({s.perturb_seed for s in scenarios}) == [0, 1, 2]
        # seeds axis varies fastest (appended last)
        assert [s.perturb_seed for s in scenarios[:3]] == [0, 1, 2]

    def test_explicit_perturb_axis_still_works(self):
        spec = SweepSpec(axes={"perturb_seed": [4, 9]})
        assert [s.perturb_seed for s in spec.scenarios()] == [4, 9]


class TestValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            SweepSpec(axes={"warp_factor": [9]})

    def test_axes_must_be_nonempty_lists(self):
        with pytest.raises(ValueError, match="non-empty list"):
            SweepSpec(axes={"methodology": []})
        with pytest.raises(ValueError, match="non-empty list"):
            SweepSpec(axes={"methodology": "dual"})

    def test_seeds_and_perturb_axis_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            SweepSpec(axes={"perturb_seed": [0, 1]}, seeds=2)

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(seeds=-1)
        with pytest.raises(ValueError):
            SweepSpec(workers=-1)
        with pytest.raises(ValueError):
            SweepSpec(timeout_s=0.0)

    @pytest.mark.parametrize("field", ["seeds", "workers"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2", None])
    def test_counts_must_be_integers(self, field, value):
        """A float worker count would crash the job in run_batch; a bool
        would silently act as 1."""
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 0"):
            SweepSpec(**{field: value})

    @pytest.mark.parametrize("field", ["seeds", "workers"])
    def test_zero_counts_accepted(self, field):
        assert getattr(SweepSpec(**{field: 0}), field) == 0

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -1.0, True, "60"]
    )
    def test_timeout_must_be_finite_and_positive(self, value):
        """A NaN budget never expires: ``now > nan`` is always False."""
        with pytest.raises(ValueError, match="timeout_s must be a"):
            SweepSpec(timeout_s=value)

    def test_knobs_validated_from_json(self):
        with pytest.raises(ValueError, match="workers must be an integer"):
            SweepSpec.from_dict({"workers": 2.5})

    def test_unknown_execution_mode_rejected(self):
        """The engine is routed by run_batch: a spec naming one is refused
        like any other unknown field."""
        with pytest.raises(ValueError, match="unknown sweep-spec field.*execution"):
            SweepSpec.from_dict({"execution": "auto"})

    def test_sweepable_fields_cover_scenario(self):
        assert "methodology" in SWEEPABLE_FIELDS
        assert "perturb_seed" in SWEEPABLE_FIELDS


class TestWireFormat:
    def test_json_roundtrip(self):
        spec = SweepSpec(
            base=Scenario(cycle="nycc", repeat=2),
            axes={"methodology": ["parallel", "dual"]},
            seeds=2,
            workers=1,
            timeout_s=60.0,
            tag="smoke",
        )
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_from_dict_accepts_partial_documents(self):
        spec = SweepSpec.from_dict(
            {
                "base": {"cycle": "nycc"},
                "axes": {"methodology": ["parallel"]},
            }
        )
        assert spec.base.cycle == "nycc"
        assert spec.base.repeat == Scenario().repeat
        assert spec.workers == 0

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown sweep-spec field"):
            SweepSpec.from_dict({"axez": {}})
        with pytest.raises(ValueError, match="must be an object"):
            SweepSpec.from_dict(["not", "a", "dict"])

    def test_spec_hash_is_content_addressed(self):
        a = SweepSpec(axes={"methodology": ["parallel"]})
        b = SweepSpec.from_json(a.to_json())
        assert a.spec_hash() == b.spec_hash()
        c = SweepSpec(axes={"methodology": ["dual"]})
        assert a.spec_hash() != c.spec_hash()

    def test_canonical_json_is_sorted(self):
        doc = json.loads(SweepSpec().to_json())
        assert list(doc) == sorted(doc)
