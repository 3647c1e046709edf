"""Route-level backend equivalence: vectorized vs scalar OTEM on NYCC.

The kernel-level suite (tests/core/test_rollout_vec.py) pins the rollout
arithmetic to ~1e-14; this test closes the loop at the system level.  The
two backends take different optimizer trajectories (a joint batched race
on central differences vs per-start serial solves on the rollout's exact
reverse-pass gradient), so the plans are not bitwise identical - but they
must land on the same physics: route metrics agree within a few percent,
and the thermal envelope within a fraction of a kelvin.
"""

import pytest

from repro.sim.scenario import Scenario, run_scenario

#: NYCC at a reduced solver budget (the batch bench's setting): a real
#: multi-replan route that keeps the test inside a few seconds.
_KNOBS = dict(methodology="otem", cycle="nycc", mpc_max_evals=2)


@pytest.fixture(scope="module")
def routes():
    scalar = run_scenario(Scenario(**_KNOBS, rollout_backend="scalar"))
    vectorized = run_scenario(Scenario(**_KNOBS, rollout_backend="vectorized"))
    return scalar, vectorized


class TestRouteMetricsEquivalence:
    def test_backend_recorded(self, routes):
        scalar, vectorized = routes
        assert scalar.solver.backend == "scalar"
        assert vectorized.solver.backend == "vectorized"
        assert scalar.solver.solves == vectorized.solver.solves

    def test_capacity_loss_matches(self, routes):
        scalar, vectorized = routes
        assert vectorized.metrics.qloss_percent == pytest.approx(
            scalar.metrics.qloss_percent, rel=0.15
        )

    def test_energy_accounting_matches(self, routes):
        scalar, vectorized = routes
        assert vectorized.metrics.hees_energy_j == pytest.approx(
            scalar.metrics.hees_energy_j, rel=0.05
        )
        assert vectorized.metrics.average_power_w == pytest.approx(
            scalar.metrics.average_power_w, rel=0.05
        )

    def test_thermal_envelope_matches(self, routes):
        scalar, vectorized = routes
        assert vectorized.metrics.peak_temp_k == pytest.approx(
            scalar.metrics.peak_temp_k, abs=0.5
        )
        assert (
            vectorized.metrics.time_above_safe_s
            == scalar.metrics.time_above_safe_s
        )

    def test_demand_is_met(self, routes):
        scalar, vectorized = routes
        # both backends must satisfy the route (no meaningful unmet energy)
        assert scalar.metrics.unmet_energy_j < 1.0
        assert vectorized.metrics.unmet_energy_j < 1.0
