"""Cooling-loop dynamics tests (Eq. 14-17).

The loop's step takes an applied inlet: the engine clamps the command
(``clamp_inlet``) and prices it (``cooler_power_w``) once, before the
plant step, so these tests clamp the same way and read the price either
from those two queries or from a ``drive`` run's channels.
"""

import numpy as np
import pytest

from repro.battery.pack import DEFAULT_PACK
from repro.controllers.cooling_only import CoolingOnlyController
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.cooling.loop import CoolingLoop
from repro.sim.engine import Simulator


@pytest.fixture()
def loop():
    return CoolingLoop(DEFAULT_COOLANT, DEFAULT_PACK.heat_capacity_j_per_k)


def run_loop(loop, tb, tc, inlet, heat, steps, dt=1.0, cooling_active=True, **kwargs):
    """Step ``steps`` times at a commanded inlet, clamped as the engine does."""
    result = None
    for _ in range(steps):
        applied = loop.clamp_inlet(inlet, tc) if cooling_active else tc
        result = loop.step(
            tb, tc, applied, heat, dt, cooling_active=cooling_active, **kwargs
        )
        tb, tc = result.battery_temp_k, result.coolant_temp_k
    return tb, tc, result


def cooling_only_run(request, temp_k):
    """A cooling-only run's trace and, per step, whether it cooled."""
    controller = CoolingOnlyController()
    control, cooled = controller.control, []

    def recording(obs):
        decision = control(obs)
        cooled.append(bool(decision.cooling_active))
        return decision

    controller.control = recording
    trace = Simulator(controller, initial_temp_k=temp_k).run(request).trace
    return trace, np.array(cooled)


def coolant_before_each_step(trace, t0):
    """In-pack coolant temperature at the start of each traced step."""
    return np.concatenate(([t0], trace.coolant_temp_k[:-1]))


class TestInletClamp:
    def test_cooling_only_constraint_c2(self, loop):
        # commanded inlet above T_c is clamped down to T_c
        assert loop.clamp_inlet(330.0, 310.0) == 310.0

    def test_power_ceiling_constraint_c3(self, loop):
        # commanded inlet far below the power-limited drop is raised
        clamped = loop.clamp_inlet(100.0, 310.0)
        power = loop.cooler_power_w(clamped, 310.0)
        assert power <= DEFAULT_COOLANT.max_cooler_power_w * (1 + 1e-9)

    def test_min_inlet_floor(self, loop):
        clamped = loop.clamp_inlet(100.0, 290.0)
        assert clamped >= DEFAULT_COOLANT.min_inlet_temp_k

    def test_valid_command_unchanged(self, loop):
        assert loop.clamp_inlet(305.0, 310.0) == 305.0


class TestCoolerPower:
    def test_eq16(self, loop):
        p = DEFAULT_COOLANT
        power = loop.cooler_power_w(300.0, 310.0)
        assert power == pytest.approx(
            p.flow_capacity_rate_w_per_k * 10.0 / p.cooler_efficiency
        )

    def test_zero_drop_zero_power(self, loop):
        assert loop.cooler_power_w(310.0, 310.0) == 0.0

    def test_no_negative_power(self, loop):
        assert loop.cooler_power_w(320.0, 310.0) == 0.0


class TestDynamics:
    def test_heat_raises_temperature_without_cooling(self, loop):
        tb, tc, _ = run_loop(loop, 298.0, 298.0, 298.0, 2_000.0, 300, cooling_active=False)
        assert tb > 300.0
        assert tc > 298.0

    def test_adiabatic_energy_balance(self, loop):
        # sealed pack, no flow: all heat goes into the two thermal masses
        heat, steps = 2_000.0, 600
        tb, tc, _ = run_loop(loop, 298.0, 298.0, 298.0, heat, steps, cooling_active=False)
        stored = (
            DEFAULT_PACK.heat_capacity_j_per_k * (tb - 298.0)
            + DEFAULT_COOLANT.coolant_heat_capacity_j_per_k * (tc - 298.0)
        )
        assert stored == pytest.approx(heat * steps, rel=1e-6)

    def test_cooling_pulls_temperature_down(self, loop):
        tb, _, _ = run_loop(loop, 315.0, 315.0, 288.15, 0.0, 600, cooling_active=True)
        assert tb < 300.0

    def test_equilibrium_matches_formula(self, loop):
        heat = 2_000.0
        inlet = 292.0
        expected = loop.equilibrium_battery_temp_k(heat, inlet)
        tb, _, _ = run_loop(loop, 298.0, 298.0, inlet, heat, 5_000, cooling_active=True)
        assert tb == pytest.approx(expected, abs=0.1)

    def test_passive_ambient_cools_hot_pack(self, loop):
        tb_sealed, _, _ = run_loop(
            loop, 320.0, 320.0, 320.0, 0.0, 600, cooling_active=False
        )
        tb_vented, _, _ = run_loop(
            loop, 320.0, 320.0, 320.0, 0.0, 600,
            cooling_active=False, passive_ambient=True,
        )
        assert tb_vented < tb_sealed

    def test_passive_ambient_equilibrium_is_ambient(self, loop):
        tb, _, _ = run_loop(
            loop, 320.0, 320.0, 320.0, 0.0, 100_000,
            cooling_active=False, passive_ambient=True,
        )
        assert tb == pytest.approx(DEFAULT_COOLANT.ambient_temp_k, abs=0.05)

    def test_stability_at_large_dt(self, loop):
        # trapezoidal discretization must not oscillate at multi-second steps
        tb, tc = 310.0, 310.0
        temps = []
        for _ in range(100):
            inlet = loop.clamp_inlet(288.15, tc)
            r = loop.step(tb, tc, inlet, 1_000.0, 10.0, cooling_active=True)
            tb, tc = r.battery_temp_k, r.coolant_temp_k
            temps.append(tb)
        diffs = [temps[i + 1] - temps[i] for i in range(len(temps) - 1)]
        assert all(d <= 1e-9 for d in diffs)  # monotone approach, no ringing

    def test_pump_power_reported_when_active(self, loop, short_request):
        # a cooled step's channels are drive's clamp and its Eq. 16 price
        # plus the pump
        trace, active = cooling_only_run(short_request, 310.0)
        assert active.any()
        tc = coolant_before_each_step(trace, 310.0)
        inlet = loop.clamp_inlet(DEFAULT_COOLANT.min_inlet_temp_k, tc)
        price = loop.cooler_power_w(inlet, tc) + DEFAULT_COOLANT.pump_power_w
        assert np.array_equal(trace.inlet_temp_k[active], inlet[active])
        assert np.array_equal(trace.cooling_power_w[active], price[active])
        assert (trace.cooling_power_w[active] >= DEFAULT_COOLANT.pump_power_w).all()

    def test_no_pump_power_when_inactive(self, short_request):
        # an idle step draws nothing and its inlet is the coolant itself
        trace, active = cooling_only_run(short_request, 298.0)
        idle = ~active
        assert idle.any()
        tc = coolant_before_each_step(trace, 298.0)
        assert (trace.cooling_power_w[idle] == 0.0).all()
        assert np.array_equal(trace.inlet_temp_k[idle], tc[idle])

    def test_rejects_nonpositive_dt(self, loop):
        with pytest.raises(ValueError):
            loop.step(300.0, 300.0, 295.0, 0.0, 0.0)

    def test_rejects_nonpositive_heat_capacity(self):
        with pytest.raises(ValueError):
            CoolingLoop(DEFAULT_COOLANT, 0.0)


class TestStepBatchMatchesStep:
    """Each ``step_batch`` column is the scalar ``step`` of that column."""

    FIELDS = ("battery_temp_k", "coolant_temp_k")

    @pytest.mark.parametrize("passive_ambient", [False, True])
    @pytest.mark.parametrize("dt", [0.5, 1.0, 5.0, 30.0])
    def test_columns_bitwise(self, loop, dt, passive_ambient):
        rng = np.random.default_rng(17)
        m = 2_000
        tb = rng.uniform(260.0, 340.0, m)
        tc = tb + rng.uniform(-15.0, 15.0, m)
        command = rng.uniform(250.0, 345.0, m)
        heat = rng.uniform(0.0, 25_000.0, m)
        active = rng.random(m) < 0.5
        # the applied inlet, as the engine hands it over
        inlet = np.where(active, loop.clamp_inlet(command, tc), tc)
        batch = loop.step_batch(
            tb, tc, inlet, heat, dt, active, passive_ambient=passive_ambient
        )
        cols = [
            loop.step(
                tb[j], tc[j], inlet[j], heat[j], dt,
                cooling_active=bool(active[j]),
                passive_ambient=passive_ambient,
            )
            for j in range(m)
        ]
        for name in self.FIELDS:
            scalar = np.array([getattr(c, name) for c in cols], dtype=float)
            column = np.broadcast_to(getattr(batch, name), (m,)).astype(float)
            assert column.tobytes() == scalar.tobytes(), name
