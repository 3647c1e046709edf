"""The simulation engine: Algorithm 1's outer loop, written once.

:func:`drive` runs the per-step sequence over a route of floats ``(T,)``
(:class:`Simulator`, one cell) or of columns ``(T, m)``
(:func:`repro.sim.engine_vec.run_lockstep_group`, one column per cell).
Per step it

1. builds an :class:`Observation` (states + the rest of the route, which
   is the power-request preview),
2. asks the controller for a :class:`Decision`,
3. prices the cooling command (C2/C3 clamp, Eq. 16 cooler power plus the
   pump) and adds it to the bus request - the cooler and pump draw their
   power from the HEES.  This is the one place the command is clamped
   and priced: the applied inlet feeds step 5 and the ``inlet_temp_k``
   channel, the price the ``cooling_power_w`` channel,
4. steps the HEES plant the controller's ``architecture`` names; the
   plant reads each of its states once per step (the pack's cell Voc and
   R, the bank voltage, the bank's C5/C7 window, each converter port's
   efficiency),
5. advances the coupled battery/coolant temperatures (Eq. 14-15 via
   Eq. 17) at the applied inlet, with the flow term on where cooling is
   on,
6. records the step's :data:`~repro.sim.trace.CHANNELS`.

Each engine keeps only its setup (scalar or lockstep pack, bank and plant;
controller or twin), its thermal step (``CoolingLoop.step`` or
``step_batch``, which return just the two new temperatures), its recorder
and its result assembly.  ``Q_loss`` and ``Energy`` accumulate exactly as
Algorithm 1 lines 17-18, from the recorded channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.battery.pack import DEFAULT_PACK, BatteryPack, PackConfig
from repro.controllers.base import Architecture, Controller, Observation
from repro.core.mpc import SolverStats
from repro.cooling.coolant import DEFAULT_COOLANT, CoolantParams
from repro.cooling.loop import CoolingLoop
from repro.hees.dual import DualHEES
from repro.hees.hybrid import HybridHEES
from repro.hees.parallel import ParallelHEES
from repro.sim.metrics import SummaryMetrics, compute_metrics
from repro.sim.trace import Trace, TraceRecorder
from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams
from repro.vehicle.powertrain import PowerRequest
from repro.utils.validation import check_in_range, check_positive


#: The plant each :class:`~repro.controllers.base.Architecture` names.
_PLANTS = {
    Architecture.PARALLEL: ParallelHEES,
    Architecture.DUAL: DualHEES,
    Architecture.HYBRID: HybridHEES,
}


@dataclass(frozen=True)
class SimulationResult:
    """Output of one run: the trace, its summary, and identification.

    ``solver`` carries the controller's accumulated optimizer effort when
    the controller exposes a ``solver_stats()`` method (the OTEM MPC does);
    baselines leave it ``None``.  Its ``backend`` field records which
    rollout implementation produced the plans (``"scalar"`` reference or
    the ``"vectorized"`` batched kernel), and ``last_cost_or_none`` is the
    JSON-safe view of the final solve cost (``None`` while NaN).
    """

    controller_name: str
    cycle_name: str
    trace: Trace
    metrics: SummaryMetrics
    solver: SolverStats | None = None

    @property
    def qloss_percent(self) -> float:
        """Accumulated capacity loss [%] (Algorithm 1 output)."""
        return self.metrics.qloss_percent

    @property
    def hees_energy_j(self) -> float:
        """Energy consumed in the HEES [J] (Algorithm 1 output)."""
        return self.metrics.hees_energy_j


def drive(controller, plant, loop, power, dt, coolant_temp, thermal_step, record):
    """Run the step sequence of the module docstring over one route.

    ``power`` is the read-only route: floats ``(T,)`` or columns
    ``(T, m)``, matching the states of ``plant`` and ``coolant_temp``
    (the initial coolant temperature).  ``thermal_step`` is ``loop.step``
    or ``loop.step_batch``; ``record(k, channels)`` stores step ``k``'s
    channels, each read after the step (a trace records end-of-step
    states).
    """
    pack, bank = plant.pack, plant.bank
    arch = controller.architecture
    cooled = controller.uses_cooling
    # a pack without an installed cooling loop is air-exposed; the
    # actively-cooled pack is sealed
    passive = not cooled
    pump_w = loop.params.pump_power_w
    # step k's request: a float, or a row with one entry per column
    requests = power.tolist() if power.ndim == 1 else power
    for k, p_e in enumerate(requests):
        # the preview is the rest of the route (one row per column, time
        # along the last axis)
        obs = Observation(
            step_index=k,
            time_s=k * dt,
            dt=dt,
            power_request_w=p_e,
            preview_w=power[k:].T,
            battery_soc_percent=pack.soc_percent,
            battery_temp_k=pack.temp_k,
            coolant_temp_k=coolant_temp,
            cap_soe_percent=bank.soe_percent,
        )
        decision = controller.control(obs)

        # clamp and price the cooling command once, before the plant step
        # (the cooler draws from the HEES bus); the thermal step and the
        # channels take these values.  Columns take masks, since per-column
        # thermostats may disagree; a float command keeps plain branches,
        # since np.where would hand the scalar plant 0-d arrays (~14 %
        # slower per scalar cell in bench_engine)
        cooling_on = cooled & decision.cooling_active
        if np.ndim(cooling_on):
            inlet = np.where(
                cooling_on,
                loop.clamp_inlet(decision.inlet_temp_k, coolant_temp),
                coolant_temp,
            )
            cooling_power = np.where(
                cooling_on, loop.cooler_power_w(inlet, coolant_temp) + pump_w, 0.0
            )
        elif cooling_on:
            inlet = loop.clamp_inlet(decision.inlet_temp_k, coolant_temp)
            cooling_power = loop.cooler_power_w(inlet, coolant_temp) + pump_w
        else:
            inlet = coolant_temp
            cooling_power = 0.0

        total_request = p_e + cooling_power

        if arch is Architecture.PARALLEL:
            step = plant.step(total_request, dt)
        elif arch is Architecture.HYBRID:
            step = plant.step(total_request, decision.cap_bus_w, dt)
        else:
            step = plant.step(
                total_request, decision.dual_mode, decision.recharge_power_w, dt
            )

        thermal = thermal_step(
            pack.temp_k,
            coolant_temp,
            inlet,
            step.battery_heat_w,
            dt,
            cooling_active=cooling_on,
            passive_ambient=passive,
        )
        pack.set_temperature(thermal.battery_temp_k)
        coolant_temp = thermal.coolant_temp_k

        record(
            k,
            {
                "time_s": k * dt,
                "request_w": p_e,
                "delivered_w": step.delivered_power_w,
                "battery_power_w": step.battery_power_w,
                "cap_power_w": step.ultracap_power_w,
                "cooling_power_w": cooling_power,
                "battery_soc_percent": pack.soc_percent,
                "cap_soe_percent": bank.soe_percent,
                "battery_temp_k": pack.temp_k,
                "coolant_temp_k": coolant_temp,
                "inlet_temp_k": inlet,
                "heat_w": step.battery_heat_w,
                "cell_current_a": step.battery_cell_current_a,
                "chem_energy_j": step.chem_energy_j,
                "cap_energy_j": step.cap_energy_j,
                "converter_loss_j": step.converter_loss_j,
                "loss_increment_percent": step.loss_increment_percent,
                "unmet_w": step.unmet_power_w,
            },
        )


class Simulator:
    """Drives one controller over one power-request trace.

    Parameters
    ----------
    controller:
        The policy under test; its ``architecture`` attribute selects the
        plant.
    pack_config:
        Battery pack layout.
    cap_params:
        Ultracapacitor bank parameters (the battery-only cooling baseline
        drives the dual plant and leaves its full bank alone).
    coolant:
        Cooling-loop parameters (the loop exists only when the controller
        declares ``uses_cooling``).
    initial_soc_percent / initial_temp_k:
        Initial conditions (Algorithm 1 line 9 uses 298 K and 100%).

    Every route starts with a full bank (SoE 100 %, Algorithm 1 line 9),
    and each step's observation carries the rest of the route as its
    preview, so the controller decides how far ahead to read.

    :meth:`run` drives the route through :func:`drive` and records into a
    :class:`~repro.sim.trace.TraceRecorder` sized to the route.
    """

    def __init__(
        self,
        controller: Controller,
        pack_config: PackConfig = DEFAULT_PACK,
        cap_params: UltracapParams | None = None,
        coolant: CoolantParams = DEFAULT_COOLANT,
        initial_soc_percent: float = 100.0,
        initial_temp_k: float = 298.0,
    ):
        check_in_range(initial_soc_percent, 0.0, 100.0, "initial_soc_percent")
        check_positive(initial_temp_k, "initial_temp_k")
        self._controller = controller
        self._pack_config = pack_config
        self._cap_params = cap_params if cap_params is not None else UltracapParams()
        self._coolant = coolant
        self._soc0 = initial_soc_percent
        self._temp0 = initial_temp_k

    # ------------------------------------------------------------------ #

    def run(self, request: PowerRequest) -> SimulationResult:
        """Simulate the whole route and return trace + metrics."""
        controller = self._controller
        controller.reset()

        pack = BatteryPack(
            self._pack_config,
            initial_soc_percent=self._soc0,
            initial_temp_k=self._temp0,
        )
        bank = UltracapBank(self._cap_params)
        plant = _PLANTS[controller.architecture](pack, bank)
        loop = CoolingLoop(self._coolant, self._pack_config.heat_capacity_j_per_k)

        recorder = TraceRecorder(len(request))
        # a read-only view: each step's preview is its tail
        power = request.power_w.view()
        power.flags.writeable = False
        drive(
            controller,
            plant,
            loop,
            power,
            request.dt,
            self._temp0,
            loop.step,
            lambda k, channels: recorder.record(**channels),
        )

        trace = recorder.freeze()
        stats_fn = getattr(controller, "solver_stats", None)
        return SimulationResult(
            controller_name=controller.name,
            cycle_name=request.cycle_name,
            trace=trace,
            metrics=compute_metrics(trace),
            solver=stats_fn() if callable(stats_fn) else None,
        )
