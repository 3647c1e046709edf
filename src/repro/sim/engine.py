"""The simulation engine: Algorithm 1's outer loop.

Per step:

1. build an :class:`Observation` (states + power-request preview),
2. ask the controller for a :class:`Decision`,
3. price the cooling command (Eq. 16) and add it to the bus request - the
   cooler and pump draw their power from the HEES,
4. step the HEES plant (the architecture the controller declares; a
   battery-only policy drives the dual plant with its default battery
   mode and zero recharge),
5. advance the coupled battery/coolant temperatures (Eq. 14-15 via Eq. 17),
6. record the step's channels (:func:`step_channels`, shared with the
   lockstep engine).

``Q_loss`` and ``Energy`` accumulate exactly as Algorithm 1 lines 17-18.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def step_channels(time_s, request_w, step, thermal, pack, bank, coolant_temp_k) -> dict:
    """Map one step's results to the trace's :data:`~repro.sim.trace.CHANNELS`.

    ``step`` and ``thermal`` are the plant and cooling-loop results; the
    pack, bank and coolant temperature are read after the step (a trace
    records end-of-step states).  Both engines record through this map:
    :class:`Simulator` with floats, :func:`repro.sim.engine_vec.
    run_lockstep_group` with one array per channel across its columns.
    """
    return {
        "time_s": time_s,
        "request_w": request_w,
        "delivered_w": step.delivered_power_w,
        "battery_power_w": step.battery_power_w,
        "cap_power_w": step.ultracap_power_w,
        "cooling_power_w": thermal.cooler_power_w + thermal.pump_power_w,
        "battery_soc_percent": pack.soc_percent,
        "cap_soe_percent": bank.soe_percent,
        "battery_temp_k": pack.temp_k,
        "coolant_temp_k": coolant_temp_k,
        "inlet_temp_k": thermal.inlet_temp_k,
        "heat_w": step.battery_heat_w,
        "cell_current_a": step.battery_cell_current_a,
        "chem_energy_j": step.chem_energy_j,
        "cap_energy_j": step.cap_energy_j,
        "converter_loss_j": step.converter_loss_j,
        "loss_increment_percent": step.loss_increment_percent,
        "unmet_w": step.unmet_power_w,
    }


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
        Ultracapacitor bank parameters (ignored for BATTERY_ONLY).
    coolant:
        Cooling-loop parameters (the loop exists only when the controller
        declares ``uses_cooling``).
    initial_soc_percent / initial_temp_k / initial_soe_percent:
        Initial conditions (Algorithm 1 line 9 uses 298 K and 100%).
    preview_steps:
        Length of the power preview handed to the controller (the MPC's
        control window N).

    :meth:`run` records into a :class:`~repro.sim.trace.TraceRecorder`
    sized to the route, one :func:`step_channels` record per step.
    """

    def __init__(
        self,
        controller: Controller,
        pack_config: PackConfig = DEFAULT_PACK,
        cap_params: UltracapParams | None = None,
        coolant: CoolantParams = DEFAULT_COOLANT,
        initial_soc_percent: float = 100.0,
        initial_temp_k: float = 298.0,
        initial_soe_percent: float = 100.0,
        preview_steps: int = 10,
    ):
        check_in_range(initial_soc_percent, 0.0, 100.0, "initial_soc_percent")
        check_in_range(initial_soe_percent, 0.0, 100.0, "initial_soe_percent")
        check_positive(initial_temp_k, "initial_temp_k")
        if preview_steps < 1:
            raise ValueError("preview_steps must be >= 1")
        self._controller = controller
        self._pack_config = pack_config
        self._cap_params = cap_params if cap_params is not None else UltracapParams()
        self._coolant = coolant
        self._soc0 = initial_soc_percent
        self._temp0 = initial_temp_k
        self._soe0 = initial_soe_percent
        self._preview = preview_steps

    # ------------------------------------------------------------------ #

    def _build_plant(self, pack: BatteryPack, bank: UltracapBank):
        arch = self._controller.architecture
        if arch is Architecture.PARALLEL:
            return ParallelHEES(pack, bank)
        if arch is Architecture.DUAL or arch is Architecture.BATTERY_ONLY:
            return DualHEES(pack, bank)
        if arch is Architecture.HYBRID:
            return HybridHEES(pack, bank)
        raise ValueError(f"unknown architecture {arch}")

    def run(self, request: PowerRequest) -> SimulationResult:
        """Simulate the whole route and return trace + metrics."""
        controller = self._controller
        controller.reset()

        pack = BatteryPack(
            self._pack_config,
            initial_soc_percent=self._soc0,
            initial_temp_k=self._temp0,
        )
        bank = UltracapBank(self._cap_params, initial_soe_percent=self._soe0)
        plant = self._build_plant(pack, bank)
        loop = CoolingLoop(self._coolant, self._pack_config.heat_capacity_j_per_k)

        dt = request.dt
        coolant_temp = self._temp0
        recorder = TraceRecorder(len(request))

        for k in range(len(request)):
            p_e = float(request.power_w[k])
            obs = Observation(
                step_index=k,
                time_s=k * dt,
                dt=dt,
                power_request_w=p_e,
                preview_w=request.window(k, self._preview),
                battery_soc_percent=pack.soc_percent,
                battery_temp_k=pack.temp_k,
                coolant_temp_k=coolant_temp,
                cap_soe_percent=bank.soe_percent,
            )
            decision = controller.control(obs)

            # price the cooling command before the plant step (the cooler
            # draws from the HEES bus)
            cooling_on = controller.uses_cooling and decision.cooling_active
            if cooling_on:
                inlet = loop.clamp_inlet(decision.inlet_temp_k, coolant_temp)
                cooling_power = (
                    loop.cooler_power_w(inlet, coolant_temp)
                    + self._coolant.pump_power_w
                )
            else:
                inlet = coolant_temp
                cooling_power = 0.0

            total_request = p_e + cooling_power

            arch = controller.architecture
            if arch is Architecture.PARALLEL:
                step = plant.step(total_request, dt)
            elif arch is Architecture.HYBRID:
                step = plant.step(total_request, decision.cap_bus_w, dt)
            else:  # the dual plant; a battery-only policy keeps its defaults
                step = plant.step(
                    total_request, decision.dual_mode, decision.recharge_power_w, dt
                )

            # architectures without an installed cooling system have
            # air-exposed packs; the actively-cooled pack is sealed
            passive = arch in (Architecture.PARALLEL, Architecture.DUAL)
            thermal = loop.step(
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

            recorder.record(
                **step_channels(k * dt, p_e, step, thermal, pack, bank, coolant_temp)
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
