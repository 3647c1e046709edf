"""Battery pack: series/parallel aggregation of cells with lumped state.

The pack exposes exactly the quantities the HEES architectures and the
cooling loop need:

* electrical: terminal power <-> per-cell current (all series strings share
  the same current; parallel strings split it evenly in this lumped model),
* thermal: total generated heat and total heat capacity (the temperature
  itself is advanced by :class:`repro.cooling.CoolingLoop`, Eq. 14),
* aging: accumulated capacity loss per Eq. 5.

State updates happen through :meth:`BatteryPack.apply_power`; read-only
prediction helpers (used by the MPC rollout) never mutate state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.battery.aging import AgingModel
from repro.battery.electrical import BatteryElectrical
from repro.battery.params import CellParams, NCR18650A
from repro.utils.units import ah_to_coulomb
from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class PackConfig:
    """Series/parallel layout of the pack.

    Attributes
    ----------
    series:
        Cells in series per string (sets pack voltage).
    parallel:
        Strings in parallel (sets pack capacity and current capability).
    cell:
        Cell parameter set.
    """

    series: int = 96
    parallel: int = 30
    cell: CellParams = NCR18650A

    def __post_init__(self):
        if self.series < 1 or self.parallel < 1:
            raise ValueError("series and parallel must be >= 1")

    @property
    def cell_count(self) -> int:
        """Total number of cells."""
        return self.series * self.parallel

    @property
    def nominal_voltage_v(self) -> float:
        """Nominal pack voltage [V]."""
        return self.series * self.cell.nominal_voltage_v

    @property
    def capacity_ah(self) -> float:
        """Pack capacity [Ah]."""
        return self.parallel * self.cell.capacity_ah

    @property
    def energy_kwh(self) -> float:
        """Nominal pack energy [kWh]."""
        return self.nominal_voltage_v * self.capacity_ah / 1000.0

    @property
    def heat_capacity_j_per_k(self) -> float:
        """Lumped pack heat capacity C_b [J/K] (Eq. 14)."""
        return self.cell_count * self.cell.heat_capacity_j_per_k

    @property
    def max_power_w(self) -> float:
        """Pack discharge-power ceiling [W] at nominal voltage (constraint C6)."""
        return (
            self.parallel
            * self.cell.max_current_a
            * self.series
            * self.cell.nominal_voltage_v
        )


#: Default layout: 96s30p NCR18650A, ~32 kWh / ~345 V - a compact-EV-class
#: pack in a full-size vehicle, which is what makes thermal management
#: critical (see DESIGN.md and the paper's introduction).
DEFAULT_PACK = PackConfig()


@dataclass
class PackState:
    """Mutable pack state carried between simulation steps.

    Capacity loss lives in :class:`repro.battery.aging.AgingModel` (single
    source of truth); read it via :attr:`BatteryPack.loss_percent`.
    """

    soc_percent: float = 100.0
    temp_k: float = 298.0


@dataclass(frozen=True)
class PackStepResult:
    """Outcome of one electrical step of the pack.

    :class:`BatteryPack` fills each field with a float (``clipped`` with a
    bool); :class:`BatteryPackVec` with one array entry per column.

    Attributes
    ----------
    cell_current_a:
        Per-cell current [A] (positive = discharge).
    terminal_power_w:
        Power actually delivered at the pack terminals [W] (may be below the
        request if the current limit clipped it).
    heat_w:
        Total heat generated in the pack [W] (Eq. 4 summed over cells).
    chem_energy_j:
        Energy drawn from the cell chemistry, Voc*I*dt summed [J]; this is
        the ``dE_bat`` of the paper's cost function Eq. 19.
    loss_increment_percent:
        Capacity loss added this step [%] (Eq. 5).
    clipped:
        True when the cell-current rating or a C4 SoC bound cut the current
        (the parallel plant hands the residual to the bank).
    """

    cell_current_a: float
    terminal_power_w: float
    heat_w: float
    chem_energy_j: float
    loss_increment_percent: float
    clipped: bool


class BatteryPack:
    """Lumped battery-pack model.

    Parameters
    ----------
    config:
        Series/parallel layout.
    initial_soc_percent:
        Starting SoC [%] (Algorithm 1 initializes at 100).
    initial_temp_k:
        Starting temperature [K] (Algorithm 1 initializes at 298).
    """

    #: Constraint C4 bounds.
    SOC_MIN = 20.0
    SOC_MAX = 100.0

    def __init__(
        self,
        config: PackConfig = DEFAULT_PACK,
        initial_soc_percent: float = 100.0,
        initial_temp_k: float = 298.0,
    ):
        self._config = config
        self._electrical = BatteryElectrical(config.cell)
        self._aging = AgingModel(config.cell)
        self.reset(initial_soc_percent, initial_temp_k)

    # ------------------------------------------------------------------ #
    # accessors

    @property
    def config(self) -> PackConfig:
        """Pack layout."""
        return self._config

    @property
    def electrical(self) -> BatteryElectrical:
        """Cell electrical model (shared with predictive rollouts)."""
        return self._electrical

    @property
    def state(self) -> PackState:
        """Current mutable state."""
        return self._state

    @property
    def soc_percent(self) -> float:
        """State of charge [%]."""
        return self._state.soc_percent

    @property
    def temp_k(self) -> float:
        """Pack temperature [K]."""
        return self._state.temp_k

    @property
    def loss_percent(self) -> float:
        """Accumulated capacity loss [%]."""
        return self._aging.loss_percent

    # The methods below are NumPy ufunc expressions, so the lockstep twin
    # (:class:`BatteryPackVec`) inherits them: a float here, one entry per
    # column there.

    def set_temperature(self, temp_k: float):
        """Update the pack temperature (called by the cooling loop)."""
        if not np.asarray((0 < temp_k) & (temp_k < np.inf)).all():
            raise ValueError(f"temp_k must be a finite positive number, got {temp_k}")
        self._state.temp_k = temp_k

    # ------------------------------------------------------------------ #
    # pack-level electrical quantities

    def cell_voc_res(self) -> tuple[float, float]:
        """Cell Voc [V] (Eq. 2) and R [Ohm] (Eq. 3) at the current state.

        A plant step reads this pair once and hands it to everything that
        step needs of the pack: :meth:`apply_power`, the C6 ceiling
        :meth:`max_discharge_power_w` and the plant's own pack-level
        voltage and resistance.
        """
        soc = self._state.soc_percent
        return (
            self._electrical.open_circuit_voltage(soc),
            self._electrical.internal_resistance(soc, self._state.temp_k),
        )

    def open_circuit_voltage(self) -> float:
        """Pack open-circuit voltage [V] at the current SoC."""
        cell_voc = self._electrical.open_circuit_voltage(self._state.soc_percent)
        return self._config.series * cell_voc

    def max_discharge_power_w(self, voc, res) -> float:
        """Pack power ceiling [W] at the cell current limit (constraint C6).

        ``voc`` and ``res`` are the cell pair :meth:`cell_voc_res` read.
        """
        per_cell = self._electrical.max_discharge_power(voc, res)
        return np.maximum(0.0, per_cell) * self._config.cell_count

    # ------------------------------------------------------------------ #
    # stepping

    def apply_power(
        self, terminal_power_w: float, dt: float, voc: float, res: float
    ) -> PackStepResult:
        """Draw ``terminal_power_w`` from the pack for ``dt`` seconds.

        ``voc`` and ``res`` are the cell pair :meth:`cell_voc_res` read at
        this state; current, terminal power and heat all derive from it.
        Positive power discharges, negative charges (regen or UC recharge
        routed into the battery is *not* expected here - the HEES router
        decides where regen goes).  Current is clipped at the cell rating;
        SoC is clipped at the C4 bounds (an empty pack delivers nothing).
        Returns the realized step quantities; pack temperature is *not*
        advanced here (the cooling loop owns Eq. 14).
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        cfg = self._config
        state = self._state
        per_cell_power = terminal_power_w / cfg.cell_count

        # plain floats: the scalar body runs faster on them than on NumPy
        # scalars
        voc, res = float(voc), float(res)
        cell_i = self._electrical.current_for_power(per_cell_power, voc, res)
        clipped = False
        limit = cfg.cell.max_current_a
        if cell_i > limit:
            cell_i, clipped = limit, True
        elif cell_i < -limit:
            cell_i, clipped = -limit, True

        # an SoC-floor-limited pack cannot discharge; a full pack cannot charge
        if state.soc_percent <= self.SOC_MIN and cell_i > 0:
            cell_i, clipped = 0.0, True
        if state.soc_percent >= self.SOC_MAX and cell_i < 0:
            cell_i, clipped = 0.0, True

        v_term = voc - cell_i * res
        realized_power = cell_i * v_term * cfg.cell_count

        # Eq. 4 (repro.battery.thermal.heat_generation_w) from the same R
        entropic = cell_i * state.temp_k * cfg.cell.entropy_coeff_v_per_k
        heat_cell = cell_i * cell_i * res + entropic
        heat = max(0.0, heat_cell) * cfg.cell_count

        chem_energy = voc * cell_i * dt * cfg.cell_count
        loss_inc = self._aging.step(cell_i, state.temp_k, dt)

        new_soc = self._electrical.soc_after(state.soc_percent, cell_i, dt)
        state.soc_percent = min(self.SOC_MAX, max(0.0, new_soc))

        return PackStepResult(
            cell_current_a=cell_i,
            terminal_power_w=realized_power,
            heat_w=heat,
            chem_energy_j=chem_energy,
            loss_increment_percent=loss_inc,
            clipped=clipped,
        )

    def reset(self, soc_percent: float = 100.0, temp_k: float = 298.0):
        """Restore initial conditions (fresh route)."""
        check_in_range(soc_percent, 0.0, 100.0, "soc_percent")
        check_positive(temp_k, "temp_k")
        self._state = PackState(soc_percent=soc_percent, temp_k=temp_k)
        self._aging.reset()


# ---------------------------------------------------------------------- #
# lockstep (struct-of-arrays) twin


class BatteryPackVec(BatteryPack):
    """Struct-of-arrays battery pack advancing M scenarios in lockstep.

    All M packs share one :class:`PackConfig`; the :class:`PackState`
    holds one SoC and one temperature entry per column (``initial_*`` take
    arrays), and the aging model one accumulated loss per column.  The
    constructor and every query are inherited from :class:`BatteryPack`;
    :meth:`reset` builds the columns and :meth:`apply_power` mirrors the
    scalar step expression-for-expression (same operation order, branches
    as masks) so each column evolves bitwise-identically to a scalar run.
    """

    def reset(self, soc_percent, temp_k):
        """Restore per-column initial conditions (fresh routes)."""
        soc, temp = np.broadcast_arrays(
            np.asarray(soc_percent, dtype=float), np.asarray(temp_k, dtype=float)
        )
        self._state = PackState(soc_percent=soc.copy(), temp_k=temp.copy())
        self._aging.reset()

    def apply_power(
        self, terminal_power_w: np.ndarray, dt: float, voc, res
    ) -> PackStepResult:
        """Vectorized :meth:`BatteryPack.apply_power` over all columns."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        cfg = self._config
        state = self._state
        soc, temp = state.soc_percent, state.temp_k
        per_cell_power = terminal_power_w / cfg.cell_count

        # current_for_power, elementwise: physical root of I(Voc - I R) = P,
        # capped at the maximum-power point when the demand exceeds it
        disc = voc * voc - 4.0 * res * per_cell_power
        root = np.sqrt(np.maximum(disc, 0.0))
        cell_i = np.where(
            disc < 0.0, voc / (2.0 * res), (voc - root) / (2.0 * res)
        )
        cell_i = np.where(np.abs(per_cell_power) < 1e-12, 0.0, cell_i)

        limit = cfg.cell.max_current_a
        clipped = (cell_i > limit) | (cell_i < -limit)
        cell_i = np.clip(cell_i, -limit, limit)

        # an SoC-floor-limited pack cannot discharge; a full pack cannot charge
        floor_block = (soc <= self.SOC_MIN) & (cell_i > 0)
        ceil_block = (soc >= self.SOC_MAX) & (cell_i < 0)
        blocked = floor_block | ceil_block
        clipped = clipped | blocked
        cell_i = np.where(blocked, 0.0, cell_i)

        v_term = voc - cell_i * res
        realized_power = cell_i * v_term * cfg.cell_count

        # Eq. 4 heat with the same R(SoC, T) evaluation as the scalar path
        joule = cell_i**2 * res
        entropic = cell_i * temp * cfg.cell.entropy_coeff_v_per_k
        heat = np.maximum(0.0, joule + entropic) * cfg.cell_count

        chem_energy = voc * cell_i * dt * cfg.cell_count
        loss_inc = self._aging.step(cell_i, temp, dt)

        new_soc = soc - 100.0 * cell_i * dt / ah_to_coulomb(cfg.cell.capacity_ah)
        state.soc_percent = np.minimum(self.SOC_MAX, np.maximum(0.0, new_soc))

        return PackStepResult(
            cell_current_a=cell_i,
            terminal_power_w=realized_power,
            heat_w=heat,
            chem_energy_j=chem_energy,
            loss_increment_percent=loss_inc,
            clipped=clipped,
        )
