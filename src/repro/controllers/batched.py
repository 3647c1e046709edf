"""Lockstep (struct-of-arrays) twins of the simulation controllers.

Each batched policy advances M scenario columns per call and mirrors its
scalar counterpart decision-for-decision: hysteresis latches become boolean
state arrays, mode selection becomes integer-code arrays, and every branch
is re-expressed as a mask over columns.  Because each column's state update
uses exactly the scalar expressions, a column of a lockstep run matches the
corresponding scalar run bitwise.

The four baselines (:data:`BATCHED_CONTROLLERS`) are closed-form per step.
:class:`BatchedOTEM` is the MPC twin: it replans every column's horizon in
one :class:`repro.core.mpc.MPCPlannerVec` wave, so OTEM ensembles ride the
lockstep engine too - provided every scenario runs the vectorized rollout
backend (a lockstep OTEM column is equivalent to the scalar engine with
``rollout_backend="vectorized"``, not to the scalar-backend reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.controllers.base import Architecture
from repro.cooling.coolant import DEFAULT_COOLANT, CoolantParams
from repro.hees.dual import DualHEESVec


@dataclass(frozen=True)
class BatchDecision:
    """Vectorized :class:`repro.controllers.base.Decision`.

    Attributes
    ----------
    cap_bus_w:
        Hybrid architecture: per-column ultracap bus-power commands [W].
    dual_mode:
        Dual architecture: per-column switch codes
        (:attr:`repro.hees.dual.DualHEESVec.MODE_BATTERY` & co.).
    recharge_power_w:
        Dual architecture: per-column battery->bank recharge power [W].
    cooling_active:
        Per-column cooling loop engagement flags.
    inlet_temp_k:
        Commanded coolant inlet temperature [K].  A scalar for the
        baselines (they command the loop's full-cold inlet, uniform
        within a lockstep group because the coolant is a group key); a
        per-column array for :class:`BatchedOTEM`, whose MPC plans a
        different inlet per scenario.
    """

    cap_bus_w: np.ndarray
    dual_mode: np.ndarray
    recharge_power_w: np.ndarray
    cooling_active: np.ndarray
    inlet_temp_k: float | np.ndarray = 298.0


def _zeros_decision(m: int, **overrides) -> BatchDecision:
    base = dict(
        cap_bus_w=np.zeros(m),
        dual_mode=np.full(m, DualHEESVec.MODE_BATTERY, dtype=np.int64),
        recharge_power_w=np.zeros(m),
        cooling_active=np.zeros(m, dtype=bool),
    )
    base.update(overrides)
    return BatchDecision(**base)


class BatchedParallelPassive:
    """Lockstep twin of :class:`ParallelPassiveController` (no-op)."""

    name = "Parallel [15]"
    architecture = Architecture.PARALLEL
    uses_cooling = False

    def __init__(self):
        self._m = 0

    def reset(self, m: int) -> None:
        """Size the (stateless) policy for ``m`` columns."""
        self._m = m

    def control(
        self,
        request_w: np.ndarray,
        battery_temp_k: np.ndarray,
        cap_soe_percent: np.ndarray,
    ) -> BatchDecision:
        """No commands: the circuit does everything."""
        return _zeros_decision(self._m)


class BatchedCoolingOnly:
    """Lockstep twin of :class:`CoolingOnlyController`."""

    name = "Cooling [25]"
    architecture = Architecture.BATTERY_ONLY
    uses_cooling = True

    def __init__(
        self,
        temp_on_k: float = 299.15,
        temp_off_k: float = 296.15,
        coolant: CoolantParams = DEFAULT_COOLANT,
    ):
        if temp_off_k >= temp_on_k:
            raise ValueError("temp_off_k must be below temp_on_k (hysteresis)")
        self._on = temp_on_k
        self._off = temp_off_k
        self._coolant = coolant
        self._cooling = np.zeros(0, dtype=bool)

    def reset(self, m: int) -> None:
        """Disengage every column's thermostat."""
        self._cooling = np.zeros(m, dtype=bool)

    def control(
        self,
        request_w: np.ndarray,
        battery_temp_k: np.ndarray,
        cap_soe_percent: np.ndarray,
    ) -> BatchDecision:
        """Per-column hysteresis thermostat on battery temperature."""
        was_on = self._cooling
        turn_off = was_on & (battery_temp_k <= self._off)
        turn_on = ~was_on & (battery_temp_k >= self._on)
        self._cooling = (was_on & ~turn_off) | turn_on
        return _zeros_decision(
            len(was_on),
            cooling_active=self._cooling.copy(),
            inlet_temp_k=self._coolant.min_inlet_temp_k,
        )


class BatchedDualThreshold:
    """Lockstep twin of :class:`DualThresholdController`."""

    name = "Dual [16]"
    architecture = Architecture.DUAL
    uses_cooling = False

    def __init__(
        self,
        temp_switch_k: float = 307.15,
        temp_resume_k: float = 303.15,
        soe_floor_percent: float = 22.0,
        soe_target_percent: float = 95.0,
        recharge_power_w: float = 3_000.0,
        recharge_temp_max_k: float = 306.15,
    ):
        if temp_resume_k >= temp_switch_k:
            raise ValueError("temp_resume_k must be below temp_switch_k")
        if not 0.0 <= soe_floor_percent < soe_target_percent <= 100.0:
            raise ValueError("need 0 <= soe_floor < soe_target <= 100")
        self._t_switch = temp_switch_k
        self._t_resume = temp_resume_k
        self._soe_floor = soe_floor_percent
        self._soe_target = soe_target_percent
        self._recharge_w = recharge_power_w
        self._recharge_t_max = recharge_temp_max_k
        self._on_cap = np.zeros(0, dtype=bool)

    def reset(self, m: int) -> None:
        """Return every column's switch to the battery position."""
        self._on_cap = np.zeros(m, dtype=bool)

    def control(
        self,
        request_w: np.ndarray,
        battery_temp_k: np.ndarray,
        cap_soe_percent: np.ndarray,
    ) -> BatchDecision:
        """Per-column threshold switching with SoE guard and recharge."""
        was_on = self._on_cap
        leave = was_on & (
            (battery_temp_k <= self._t_resume)
            | (cap_soe_percent <= self._soe_floor)
        )
        enter = (
            ~was_on
            & (battery_temp_k >= self._t_switch)
            & (cap_soe_percent > self._soe_floor)
        )
        self._on_cap = (was_on & ~leave) | enter

        recharging = (
            ~self._on_cap
            & (cap_soe_percent < self._soe_target)
            & (battery_temp_k < self._recharge_t_max)
        )
        mode = np.where(
            self._on_cap,
            DualHEESVec.MODE_ULTRACAP,
            np.where(
                recharging, DualHEESVec.MODE_RECHARGE, DualHEESVec.MODE_BATTERY
            ),
        )
        recharge = np.where(recharging, self._recharge_w, 0.0)
        return _zeros_decision(
            len(was_on), dual_mode=mode, recharge_power_w=recharge
        )


class BatchedHybridHeuristic:
    """Lockstep twin of :class:`HybridHeuristicController`."""

    name = "Heuristic hybrid"
    architecture = Architecture.HYBRID
    uses_cooling = True

    def __init__(
        self,
        smoothing: float = 0.05,
        recharge_power_w: float = 6_000.0,
        soe_target_percent: float = 90.0,
        temp_on_k: float = 302.15,
        temp_off_k: float = 299.15,
        coolant: CoolantParams = DEFAULT_COOLANT,
    ):
        if temp_off_k >= temp_on_k:
            raise ValueError("temp_off_k must be below temp_on_k (hysteresis)")
        self._alpha = smoothing
        self._recharge_w = recharge_power_w
        self._soe_target = soe_target_percent
        self._t_on = temp_on_k
        self._t_off = temp_off_k
        self._coolant = coolant
        self._ema_w: np.ndarray | None = None
        self._cooling = np.zeros(0, dtype=bool)

    def reset(self, m: int) -> None:
        """Clear every column's EMA and disengage the thermostats."""
        self._ema_w = None
        self._cooling = np.zeros(m, dtype=bool)

    def control(
        self,
        request_w: np.ndarray,
        battery_temp_k: np.ndarray,
        cap_soe_percent: np.ndarray,
    ) -> BatchDecision:
        """Shave peaks above the EMA; thermostat the cooler, per column.

        All columns start the route together, so the scalar policy's
        first-call EMA seeding happens batch-wide on step 0.
        """
        if self._ema_w is None:
            self._ema_w = np.maximum(request_w, 0.0).astype(float)
        else:
            self._ema_w = self._ema_w + self._alpha * (request_w - self._ema_w)

        surplus = request_w - self._ema_w
        recharge_bus = -np.minimum(
            self._recharge_w, np.maximum(0.0, -surplus)
        )
        cap_bus = np.where(
            surplus > 0,
            surplus,
            np.where(cap_soe_percent < self._soe_target, recharge_bus, 0.0),
        )

        was_on = self._cooling
        turn_off = was_on & (battery_temp_k <= self._t_off)
        turn_on = ~was_on & (battery_temp_k >= self._t_on)
        self._cooling = (was_on & ~turn_off) | turn_on

        return _zeros_decision(
            len(was_on),
            cap_bus_w=cap_bus,
            cooling_active=self._cooling.copy(),
            inlet_temp_k=self._coolant.min_inlet_temp_k,
        )


class BatchedOTEM:
    """Lockstep twin of :class:`repro.core.otem.OTEMController`.

    Where the baseline twins are stateless formulas over columns, this one
    carries the full receding-horizon machinery: per-column prediction
    models (the bank energy may differ per scenario), a shared replan
    cadence, move blocking, and the per-step cooling mask - each mirroring
    the scalar controller expression-for-expression.  The S horizon
    problems of a replan wave are solved in lockstep by
    :class:`repro.core.mpc.MPCPlannerVec`, whose plans are equivalent to
    per-scenario ``MPCPlanner(rollout_backend="vectorized")`` solves; a
    column of a lockstep OTEM run therefore matches the scalar engine
    running that scenario with the vectorized rollout backend.

    Unlike the baseline twins, the MPC needs route context before the
    step loop: call :meth:`begin_route` with the group's (zero-padded)
    power matrix, then :meth:`control_mpc` once per step.
    """

    name = "OTEM"
    architecture = Architecture.HYBRID
    uses_cooling = True
    #: engine marker: this twin takes the full state via control_mpc()
    is_mpc = True

    @classmethod
    def from_scenarios(cls, scenarios) -> "BatchedOTEM":
        """Build the twin for a lockstep group of OTEM scenarios.

        Every scenario contributes its own prediction model (its bank
        energy); the solver shape (horizon, step, budget, weights) is
        shared - the lockstep grouping key guarantees it.
        """
        # imported here: repro.core pulls in repro.sim, which circles back
        # to this module through the lockstep engine
        from repro.core.mpc import MPCPlannerVec
        from repro.core.otem import prediction_model

        first = scenarios[0]
        models = [
            prediction_model(s.pack, s.cap_params(), s.coolant, s.weights)
            for s in scenarios
        ]
        planner = MPCPlannerVec(
            models,
            horizon=first.mpc_horizon,
            step_s=first.mpc_step_s,
            max_function_evals=first.mpc_max_evals,
        )
        return cls(planner)

    def __init__(self, planner: MPCPlannerVec):
        self._planner = planner
        self._m = planner.scenarios
        self._power_ext: np.ndarray | None = None
        self._dt = 0.0
        self._per_bin = 1
        self._needed = 0
        self._preview_steps = 0
        self._steps_per_replan = 1
        self._plan_k = -1
        self._cap0: np.ndarray | None = None
        self._inlet0: np.ndarray | None = None

    @property
    def planner(self) -> MPCPlannerVec:
        """The underlying lockstep MPC planner."""
        return self._planner

    def solver_stats(self) -> tuple:
        """Per-column :class:`repro.core.mpc.SolverStats`, input order."""
        return self._planner.stats

    def reset(self, m: int) -> None:
        """Forget every column's plan and warm start (fresh route)."""
        if m != self._m:
            raise ValueError(
                f"BatchedOTEM was built for {self._m} scenarios, got {m}"
            )
        self._planner.reset()
        self._power_ext = None
        self._plan_k = -1
        self._cap0 = None
        self._inlet0 = None

    def begin_route(
        self,
        power: np.ndarray,
        dt: float,
        lengths: np.ndarray | None = None,
    ) -> None:
        """Store the route's power matrix and derive the replan geometry.

        Parameters
        ----------
        power:
            ``(T, M)`` per-column power requests [W], zero-padded to the
            longest route (the lockstep engine's layout).  Zero padding
            matches ``PowerRequest.window``'s past-the-end behaviour, so
            ragged columns see exactly the scalar preview.
        dt:
            Plant sample period [s].
        lengths:
            Per-column true route lengths [steps] (default: ``T`` for
            all).  A column replans only while ``step < length`` - the
            scalar engine stops at its own route end, so solves in the
            padded tail would diverge from the per-scenario reference.
        """
        if power.ndim != 2 or power.shape[1] != self._m:
            raise ValueError(f"power must be (T, {self._m}), got {power.shape}")
        t_max = power.shape[0]
        if lengths is None:
            self._lengths = np.full(self._m, t_max)
        else:
            self._lengths = np.asarray(lengths, dtype=int)
            if self._lengths.shape != (self._m,):
                raise ValueError(
                    f"lengths must be ({self._m},), got {self._lengths.shape}"
                )
        n = self._planner.horizon
        step_s = self._planner.step_s
        self._dt = dt
        self._per_bin = max(1, int(round(step_s / dt)))
        self._needed = self._per_bin * n
        self._preview_steps = int(np.ceil(n * step_s / dt))
        self._steps_per_replan = max(1, int(round(step_s / dt)))
        # zero-extend so a preview slice near the route end never runs
        # short (mirrors PowerRequest.window + _aggregate_preview padding)
        ext = np.zeros((t_max + self._preview_steps, self._m))
        ext[:t_max] = power
        self._power_ext = ext
        self._plan_k = -1
        self._cap0 = None
        self._inlet0 = None

    def control_mpc(
        self,
        step_index: int,
        battery_temp_k: np.ndarray,
        coolant_temp_k: np.ndarray,
        soc_percent: np.ndarray,
        soe_percent: np.ndarray,
    ) -> BatchDecision:
        """Receding-horizon control with move blocking, all columns at once.

        Mirrors :meth:`repro.core.otem.OTEMController.control`: replan on
        the shared cadence, hold each column's first-step commands until
        the next replan, and re-evaluate the cooling mask *every* step
        against the current coolant temperature.
        """
        if self._power_ext is None:
            raise RuntimeError("call begin_route() before control_mpc()")
        m = self._m
        n = self._planner.horizon
        due = (
            self._cap0 is None
            or (step_index - self._plan_k) >= self._steps_per_replan
        )
        # ragged groups: a column past its own route end keeps its stale
        # plan (those trace rows are truncated) so its solve sequence
        # matches the scalar engine's exactly
        active = np.flatnonzero(step_index < self._lengths)
        if due and active.size:
            if self._cap0 is None:
                self._cap0 = np.zeros(m)
                self._inlet0 = np.asarray(coolant_temp_k, dtype=float).copy()
            # coarse preview: window -> pad/truncate to per_bin*n -> bin
            # means.  The (m_active, n, per_bin) layout reduces the
            # innermost contiguous axis, the same pairwise summation the
            # scalar (n, per_bin) mean performs per element.
            span = min(self._needed, self._preview_steps)
            fine = np.zeros((active.size, self._needed))
            window = self._power_ext[step_index : step_index + span]
            fine[:, :span] = window[:, active].T
            coarse = fine.reshape(active.size, n, self._per_bin).mean(axis=2)
            states = np.column_stack(
                [battery_temp_k, coolant_temp_k, soc_percent, soe_percent]
            )[active]
            plans = self._planner.plan_batch(states, coarse, indices=active)
            self._cap0[active] = [float(p.cap_bus_w[0]) for p in plans]
            self._inlet0[active] = [float(p.inlet_temp_k[0]) for p in plans]
            self._plan_k = step_index

        # cooling engages only where the plan asks for a colder inlet; a
        # hair below T_c means "pump only" (per column, per step)
        cooling = self._inlet0 < coolant_temp_k - 0.05
        inlet = np.where(cooling, self._inlet0, coolant_temp_k)
        return BatchDecision(
            cap_bus_w=self._cap0.copy(),
            dual_mode=np.full(m, DualHEESVec.MODE_BATTERY, dtype=np.int64),
            recharge_power_w=np.zeros(m),
            cooling_active=np.ones(m, dtype=bool),
            inlet_temp_k=inlet,
        )


#: methodology name -> batched policy factory (baselines only)
BATCHED_CONTROLLERS = {
    "parallel": lambda coolant: BatchedParallelPassive(),
    "cooling": lambda coolant: BatchedCoolingOnly(coolant=coolant),
    "dual": lambda coolant: BatchedDualThreshold(),
    "heuristic": lambda coolant: BatchedHybridHeuristic(coolant=coolant),
}


def build_batched_controller(methodology: str, coolant: CoolantParams):
    """Instantiate the batched policy for a baseline methodology."""
    try:
        factory = BATCHED_CONTROLLERS[methodology]
    except KeyError:
        raise ValueError(
            f"no batched policy for methodology {methodology!r}; "
            f"lockstep supports {sorted(BATCHED_CONTROLLERS)}"
        ) from None
    return factory(coolant)
