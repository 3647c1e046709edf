"""Lockstep (struct-of-arrays) twins of the simulation controllers.

Each batched policy advances M scenario columns per call and mirrors its
scalar counterpart decision-for-decision: hysteresis latches become boolean
state arrays, mode selection becomes integer-code arrays, and every branch
is re-expressed as a mask over columns.  Because each column's state update
uses exactly the scalar expressions, a column of a lockstep run matches the
corresponding scalar run bitwise.

Every twin is built from the scalar controller(s) it mirrors - the ones
:func:`repro.sim.scenario.build_controller` returns - and reads its
parameters, ``name``, ``architecture`` and ``uses_cooling`` from them; the
twins declare no thresholds or solver settings of their own.

The four baselines (:data:`BATCHED_CONTROLLERS`) are closed-form per step,
and each takes the group's one policy.  :class:`BatchedOTEM` is the MPC
twin: it takes every column's :class:`repro.core.otem.OTEMController` and
replans all their horizons in one :class:`repro.core.mpc.MPCPlannerVec`
wave, so OTEM ensembles ride the lockstep engine too - provided every
controller runs the vectorized rollout backend (a lockstep OTEM column is
equivalent to the scalar engine with ``rollout_backend="vectorized"``, not
to the scalar-backend reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.hees.dual import DualHEESVec

if TYPE_CHECKING:
    from repro.core.mpc import MPCPlannerVec
    from repro.core.otem import OTEMController


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


def _hysteresis(
    was_on: np.ndarray, temp_k: np.ndarray, on_k: float, off_k: float
) -> np.ndarray:
    """Per-column thermostat latch: engage at ``on_k``, release at ``off_k``."""
    return (was_on & ~(temp_k <= off_k)) | (~was_on & (temp_k >= on_k))


class _BaselineTwin:
    """Shared shell of the baseline twins.

    A twin is built from the scalar policy it mirrors and reads every
    threshold, its ``name``, ``architecture`` and ``uses_cooling`` from that
    policy, so the scalar class (and its validation) is the one definition
    of each methodology.  A lockstep group needs one policy: the grouping key
    fixes the methodology and the coolant, and nothing else configures a
    baseline.  The twin adds only per-column state, sized by :meth:`reset`.
    """

    def __init__(self, policy):
        self._policy = policy
        self.name = policy.name
        self.architecture = policy.architecture
        self.uses_cooling = policy.uses_cooling
        self.reset(0)


class BatchedParallelPassive(_BaselineTwin):
    """Lockstep twin of :class:`ParallelPassiveController` (no-op)."""

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


class BatchedCoolingOnly(_BaselineTwin):
    """Lockstep twin of :class:`CoolingOnlyController`."""

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
        p = self._policy
        self._cooling = _hysteresis(self._cooling, battery_temp_k, p._on, p._off)
        return _zeros_decision(
            len(self._cooling),
            cooling_active=self._cooling.copy(),
            inlet_temp_k=p._coolant.min_inlet_temp_k,
        )


class BatchedDualThreshold(_BaselineTwin):
    """Lockstep twin of :class:`DualThresholdController`."""

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
        p = self._policy
        was_on = self._on_cap
        leave = was_on & (
            (battery_temp_k <= p._t_resume) | (cap_soe_percent <= p._soe_floor)
        )
        enter = (
            ~was_on
            & (battery_temp_k >= p._t_switch)
            & (cap_soe_percent > p._soe_floor)
        )
        self._on_cap = (was_on & ~leave) | enter

        recharging = (
            ~self._on_cap
            & (cap_soe_percent < p._soe_target)
            & (battery_temp_k < p._recharge_t_max)
        )
        mode = np.where(
            self._on_cap,
            DualHEESVec.MODE_ULTRACAP,
            np.where(
                recharging, DualHEESVec.MODE_RECHARGE, DualHEESVec.MODE_BATTERY
            ),
        )
        recharge = np.where(recharging, p._recharge_w, 0.0)
        return _zeros_decision(
            len(was_on), dual_mode=mode, recharge_power_w=recharge
        )


class BatchedHybridHeuristic(_BaselineTwin):
    """Lockstep twin of :class:`HybridHeuristicController`."""

    def reset(self, m: int) -> None:
        """Clear every column's EMA and disengage the thermostats."""
        self._ema_w: np.ndarray | None = None
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
        p = self._policy
        if self._ema_w is None:
            self._ema_w = np.maximum(request_w, 0.0).astype(float)
        else:
            self._ema_w = self._ema_w + p._alpha * (request_w - self._ema_w)

        surplus = request_w - self._ema_w
        recharge_bus = -np.minimum(p._recharge_w, np.maximum(0.0, -surplus))
        cap_bus = np.where(
            surplus > 0,
            surplus,
            np.where(cap_soe_percent < p._soe_target, recharge_bus, 0.0),
        )
        self._cooling = _hysteresis(self._cooling, battery_temp_k, p._t_on, p._t_off)
        return _zeros_decision(
            len(self._cooling),
            cap_bus_w=cap_bus,
            cooling_active=self._cooling.copy(),
            inlet_temp_k=p._coolant.min_inlet_temp_k,
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

    #: engine marker: this twin takes the full state via control_mpc()
    is_mpc = True

    def __init__(self, controllers: Sequence[OTEMController]):
        """Build the twin from the group's scalar controllers.

        Each controller contributes its planner (its bank energy); the
        solver shape is shared, and :class:`repro.core.mpc.MPCPlannerVec`
        refuses planners that do not share it.
        """
        # imported here: repro.core pulls in repro.sim, which circles back
        # to this module through the lockstep engine
        from repro.core.mpc import MPCPlannerVec

        self._planner = MPCPlannerVec([c.planner for c in controllers])
        if any(c._preview_mode != "perfect" for c in controllers):
            raise ValueError(
                "lockstep OTEM previews the route; persistence-preview "
                "controllers run on the scalar engine"
            )
        self._policy = controllers[0]
        self.name = self._policy.name
        self.architecture = self._policy.architecture
        self.uses_cooling = self._policy.uses_cooling
        self._m = self._planner.scenarios
        self._power_ext: np.ndarray | None = None
        self._per_bin = 1
        self._needed = 0
        self._preview_steps = 0
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
        # one horizon bin is one replan period, as in OTEMController
        self._per_bin = max(1, int(round(self._planner.step_s / dt)))
        self._needed = self._per_bin * self._planner.horizon
        self._preview_steps = self._policy.required_preview_steps(dt)
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
            or (step_index - self._plan_k) >= self._per_bin
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


#: methodology name -> lockstep twin of its scalar baseline policy
BATCHED_CONTROLLERS = {
    "parallel": BatchedParallelPassive,
    "cooling": BatchedCoolingOnly,
    "dual": BatchedDualThreshold,
    "heuristic": BatchedHybridHeuristic,
}
