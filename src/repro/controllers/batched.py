"""Lockstep (struct-of-arrays) twins of the simulation controllers.

Each batched policy advances M scenario columns per call and mirrors its
scalar counterpart decision-for-decision: hysteresis latches become boolean
state arrays, mode selection becomes arrays of
:class:`~repro.hees.dual.DualMode` codes, and every branch is re-expressed
as a mask over columns.  Because each column's state update uses exactly
the scalar expressions, a column of a lockstep run matches the
corresponding scalar run bitwise.

A twin speaks the scalar policies' interface: ``control`` takes an
:class:`~repro.controllers.base.Observation` whose fields are columns and
returns a :class:`~repro.controllers.base.Decision` whose fields are
columns where the columns disagree and scalar defaults, which broadcast,
where they do not.

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

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.controllers.base import Decision, Observation
from repro.hees.dual import DualMode

if TYPE_CHECKING:
    from repro.core.mpc import MPCPlannerVec
    from repro.core.otem import OTEMController


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
        """Nothing to clear: the policy is stateless."""

    def control(self, obs: Observation) -> Decision:
        """No commands: the circuit does everything."""
        return Decision()


class BatchedCoolingOnly(_BaselineTwin):
    """Lockstep twin of :class:`CoolingOnlyController`."""

    def reset(self, m: int) -> None:
        """Disengage every column's thermostat."""
        self._cooling = np.zeros(m, dtype=bool)

    def control(self, obs: Observation) -> Decision:
        """Per-column hysteresis thermostat on battery temperature."""
        p = self._policy
        self._cooling = _hysteresis(self._cooling, obs.battery_temp_k, p._on, p._off)
        return Decision(
            cooling_active=self._cooling.copy(),
            inlet_temp_k=p._coolant.min_inlet_temp_k,
        )


class BatchedDualThreshold(_BaselineTwin):
    """Lockstep twin of :class:`DualThresholdController`."""

    def reset(self, m: int) -> None:
        """Return every column's switch to the battery position."""
        self._on_cap = np.zeros(m, dtype=bool)

    def control(self, obs: Observation) -> Decision:
        """Per-column threshold switching with SoE guard and recharge."""
        p = self._policy
        temp, soe = obs.battery_temp_k, obs.cap_soe_percent
        was_on = self._on_cap
        leave = was_on & ((temp <= p._t_resume) | (soe <= p._soe_floor))
        enter = ~was_on & (temp >= p._t_switch) & (soe > p._soe_floor)
        self._on_cap = (was_on & ~leave) | enter

        recharging = (
            ~self._on_cap & (soe < p._soe_target) & (temp < p._recharge_t_max)
        )
        # plain-int codes: NumPy converts an IntEnum member several
        # times slower than an int
        mode = np.where(
            self._on_cap,
            DualMode.ULTRACAP.value,
            np.where(recharging, DualMode.RECHARGE.value, DualMode.BATTERY.value),
        )
        recharge = np.where(recharging, p._recharge_w, 0.0)
        return Decision(dual_mode=mode, recharge_power_w=recharge)


class BatchedHybridHeuristic(_BaselineTwin):
    """Lockstep twin of :class:`HybridHeuristicController`."""

    def reset(self, m: int) -> None:
        """Clear every column's EMA and disengage the thermostats."""
        self._ema_w: np.ndarray | None = None
        self._cooling = np.zeros(m, dtype=bool)

    def control(self, obs: Observation) -> Decision:
        """Shave peaks above the EMA; thermostat the cooler, per column.

        All columns start the route together, so the scalar policy's
        first-call EMA seeding happens batch-wide on step 0.
        """
        p = self._policy
        request_w = obs.power_request_w
        if self._ema_w is None:
            self._ema_w = np.maximum(request_w, 0.0).astype(float)
        else:
            self._ema_w = self._ema_w + p._alpha * (request_w - self._ema_w)

        surplus = request_w - self._ema_w
        recharge_bus = -np.minimum(p._recharge_w, np.maximum(0.0, -surplus))
        cap_bus = np.where(
            surplus > 0,
            surplus,
            np.where(obs.cap_soe_percent < p._soe_target, recharge_bus, 0.0),
        )
        self._cooling = _hysteresis(
            self._cooling, obs.battery_temp_k, p._t_on, p._t_off
        )
        return Decision(
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

    The twin reads each column's window from the observation's rows of
    the route with the scalar controller's own
    :meth:`~repro.core.otem.OTEMController._aggregate_preview`.  Ragged
    groups: a column replans only while the step lies inside its own route
    (``lengths``), as the scalar engine stops there.
    """

    def __init__(
        self, controllers: Sequence[OTEMController], lengths: Sequence[int]
    ):
        """Build the twin from the group's scalar controllers.

        Each controller contributes its planner (its bank energy); the
        solver shape is shared, and :class:`repro.core.mpc.MPCPlannerVec`
        refuses planners that do not share it.  ``lengths`` holds each
        column's route length in steps.
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
        self._lengths = np.asarray(lengths, dtype=np.int64)
        if self._lengths.shape != (self._m,):
            raise ValueError(
                f"lengths must be ({self._m},), got {self._lengths.shape}"
            )
        self.reset(self._m)

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
        self._plan_k = -1
        self._cap0: np.ndarray | None = None
        self._inlet0: np.ndarray | None = None

    def control(self, obs: Observation) -> Decision:
        """One lockstep step of every column; see :meth:`control_mpc`."""
        return self.control_mpc(obs)

    def control_mpc(self, obs: Observation) -> Decision:
        """Receding-horizon control with move blocking, all columns at once.

        Mirrors :meth:`repro.core.otem.OTEMController.control`: replan on
        the shared cadence, hold each column's first-step commands until
        the next replan, and re-evaluate the cooling mask *every* step
        against the current coolant temperature.  (The step body keeps
        this name apart from :meth:`control` because perfbench's span
        probes wrap it by name.)
        """
        m = self._m
        due = (
            self._cap0 is None
            or (obs.step_index - self._plan_k) >= self._policy._steps_per_bin(obs.dt)
        )
        # ragged groups: a column past its own route end keeps its stale
        # plan (those trace rows are truncated) so its solve sequence
        # matches the scalar engine's exactly
        active = np.flatnonzero(obs.step_index < self._lengths)
        if due and active.size:
            if self._cap0 is None:
                self._cap0 = np.zeros(m)
                self._inlet0 = np.asarray(obs.coolant_temp_k, dtype=float).copy()
            coarse = self._policy._aggregate_preview(obs.preview_w, obs.dt)[active]
            states = np.column_stack(
                [
                    obs.battery_temp_k,
                    obs.coolant_temp_k,
                    obs.battery_soc_percent,
                    obs.cap_soe_percent,
                ]
            )[active]
            plans = self._planner.plan_batch(states, coarse, indices=active)
            self._cap0[active] = [float(p.cap_bus_w[0]) for p in plans]
            self._inlet0[active] = [float(p.inlet_temp_k[0]) for p in plans]
            self._plan_k = obs.step_index

        # cooling engages only where the plan asks for a colder inlet; a
        # hair below T_c means "pump only" (per column, per step)
        cooling = self._inlet0 < obs.coolant_temp_k - 0.05
        return Decision(
            cap_bus_w=self._cap0.copy(),
            cooling_active=True,
            inlet_temp_k=np.where(cooling, self._inlet0, obs.coolant_temp_k),
        )


#: methodology name -> lockstep twin of its scalar baseline policy
BATCHED_CONTROLLERS = {
    "parallel": BatchedParallelPassive,
    "cooling": BatchedCoolingOnly,
    "dual": BatchedDualThreshold,
    "heuristic": BatchedHybridHeuristic,
}
