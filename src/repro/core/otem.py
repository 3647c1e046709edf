"""The OTEM controller (paper Section III, Algorithm 1).

Drives the hybrid HEES architecture plus the active cooling loop.  Every
``mpc_step_s`` of plant time it averages the next ``mpc_step_s x horizon``
of the route into the MPC's coarser horizon bins, solves the Eq. 18-19
program, and then applies the solved first-horizon-step inputs until the
next replan (standard receding-horizon operation with move blocking).
"""

from __future__ import annotations

import numpy as np

from repro.battery.pack import DEFAULT_PACK, PackConfig
from repro.controllers.base import Architecture, Decision, Observation
from repro.cooling.coolant import DEFAULT_COOLANT, CoolantParams
from repro.core.cost import CostWeights
from repro.core.mpc import DEFAULT_MAX_EVALS, MPCPlanner, SolverStats
from repro.core.rollout import PredictionModel
from repro.hees.hybrid import default_battery_converter, default_cap_converter
from repro.ultracap.params import UltracapParams


def prediction_model(
    pack_config: PackConfig,
    cap_params: UltracapParams,
    coolant: CoolantParams,
    weights: CostWeights,
) -> PredictionModel:
    """The MPC's prediction model for one simulated plant.

    The converters come from the plant's own pack layout and bank ratings,
    so they are identical to the plant's defaults and the predictions
    match the simulated HEES.  :class:`OTEMController` builds its model here;
    the lockstep twin (:class:`repro.controllers.batched.BatchedOTEM`)
    races the controllers' own planners, so it shares these models.
    """
    return PredictionModel(
        pack_config,
        cap_params,
        coolant,
        default_battery_converter(pack_config),
        default_cap_converter(cap_params.rated_voltage_v, cap_params.max_power_w),
        weights,
    )


class OTEMController:
    """Optimized Thermal and Energy Management.

    Parameters
    ----------
    pack_config:
        Battery pack layout (must match the simulated plant).
    cap_params:
        Ultracapacitor bank parameters (must match the simulated plant).
    coolant:
        Cooling-loop parameters (must match the simulated plant).
    weights:
        Objective weights (Eq. 19).
    horizon:
        MPC control-window length N (coarse steps).
    mpc_step_s:
        Coarse horizon step duration [s].
    max_function_evals:
        L-BFGS-B evaluations per start of each replan's solve (see
        :class:`repro.core.mpc.MPCPlanner`).
    preview_mode:
        ``"perfect"`` reads the window from the route (the paper's
        assumption: power requests predicted from the drive route);
        ``"persistence"`` holds the current request over the whole window -
        the no-preview ablation (see benchmarks/bench_ablation_preview.py).
    mpc_method:
        Solver formulation, ``"penalty"`` or ``"slsqp"`` (see
        :class:`repro.core.mpc.MPCPlanner`).
    rollout_backend:
        ``"scalar"`` (reference implementation) or ``"vectorized"`` (batched
        NumPy kernel with batched finite-difference gradients - same model
        physics, several times faster per solve; see
        :class:`repro.core.rollout_vec.BatchPredictionModel`).

    Notes
    -----
    The controller replans every ``mpc_step_s`` seconds of plant time; at
    1 Hz plant sampling that is every ``mpc_step_s`` plant steps.  Its
    window is ``horizon`` bins of that many plant steps, taken from the
    observation's rest of the route and zero past the route end.
    """

    name = "OTEM"
    architecture = Architecture.HYBRID
    uses_cooling = True

    def __init__(
        self,
        pack_config: PackConfig = DEFAULT_PACK,
        cap_params: UltracapParams | None = None,
        coolant: CoolantParams = DEFAULT_COOLANT,
        weights: CostWeights | None = None,
        horizon: int = 12,
        mpc_step_s: float = 5.0,
        max_function_evals: int = DEFAULT_MAX_EVALS,
        preview_mode: str = "perfect",
        mpc_method: str = "penalty",
        rollout_backend: str = "scalar",
    ):
        if preview_mode not in ("perfect", "persistence"):
            raise ValueError(
                f"preview_mode must be 'perfect' or 'persistence', got {preview_mode!r}"
            )
        self._preview_mode = preview_mode
        self._pack_config = pack_config
        self._cap_params = cap_params if cap_params is not None else UltracapParams()
        self._coolant = coolant
        self._weights = weights if weights is not None else CostWeights()

        self._planner = MPCPlanner(
            prediction_model(pack_config, self._cap_params, coolant, self._weights),
            horizon=horizon,
            step_s=mpc_step_s,
            max_function_evals=max_function_evals,
            method=mpc_method,
            rollout_backend=rollout_backend,
        )
        self._plan = None
        self._plan_step_index = -1

    # ------------------------------------------------------------------ #

    @property
    def planner(self) -> MPCPlanner:
        """The underlying MPC planner."""
        return self._planner

    @property
    def weights(self) -> CostWeights:
        """Objective weights in use."""
        return self._weights

    def solver_stats(self) -> SolverStats:
        """Optimizer effort since the last :meth:`reset` (the simulator
        attaches this to :class:`repro.sim.engine.SimulationResult`)."""
        return self._planner.stats

    def _steps_per_bin(self, plant_dt: float) -> int:
        """Plant steps per horizon bin (and per replan)."""
        return max(1, int(round(self._planner.step_s / plant_dt)))

    def _aggregate_preview(self, preview_w: np.ndarray, plant_dt: float) -> np.ndarray:
        """Average the window ahead into the MPC's coarse horizon bins.

        Takes the first ``steps_per_bin x horizon`` samples along the last
        axis, zero-padded past the route end, so one route's preview and
        the lockstep engine's rows of them bin alike.  The fresh window is
        C-contiguous, so each bin mean reduces a contiguous run.
        """
        per_bin = self._steps_per_bin(plant_dt)
        n = self._planner.horizon
        preview_w = np.asarray(preview_w, dtype=float)
        span = min(per_bin * n, preview_w.shape[-1])
        fine = np.zeros(preview_w.shape[:-1] + (per_bin * n,))
        fine[..., :span] = preview_w[..., :span]
        return fine.reshape(*preview_w.shape[:-1], n, per_bin).mean(axis=-1)

    def control(self, obs: Observation) -> Decision:
        """Receding-horizon control with move blocking."""
        steps_per_replan = self._steps_per_bin(obs.dt)
        due = (
            self._plan is None
            or (obs.step_index - self._plan_step_index) >= steps_per_replan
        )
        if due:
            if self._preview_mode == "persistence":
                window = steps_per_replan * self._planner.horizon
                fine = np.full(window, float(obs.power_request_w))
            else:
                fine = obs.preview_w
            coarse_preview = self._aggregate_preview(fine, obs.dt)
            state = (
                obs.battery_temp_k,
                obs.coolant_temp_k,
                obs.battery_soc_percent,
                obs.cap_soe_percent,
            )
            self._plan = self._planner.plan(state, coarse_preview)
            self._plan_step_index = obs.step_index

        cap_cmd = float(self._plan.cap_bus_w[0])
        inlet_cmd = float(self._plan.inlet_temp_k[0])
        # cooling engages only when the plan actually asks for a colder
        # inlet; a hair below T_c means "pump only"
        cooling = inlet_cmd < obs.coolant_temp_k - 0.05
        return Decision(
            cap_bus_w=cap_cmd,
            cooling_active=True,
            inlet_temp_k=inlet_cmd if cooling else obs.coolant_temp_k,
        )

    def reset(self):
        """Forget the current plan and warm start (fresh route)."""
        self._plan = None
        self._plan_step_index = -1
        self._planner.reset()
