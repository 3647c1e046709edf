"""The OTEM MPC optimizer (paper Eq. 18-19, Algorithm 1 line 14).

Single-shooting formulation: the decision vector is the horizon's
ultracapacitor bus-power commands and coolant inlet temperatures
(2N variables, normalized to [0, 1] for conditioning); states are
eliminated by :class:`repro.core.rollout.PredictionModel`.  Input bounds
realize constraints C2/C3/C7; the rollout's hinge penalties realize
C1/C4/C5/C6.  ``scipy.optimize.minimize(L-BFGS-B)`` solves the NLP,
warm-started from the previous plan shifted by one step.

Two rollout backends drive the penalty solver:

* ``"scalar"`` (default) - the reference pure-Python rollout.  One
  :meth:`~repro.core.rollout.PredictionModel.rollout_cost` call per
  L-BFGS-B evaluation returns the cost and the 2N forward-difference
  costs (each perturbed run restarts from the plan's state at its own
  step), and the planner hands scipy that gradient (``jac=True``).  The
  step rule and the budget are scipy's own 2-point ones, so every iterate
  is bit for bit what scipy's internal differences produced
  (tests/core/test_mpc.py::TestScalarGradient).
* ``"vectorized"`` - :class:`repro.core.rollout_vec.BatchPredictionModel`
  evaluates every multi-start candidate's central-difference stencil as
  one batched kernel call per L-BFGS-B ``fun+jac`` round, and the
  multi-start race runs through the lockstep driver of
  :mod:`repro.core.lbfgsb_lockstep` (the objective is block-separable, so
  minimizing the sum over the stacked candidates solves each start).
  Several times faster per solve at the same budget; the scalar model
  stays the semantic reference (see benchmarks/bench_mpc_solver.py).

One function, :func:`_race`, runs that race for any number of planners.
A vectorized :class:`MPCPlanner` is its one-planner case;
:class:`MPCPlannerVec` takes S independent vectorized planners (the
lockstep OTEM columns' own) and runs them in lockstep, every pending
scenario's stencil stacked into one kernel call per round.  Each
scenario's iterate sequence is exactly what its own
``MPCPlanner(rollout_backend="vectorized")`` would produce (same starts,
same budgets, same solver protocol) - the batching changes when
evaluations happen, not what they compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from repro.core.lbfgsb_lockstep import FTOL, GTOL, MAXITER, minimize_lockstep
from repro.core.rollout import PredictionModel, RolloutResult
from repro.core.rollout_vec import BatchPredictionModel
from repro.utils.validation import check_count, check_positive


@dataclass(frozen=True)
class SolverStats:
    """Accumulated optimizer effort over one route (diagnostics).

    Attributes
    ----------
    solves:
        Number of horizon problems solved (one per replan).
    total_iterations:
        Sum of :attr:`MPCPlan.solver_iterations` over all solves.
    last_cost:
        Objective value achieved by the most recent solve (NaN before the
        first solve; serialize via :attr:`last_cost_or_none`).
    backend:
        Rollout backend the planner used (``"scalar"`` or ``"vectorized"``).
    wins_warm / wins_neutral / wins_full_cool:
        How many solves each multi-start candidate won: the shifted
        previous plan (``warm``), the do-nothing plan (``neutral``), or
        the full-cool diversifier (``full_cool``).  Observability for the
        multi-start race: a route where ``wins_warm`` dominates is one
        where warm starts actually pay.
    """

    solves: int
    total_iterations: int
    last_cost: float
    backend: str = "scalar"
    wins_warm: int = 0
    wins_neutral: int = 0
    wins_full_cool: int = 0

    @property
    def last_cost_or_none(self) -> float | None:
        """``last_cost`` with the before-first-solve NaN mapped to ``None``
        (JSON consumers must see ``null``, not the invalid token ``NaN``)."""
        return None if math.isnan(self.last_cost) else self.last_cost


@dataclass(frozen=True)
class MPCPlan:
    """One solved horizon.

    Attributes
    ----------
    cap_bus_w:
        Planned ultracap bus power per horizon step [W].
    inlet_temp_k:
        Planned coolant inlet temperature per horizon step [K].
    predicted:
        Detailed rollout of the optimal plan.
    solver_iterations:
        L-BFGS-B iteration count (diagnostics / ablation benches).
    solver_cost:
        Achieved objective value.
    """

    cap_bus_w: np.ndarray
    inlet_temp_k: np.ndarray
    predicted: RolloutResult
    solver_iterations: int
    solver_cost: float

    @property
    def horizon(self) -> int:
        """Number of steps in the plan."""
        return self.cap_bus_w.size


class MPCPlanner:
    """Solves the OTEM horizon problem.

    Parameters
    ----------
    model:
        The prediction model (physics + objective).
    horizon:
        Control-window length N (steps).
    step_s:
        Horizon step duration [s] (the paper's sampling period, Eq. 17).
    max_function_evals:
        Budget per solve (speed/quality knob, used by the ablation bench).
    method:
        ``"penalty"`` (default): multi-start L-BFGS-B with the state
        constraints as quadratic hinges inside the objective - fast and
        robust.  ``"slsqp"``: SLSQP with C1/C4/C5 as *explicit* inequality
        constraints, the literal form of the paper's Eq. 18 - slower, and
        useful for validating the penalty formulation against it
        (benchmarks/bench_ablation_solver.py).
    rollout_backend:
        ``"scalar"`` (default) keeps the reference pure-Python rollout;
        ``"vectorized"`` switches the penalty solver onto the batched
        NumPy kernel with a batched central-difference gradient (see
        module docstring).  The SLSQP method always uses the scalar model.
    """

    #: Supported solver formulations.
    METHODS = ("penalty", "slsqp")

    #: Supported rollout backends.
    BACKENDS = ("scalar", "vectorized")

    #: Finite-difference step in normalized coordinates: the scalar
    #: path's forward step (backward where it would pass the upper bound)
    #: and the vectorized path's central step.
    FD_EPS = 3e-3

    def __init__(
        self,
        model: PredictionModel,
        horizon: int = 12,
        step_s: float = 5.0,
        max_function_evals: int = 150,
        method: str = "penalty",
        rollout_backend: str = "scalar",
    ):
        check_count(horizon, "horizon")
        check_positive(step_s, "step_s")
        check_count(max_function_evals, "max_function_evals")
        if method not in self.METHODS:
            raise ValueError(f"method must be one of {self.METHODS}, got {method!r}")
        if rollout_backend not in self.BACKENDS:
            raise ValueError(
                f"rollout_backend must be one of {self.BACKENDS}, "
                f"got {rollout_backend!r}"
            )
        self._method = method
        self._backend = rollout_backend
        self._model = model
        self._vec_model = (
            BatchPredictionModel.from_scalar(model)
            if rollout_backend == "vectorized"
            else None
        )
        self._n = horizon
        self._dt = step_s
        # decision bounds: the ultracap bus command within the bank/converter
        # rating, the commanded inlet within a fixed span [K] (the rollout
        # further clamps it by the dynamic C2/C3 limits)
        self._cap_lo, self._cap_hi = -model.cap_pmax, model.cap_pmax
        self._inlet_lo, self._inlet_hi = 288.15, 312.0
        # denormalization scale factors, hoisted out of the solve closures
        self._cap_scale = self._cap_hi - self._cap_lo
        self._inlet_scale = self._inlet_hi - self._inlet_lo
        self._maxfun = max_function_evals
        self._last_z: np.ndarray | None = None
        self._solves = 0
        self._total_iterations = 0
        self._last_cost = float("nan")
        self._wins = {"warm": 0, "neutral": 0, "full_cool": 0}

    @property
    def horizon(self) -> int:
        """Control-window length N."""
        return self._n

    @property
    def step_s(self) -> float:
        """Horizon step duration [s]."""
        return self._dt

    @property
    def rollout_backend(self) -> str:
        """The configured rollout backend (``"scalar"``/``"vectorized"``)."""
        return self._backend

    @property
    def stats(self) -> SolverStats:
        """Optimizer effort accumulated since the last :meth:`reset`."""
        return SolverStats(
            solves=self._solves,
            total_iterations=self._total_iterations,
            last_cost=self._last_cost,
            backend=self._backend,
            wins_warm=self._wins["warm"],
            wins_neutral=self._wins["neutral"],
            wins_full_cool=self._wins["full_cool"],
        )

    # ------------------------------------------------------------------ #

    def _denormalize(self, z: np.ndarray) -> tuple:
        n = self._n
        cap = self._cap_lo + z[:n] * self._cap_scale
        inlet = self._inlet_lo + z[n:] * self._inlet_scale
        return cap, inlet

    def _initial_guess(self, coolant_temp_k: float) -> np.ndarray:
        """Neutral plan: no ultracap use, no cooling (inlet at T_c)."""
        n = self._n
        z = np.empty(2 * n)
        z[:n] = (0.0 - self._cap_lo) / (self._cap_hi - self._cap_lo)
        inlet_neutral = min(max(coolant_temp_k, self._inlet_lo), self._inlet_hi)
        z[n:] = (inlet_neutral - self._inlet_lo) / (self._inlet_hi - self._inlet_lo)
        return z

    def _full_cool_guess(self) -> np.ndarray:
        """Aggressive plan: no ultracap use, coldest inlet every step."""
        n = self._n
        z = np.empty(2 * n)
        z[:n] = (0.0 - self._cap_lo) / (self._cap_hi - self._cap_lo)
        z[n:] = 0.0
        return z

    def _warm_start(self) -> np.ndarray:
        """The previous plan shifted one step left (needs a previous plan)."""
        n = self._n
        z = self._last_z.copy()
        # shift both input blocks one step left, repeating the tail
        z[: n - 1] = z[1:n]
        z[n : 2 * n - 1] = z[n + 1 :]
        return np.clip(z, 0.0, 1.0)

    def reset(self):
        """Forget the warm start and the effort counters (fresh route)."""
        self._last_z = None
        self._solves = 0
        self._total_iterations = 0
        self._last_cost = float("nan")
        self._wins = {"warm": 0, "neutral": 0, "full_cool": 0}

    def _starts(self, coolant_temp_k: float) -> list:
        """The solve's seeds, as ``[(label, z0, budget), ...]``.

        The clamp/hinge kinks can stall a single L-BFGS-B run, so every
        solve races two structured plans (see
        tests/core/test_mpc.py::test_multistart_escapes_stall).  A cold
        solve races the neutral plan against the full-cool plan, both at
        the full evaluation budget.  A warm solve races the shifted
        previous plan (full budget) against the neutral plan at half
        budget: the previous plan already carries the cooling schedule
        the full-cool seed exists to provide, and the diversifier only
        has to beat the warm start's basin, not polish within its own
        (racing all three seeds at full budget made warm solves ~1.4x
        *slower* than cold ones).  SLSQP, a single-start solver, takes
        the first seed.
        """
        neutral = self._initial_guess(coolant_temp_k)
        if self._last_z is None:
            return [
                ("neutral", neutral, self._maxfun),
                ("full_cool", self._full_cool_guess(), self._maxfun),
            ]
        return [
            ("warm", self._warm_start(), self._maxfun),
            ("neutral", neutral, self._maxfun // 2),
        ]

    # ------------------------------------------------------------------ #
    # solver backends

    def _solve_penalty(self, state, preview, step):
        """Multi-start L-BFGS-B on the hinge-penalty objective (scalar).

        Returns ``(z, nit, cost, label)``: the winning decision vector,
        the iterations summed over the starts, its cost, and the label of
        the start it came from.
        """
        model = self._model
        eps = self.FD_EPS

        def objective(z: np.ndarray) -> tuple:
            # scipy's 2-point step on [0, 1]: +eps, or -eps where that
            # would leave the box; divide by the step as represented
            z_step = z + np.where(z + eps > 1.0, -eps, eps)
            cap, inlet = self._denormalize(z)
            cost, stepped = model.rollout_cost(
                state, cap, inlet, preview, step, self._denormalize(z_step)
            )
            return cost, (np.array(stepped) - cost) / (z_step - z)

        best = best_label = None
        iterations = 0
        for label, z0, budget in self._starts(state[1]):
            result = optimize.minimize(
                objective,
                z0,
                jac=True,
                method="L-BFGS-B",
                bounds=[(0.0, 1.0)] * (2 * self._n),
                options={
                    # ``budget`` counts rollouts, 2N+1 per evaluation (the
                    # difference stencil); scipy's ``nfev > maxfun`` stop
                    # then falls after the same evaluation as with its
                    # own differences
                    "maxfun": budget // (2 * self._n + 1),
                    "maxiter": MAXITER,
                    "ftol": FTOL,
                    "gtol": GTOL,
                },
            )
            iterations += int(result.nit)
            if best is None or result.fun < best.fun:
                best = result
                best_label = label
        return best.x, iterations, float(best.fun), best_label

    def _solve_slsqp(self, state, preview, step):
        """SLSQP with C1/C4/C5 as explicit inequality constraints (Eq. 18).

        Objective and constraints share one cached rollout per decision
        vector (SLSQP evaluates them separately, the rollout dominates).
        Returns ``(z, nit, cost, label)`` like :meth:`_solve_penalty`.
        """
        from repro.core.rollout import TEMP_MAX_K

        model = self._model
        n = self._n
        cache = {"key": None, "value": None}

        def evaluate(z):
            key = z.tobytes()
            if cache["key"] != key:
                cap, inlet = self._denormalize(z)
                cache["value"] = model.rollout(state, cap, inlet, preview, step)
                cache["key"] = key
            return cache["value"]

        def objective(z):
            r = evaluate(z)
            return r.objective + r.terminal

        def constraints(z):
            r = evaluate(z)
            temps = np.asarray(r.temps_k[1:])
            socs = np.asarray(r.socs[1:])
            soes = np.asarray(r.soes[1:])
            return np.concatenate(
                [
                    TEMP_MAX_K - temps,          # C1
                    socs - 20.0,                 # C4
                    soes - model.soe_min,        # C5 lower
                    model.soe_max - soes,        # C5 upper
                ]
            )

        # single-start solver: the race's first seed (warm if there is one)
        label, z0, _ = self._starts(state[1])[0]
        result = optimize.minimize(
            objective,
            z0,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * (2 * n),
            constraints=[{"type": "ineq", "fun": constraints}],
            options={"maxiter": max(20, self._maxfun // 10), "ftol": 1e-9},
        )
        return result.x, int(result.nit), float(result.fun), label

    def _commit(self, state, preview, step, z, nit, cost, label) -> MPCPlan:
        """Book one finished solve and build its plan.

        Every solver path ends here: the winning decision vector becomes
        the next warm start, the effort counters and win attribution
        advance, and the plan carries the detailed predicted rollout.
        """
        z_opt = np.clip(z, 0.0, 1.0)
        self._last_z = z_opt
        self._solves += 1
        self._total_iterations += nit
        self._last_cost = cost
        self._wins[label] += 1
        cap, inlet = self._denormalize(z_opt)
        return MPCPlan(
            cap_bus_w=cap,
            inlet_temp_k=inlet,
            predicted=self._model.rollout(state, cap, inlet, preview, step),
            solver_iterations=nit,
            solver_cost=cost,
        )

    def plan(self, state: tuple, preview_w: np.ndarray) -> MPCPlan:
        """Solve one horizon.

        Parameters
        ----------
        state:
            (T_b, T_c, SoC, SoE) at the start of the horizon.
        preview_w:
            Predicted EV power per horizon step [W], length >= N (extra
            entries are ignored).
        """
        step = self._dt
        preview = _pad_previews(preview_w, self._n)[0]
        if self._method == "slsqp":
            solved = self._solve_slsqp(state, preview, step)
        elif self._backend == "vectorized":
            states = np.asarray(state, dtype=float)[None, :]
            return _race([self], states, preview[None, :], step)[0]
        else:
            solved = self._solve_penalty(state, preview, step)
        return self._commit(state, preview, step, *solved)


def _pad_previews(previews, n: int) -> np.ndarray:
    """``(S, n)`` previews: extra columns dropped, short rows zero-padded.

    Padded once per solve, as an ndarray - the rollouts index it
    directly, no per-evaluation list copies.
    """
    src = np.atleast_2d(np.asarray(previews, dtype=float))[:, :n]
    if src.shape[1] == n:
        return src
    padded = np.zeros((src.shape[0], n))
    padded[:, : src.shape[1]] = src
    return padded


def _race(planners, states, previews, step) -> list:
    """One lockstep multi-start race per planner; one plan per planner.

    Every planner races its :meth:`MPCPlanner._starts` as one stacked
    L-BFGS-B problem whose objective is the sum of the per-start costs
    (the starts share no variables, so minimizing the sum solves each).
    A ``fun+jac`` round evaluates the central-difference stencil of every
    pending problem's starts - ``2 * (4N+1)`` rows per problem - in a
    single :meth:`~repro.core.rollout_vec.BatchPredictionModel.rollout_costs_stacked`
    call, each row with its own state, preview and bank energy.

    Parameters
    ----------
    planners:
        Vectorized-backend planners sharing one solver shape and one
        batched model (only the bank energy may differ).
    states:
        ``(S, 4)`` rows of (T_b, T_c, SoC, SoE).
    previews:
        ``(S, N)`` padded previews (see :func:`_pad_previews`).
    step:
        Horizon step duration [s].
    """
    p0 = planners[0]
    vec = p0._vec_model
    ecap = np.array([p._model.ecap for p in planners])
    n = p0._n
    dim = 2 * n
    eps = MPCPlanner.FD_EPS

    # per-planner starts / budgets (warm status may differ per row)
    all_starts = []
    all_labels = []
    rounds = []
    for j, p in enumerate(planners):
        labels, starts, budgets = zip(*p._starts(states[j, 1]))
        all_starts.append(starts)
        all_labels.append(labels)
        s = len(starts)
        # budget parity with the scalar path: there a gradient is charged
        # 2N+1 evaluations of the budget (its stencil's rollouts), so a
        # start with budget b gets b/(2N+1) fun+jac evaluations.  The
        # stacked solve advances every start per round, so the round
        # count is the scalar *total* spread over the s stacked blocks:
        # sum(budgets)/(s*(2N+1)).  A cold solve (both seeds at full
        # budget) gets maxfun/(2N+1) rounds; a warm solve (the diversifier
        # at half budget) gets ~3/4 of that - warm replans are cheaper
        # than cold ones, as on the scalar backend.
        rounds.append(max(4, int(math.ceil(sum(budgets) / (s * (dim + 1))))))
    s = len(all_starts[0])  # always 2 (warm or cold race)
    rows = 2 * dim + 1  # base + forward + backward stencil per block
    offsets = np.zeros((rows, dim))
    idx_d = np.arange(dim)
    offsets[1 + idx_d, idx_d] = eps
    offsets[1 + dim + idx_d, idx_d] = -eps
    x0s = np.stack([np.concatenate(st) for st in all_starts])

    def kernel(blocks: np.ndarray, scen_idx: np.ndarray) -> np.ndarray:
        """Stacked costs for candidate rows tagged with planner ids."""
        cap = p0._cap_lo + blocks[:, :n] * p0._cap_scale
        inlet = p0._inlet_lo + blocks[:, n:] * p0._inlet_scale
        return vec.rollout_costs_stacked(
            states[scen_idx],
            cap,
            inlet,
            previews[scen_idx],
            step,
            ecap=ecap[scen_idx],
        )

    m = len(planners)
    seen_first: list = [None] * m
    seen_z: list = [None] * m
    seen_base: list = [None] * m

    def evaluate(batch: np.ndarray, idx: np.ndarray) -> tuple:
        b = batch.shape[0]
        stencil = batch.reshape(b, s, 1, dim) + offsets
        scen_idx = np.repeat(idx, s * rows)
        costs = kernel(stencil.reshape(b * s * rows, dim), scen_idx)
        costs = costs.reshape(b, s, rows)
        f = np.empty(b)
        grads = np.empty((b, s * dim))
        for r in range(b):
            j = int(idx[r])
            base = costs[r, :, 0].copy()
            if seen_first[j] is None:
                seen_first[j] = base  # the start points' own costs
            seen_z[j], seen_base[j] = batch[r].copy(), base
            grad = (costs[r, :, 1 : 1 + dim] - costs[r, :, 1 + dim :]) / (2.0 * eps)
            f[r] = float(base.sum())
            grads[r] = grad.reshape(s * dim)
        return f, grads

    results = minimize_lockstep(evaluate, x0s, rounds)

    plans = []
    for j, (p, res) in enumerate(zip(planners, results)):
        blocks = np.clip(res.x.reshape(s, dim), 0.0, 1.0)
        # L-BFGS-B guarantees descent of the *sum*, not of every block -
        # race the solved blocks against their own starting points.  Both
        # cost vectors usually come from cached rounds (the x0 round
        # evaluated the starts; the final round usually evaluated res.x).
        if seen_z[j] is not None and np.array_equal(seen_z[j], res.x):
            final_costs = seen_base[j]
        else:
            final_costs = kernel(blocks, np.full(s, j))
        candidates = np.concatenate([blocks, np.asarray(all_starts[j])])
        costs = np.concatenate([final_costs, seen_first[j]])
        winner = int(np.argmin(costs))
        # winner < s is a solved block, winner >= s its unsolved start;
        # either way the originating candidate is winner % s
        plans.append(
            p._commit(
                tuple(states[j]),
                previews[j],
                step,
                candidates[winner],
                int(res.nit),
                float(costs[winner]),
                all_labels[j][winner % s],
            )
        )
    return plans


class MPCPlannerVec:
    """Solves S scenarios' OTEM horizon problems in lockstep.

    One planner per scenario would run S separate races per replan wave;
    this twin hands all S planners to one :func:`_race`, which drives
    their solves simultaneously through the reverse-communication
    L-BFGS-B driver (:mod:`repro.core.lbfgsb_lockstep`), stacking every
    pending scenario's multi-start central-difference stencil into a
    *single* kernel call per round via
    :meth:`repro.core.rollout_vec.BatchPredictionModel.rollout_costs_stacked`.

    Equivalence contract: scenario ``j``'s plans are identical to what
    ``planners[j]`` would produce through :meth:`MPCPlanner.plan` for the
    same replan sequence - same starts, same warm/cold budgets, same
    L-BFGS-B iterate trajectory (the driver is probe-verified bitwise
    against ``optimize.minimize``), same winner race.
    ``tests/core/test_mpc.py::TestBatchedPlanner`` asserts exact equality
    of plan actions, cost, iteration counts and solver stats.

    Parameters
    ----------
    planners:
        One vectorized-backend penalty :class:`MPCPlanner` per scenario
        (an OTEM controller's :attr:`~repro.core.otem.OTEMController.planner`).
        Each keeps its own warm start, counters and win attribution; this
        twin races them jointly and each books its own solve.  They must
        share one solver shape (horizon, step, budget) and their models
        every constant but the ultracapacitor bank energy ``ecap``
        (within a lockstep MPC group only the bank size varies; anything
        else means the group was mis-keyed).
    """

    #: Model constants allowed to vary across the group.
    VARYING_CONSTANTS = frozenset({"ecap"})

    def __init__(self, planners: Sequence[MPCPlanner]):
        if not planners:
            raise ValueError("MPCPlannerVec needs at least one planner")
        p0 = planners[0]
        shape = (p0._n, p0._dt, p0._maxfun, "penalty", "vectorized")
        ref = p0._model.__dict__
        for j, p in enumerate(planners):
            own = (p._n, p._dt, p._maxfun, p._method, p._backend)
            if own != shape:
                raise ValueError(
                    f"planner {j} has solver shape (horizon, step, budget, "
                    f"method, backend) {own}; a lockstep MPC group needs {shape}"
                )
            for key, val in p._model.__dict__.items():
                if key not in self.VARYING_CONSTANTS and not np.all(ref[key] == val):
                    raise ValueError(
                        f"model {j} differs from model 0 in {key!r}; a "
                        "lockstep MPC group may only vary "
                        f"{sorted(self.VARYING_CONSTANTS)}"
                    )
        self._planners = list(planners)

    @property
    def horizon(self) -> int:
        """Control-window length N (shared by the group)."""
        return self._planners[0].horizon

    @property
    def step_s(self) -> float:
        """Horizon step duration [s] (shared by the group)."""
        return self._planners[0].step_s

    @property
    def scenarios(self) -> int:
        """Number of scenarios solved per wave."""
        return len(self._planners)

    @property
    def stats(self) -> tuple:
        """Per-scenario :class:`SolverStats` accumulated so far."""
        return tuple(p.stats for p in self._planners)

    def reset(self):
        """Forget every scenario's warm start and counters."""
        for p in self._planners:
            p.reset()

    def plan_batch(
        self,
        states: np.ndarray,
        previews: np.ndarray,
        indices: np.ndarray | None = None,
    ) -> list:
        """Solve one horizon per (selected) scenario, all in lockstep.

        Parameters
        ----------
        states:
            ``(S, 4)`` rows of (T_b, T_c, SoC, SoE) per solved scenario.
        previews:
            ``(S, >=N)`` predicted EV power per horizon step [W] (extra
            columns ignored, short rows zero-padded - same as
            :meth:`MPCPlanner.plan`).
        indices:
            Optional scenario indices to solve (default: all).  Rows of
            ``states``/``previews`` align with this selection.  Scenarios
            left out keep their warm starts and counters untouched -
            ragged routes replan only while still on route.

        Returns
        -------
        list[MPCPlan]
            One plan per solved scenario, in selection order.
        """
        if indices is None:
            planners = self._planners
        else:
            planners = [self._planners[int(j)] for j in np.asarray(indices).ravel()]
        m = len(planners)
        states = np.asarray(states, dtype=float)
        if states.shape != (m, 4):
            raise ValueError(f"states must be {(m, 4)}, got {states.shape}")
        previews = _pad_previews(previews, self.horizon)
        if previews.shape[0] != m:
            raise ValueError(f"previews must have {m} rows, got {previews.shape[0]}")
        return _race(planners, states, previews, self.step_s)
