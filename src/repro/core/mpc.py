"""The OTEM MPC optimizer (paper Eq. 18-19, Algorithm 1 line 14).

Single-shooting formulation: the decision vector is the horizon's
ultracapacitor bus-power commands and coolant inlet temperatures
(2N variables, normalized to [0, 1] for conditioning); states are
eliminated by :class:`repro.core.rollout.PredictionModel`.  Input bounds
realize constraints C2/C3/C7; the rollout's hinge penalties realize
C1/C4/C5/C6.  ``scipy.optimize.minimize(L-BFGS-B)`` solves the NLP,
warm-started from the previous plan shifted by one step.

Two rollout backends drive the penalty solver:

* ``"scalar"`` (default) - the reference pure-Python rollout; scipy
  differentiates it with serial forward differences (2N+1 rollouts per
  gradient).
* ``"vectorized"`` - :class:`repro.core.rollout_vec.BatchPredictionModel`
  evaluates every multi-start candidate's central-difference stencil as
  one batched kernel call per L-BFGS-B ``fun+jac`` round, and the
  multi-start race is a single joint solve over the stacked candidates
  (the objective is block-separable, so minimizing the sum solves each
  start).  Several times faster per solve at the same budget; the scalar
  model stays the semantic reference (see benchmarks/bench_mpc_solver.py).

:class:`MPCPlannerVec` extends the vectorized backend *across scenarios*:
S independent planners replan in lockstep, their multi-start stencils
stacked into one kernel call per L-BFGS-B round via the reverse-
communication driver in :mod:`repro.core.lbfgsb_lockstep`.  Each
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

from repro.core.lbfgsb_lockstep import minimize_lockstep
from repro.core.rollout import PredictionModel, RolloutResult
from repro.core.rollout_vec import BatchPredictionModel


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
    def mean_iterations(self) -> float:
        """Average iterations per solve (0 when nothing was solved)."""
        return self.total_iterations / self.solves if self.solves else 0.0

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
    cap_power_bound_w:
        Symmetric bound on the ultracap bus command [W]; defaults to the
        bank/converter rating from the model.
    inlet_span_k:
        (min, max) commanded inlet temperature [K]; the rollout further
        clamps by the dynamic C2/C3 limits.
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

    #: Finite-difference step of the batched central-difference gradient
    #: (normalized coordinates; matches the scalar path's L-BFGS-B eps).
    FD_EPS = 3e-3

    def __init__(
        self,
        model: PredictionModel,
        horizon: int = 12,
        step_s: float = 5.0,
        cap_power_bound_w: float | None = None,
        inlet_span_k: tuple = (288.15, 312.0),
        max_function_evals: int = 150,
        method: str = "penalty",
        rollout_backend: str = "scalar",
    ):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if step_s <= 0:
            raise ValueError("step_s must be positive")
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
        bound = cap_power_bound_w if cap_power_bound_w is not None else model.cap_pmax
        self._cap_lo, self._cap_hi = -bound, bound
        self._inlet_lo, self._inlet_hi = inlet_span_k
        if self._inlet_lo >= self._inlet_hi:
            raise ValueError("inlet_span_k must be increasing")
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

    def _warm_start(self, coolant_temp_k: float) -> np.ndarray:
        if self._last_z is None:
            return self._initial_guess(coolant_temp_k)
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
        """Multi-start candidate plans for the penalty solver.

        The clamp/hinge kinks can stall a single L-BFGS-B run, so every
        solve races two structured plans (see
        tests/core/test_mpc.py::test_multistart_escapes_stall).  A cold
        solve races the neutral plan against the full-cool plan; a warm
        solve races the shifted previous plan against the neutral plan -
        the previous plan already carries the cooling schedule the
        full-cool seed exists to provide.  Warm solves used to race all
        three at full budget, which made them ~1.4x *slower* than cold
        ones (the warm/cold anomaly BENCH_mpc.json once recorded).
        """
        if self._last_z is None:
            return [self._initial_guess(coolant_temp_k), self._full_cool_guess()]
        return [
            self._warm_start(coolant_temp_k),
            self._initial_guess(coolant_temp_k),
        ]

    def _start_labels(self) -> tuple:
        """Attribution labels for the current :meth:`_starts` candidates."""
        if self._last_z is None:
            return ("neutral", "full_cool")
        return ("warm", "neutral")

    def _budgets(self, n_starts: int) -> list:
        """Per-start function-evaluation budgets (scalar-path parity).

        Cold solves give both structured seeds the full budget; on warm
        solves the diversifier seed (the neutral plan) races at half
        budget - it only has to beat the warm start's basin, not polish
        within its own.  Together with the two-candidate warm race in
        _starts this removes the warm/cold anomaly BENCH_mpc.json used
        to record (warm solves 1.4x slower than cold ones).
        """
        budgets = [self._maxfun] * n_starts
        if self._last_z is not None:
            budgets[1:] = [self._maxfun // 2] * (n_starts - 1)
        return budgets

    # ------------------------------------------------------------------ #
    # solver backends

    def _solve_penalty(self, objective, state, n):
        """Multi-start L-BFGS-B on the hinge-penalty objective (scalar)."""
        starts = self._starts(state[1])
        labels = self._start_labels()
        budgets = self._budgets(len(starts))
        best = None
        best_label = labels[0]
        iterations = 0
        for z0, budget, label in zip(starts, budgets, labels):
            result = optimize.minimize(
                objective,
                z0,
                method="L-BFGS-B",
                bounds=[(0.0, 1.0)] * (2 * n),
                options={
                    "maxfun": budget,
                    "maxiter": 60,
                    "eps": 3e-3,
                    "ftol": 1e-12,
                },
            )
            iterations += int(result.nit)
            if best is None or result.fun < best.fun:
                best = result
                best_label = label
        best.nit = iterations
        self._wins[best_label] += 1
        return best

    def _solve_penalty_batched(self, state, preview, step):
        """One joint L-BFGS-B race over the stacked multi-start candidates.

        The hinge-penalty objective is evaluated by the batched kernel: a
        ``fun+jac`` round costs a *single* rollout-kernel invocation over
        the stacked central-difference stencil of every candidate
        (``S * (4N+1)`` rows), instead of ``2N+1`` serial Python rollouts
        per candidate.  The stacked objective is the sum of the per-block
        costs; blocks share no variables, so minimizing the sum optimizes
        each start, and the best block wins the race.
        """
        n = self._n
        dim = 2 * n
        eps = self.FD_EPS
        vec = self._vec_model
        starts = self._starts(state[1])
        labels = self._start_labels()
        s = len(starts)
        z0 = np.concatenate(starts)
        rows = 2 * dim + 1  # base + forward + backward stencil per block
        offsets = np.zeros((rows, dim))
        idx = np.arange(dim)
        offsets[1 + idx, idx] = eps
        offsets[1 + dim + idx, idx] = -eps

        def block_costs(blocks: np.ndarray) -> np.ndarray:
            cap = self._cap_lo + blocks[:, :n] * self._cap_scale
            inlet = self._inlet_lo + blocks[:, n:] * self._inlet_scale
            return vec.rollout_costs(state, cap, inlet, preview, step)

        seen = {"first": None, "z": None, "base": None}

        def fun_and_grad(z: np.ndarray) -> tuple:
            stencil = z.reshape(s, 1, dim) + offsets
            costs = block_costs(stencil.reshape(s * rows, dim)).reshape(s, rows)
            base = costs[:, 0].copy()
            if seen["first"] is None:
                seen["first"] = base  # the start points' own costs (x0 round)
            seen["z"], seen["base"] = z.copy(), base
            grad = (costs[:, 1 : 1 + dim] - costs[:, 1 + dim :]) / (2.0 * eps)
            return float(base.sum()), grad.reshape(s * dim)

        # budget parity with the scalar path: there one scipy fun
        # evaluation is one rollout and a gradient burns 2N+1 of the
        # maxfun budget, so a start with budget b gets b/(2N+1) fun+jac
        # rounds.  The joint solve advances every start per round, so the
        # round count is the scalar *total* spread over the s stacked
        # blocks: sum(budgets)/(s*(2N+1)).  A cold solve (both seeds at
        # full budget) gets maxfun/(2N+1) rounds; a warm solve (the
        # diversifier at half budget) gets ~3/4 of that - warm replans
        # are cheaper than cold ones, matching the scalar backend instead
        # of the flat 2/s*maxfun/(2N+1) both used to get (the vectorized
        # warm==cold anomaly BENCH_mpc.json once recorded)
        rounds = max(
            4, int(math.ceil(sum(self._budgets(s)) / (s * (dim + 1))))
        )
        result = optimize.minimize(
            fun_and_grad,
            z0,
            method="L-BFGS-B",
            jac=True,
            bounds=[(0.0, 1.0)] * (s * dim),
            options={"maxfun": rounds, "maxiter": 60, "ftol": 1e-12},
        )
        blocks = np.clip(result.x.reshape(s, dim), 0.0, 1.0)
        # L-BFGS-B guarantees descent of the *sum*, not of every block -
        # race the solved blocks against their own starting points.  Both
        # cost vectors usually come from cached fun rounds (the x0 round
        # evaluated the starts; the final round usually evaluated result.x).
        if seen["z"] is not None and np.array_equal(seen["z"], result.x):
            final_costs = seen["base"]
        else:
            final_costs = block_costs(blocks)
        candidates = np.concatenate([blocks, np.asarray(starts)])
        costs = np.concatenate([final_costs, seen["first"]])
        winner = int(np.argmin(costs))
        # winner < s is a solved block, winner >= s its unsolved start;
        # either way the originating candidate is winner % s
        self._wins[labels[winner % s]] += 1
        result.x = candidates[winner]
        result.fun = float(costs[winner])
        return result

    def _solve_slsqp(self, state, preview, step):
        """SLSQP with C1/C4/C5 as explicit inequality constraints (Eq. 18).

        Objective and constraints share one cached rollout per decision
        vector (SLSQP evaluates them separately, the rollout dominates).
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

        result = optimize.minimize(
            objective,
            self._warm_start(state[1]),
            method="SLSQP",
            bounds=[(0.0, 1.0)] * (2 * n),
            constraints=[{"type": "ineq", "fun": constraints}],
            options={"maxiter": max(20, self._maxfun // 10), "ftol": 1e-9},
        )
        # single-start solver: the (possibly warm) seed wins by default
        self._wins["warm" if self._last_z is not None else "neutral"] += 1
        return result

    def plan(self, state: tuple, preview_w: np.ndarray, dt: float | None = None) -> MPCPlan:
        """Solve one horizon.

        Parameters
        ----------
        state:
            (T_b, T_c, SoC, SoE) at the start of the horizon.
        preview_w:
            Predicted EV power per horizon step [W], length >= N (extra
            entries are ignored).
        dt:
            Optional override of the horizon step duration [s].
        """
        n = self._n
        step = self._dt if dt is None else dt
        # pad the preview once, as an ndarray - the rollouts index it
        # directly, no per-evaluation list copies
        src = np.asarray(preview_w, dtype=float)[:n]
        if src.size < n:
            preview = np.zeros(n)
            preview[: src.size] = src
        else:
            preview = src

        model = self._model

        if self._method == "slsqp":
            result = self._solve_slsqp(state, preview, step)
        elif self._backend == "vectorized":
            result = self._solve_penalty_batched(state, preview, step)
        else:

            def objective(z: np.ndarray) -> float:
                cap, inlet = self._denormalize(z)
                return model.rollout_cost(state, cap, inlet, preview, step)

            result = self._solve_penalty(objective, state, n)
        z_opt = np.clip(result.x, 0.0, 1.0)
        self._last_z = z_opt
        self._solves += 1
        self._total_iterations += int(result.nit)
        self._last_cost = float(result.fun)
        cap, inlet = self._denormalize(z_opt)
        predicted = model.rollout(state, cap, inlet, preview, step)
        return MPCPlan(
            cap_bus_w=cap,
            inlet_temp_k=inlet,
            predicted=predicted,
            solver_iterations=int(result.nit),
            solver_cost=float(result.fun),
        )


class MPCPlannerVec:
    """Solves S scenarios' OTEM horizon problems in lockstep.

    One planner per scenario would issue S independent
    ``optimize.minimize`` calls per replan wave; this twin drives all S
    solves simultaneously through the reverse-communication L-BFGS-B
    driver (:mod:`repro.core.lbfgsb_lockstep`), stacking every pending
    scenario's multi-start central-difference stencil into a *single*
    kernel call per round via
    :meth:`repro.core.rollout_vec.BatchPredictionModel.rollout_costs_stacked`.

    Equivalence contract: scenario ``j``'s plans are identical to what a
    private ``MPCPlanner(models[j], ..., rollout_backend="vectorized")``
    would produce for the same replan sequence - same starts, same
    warm/cold budgets, same L-BFGS-B iterate trajectory (the driver is
    probe-verified bitwise against ``optimize.minimize``), same winner
    race.  ``tests/core/test_mpc.py::TestBatchedPlanner`` asserts exact
    equality of plan actions, cost, iteration counts and solver stats.

    Parameters
    ----------
    models:
        One :class:`~repro.core.rollout.PredictionModel` per scenario.
        All models must share every constant except the ultracapacitor
        bank energy ``ecap`` (within a lockstep MPC group only the bank
        size varies; anything else means the group was mis-keyed).
    horizon / step_s / cap_power_bound_w / inlet_span_k / max_function_evals:
        Shared solver shape, as for :class:`MPCPlanner`.
    """

    #: Model constants allowed to vary across the group.
    VARYING_CONSTANTS = frozenset({"ecap"})

    def __init__(
        self,
        models: Sequence[PredictionModel],
        horizon: int = 12,
        step_s: float = 5.0,
        cap_power_bound_w: float | None = None,
        inlet_span_k: tuple = (288.15, 312.0),
        max_function_evals: int = 150,
    ):
        if not models:
            raise ValueError("MPCPlannerVec needs at least one model")
        ref = models[0].__dict__
        for j, mdl in enumerate(models[1:], start=1):
            for key, val in mdl.__dict__.items():
                if key in self.VARYING_CONSTANTS:
                    continue
                if not np.all(ref[key] == val):
                    raise ValueError(
                        f"model {j} differs from model 0 in {key!r}; a "
                        "lockstep MPC group may only vary "
                        f"{sorted(self.VARYING_CONSTANTS)}"
                    )
        # one scalar planner per scenario carries that scenario's warm
        # start, counters, and win attribution; plan_batch() drives their
        # solves jointly and writes the bookkeeping back through them
        self._planners = [
            MPCPlanner(
                mdl,
                horizon=horizon,
                step_s=step_s,
                cap_power_bound_w=cap_power_bound_w,
                inlet_span_k=inlet_span_k,
                max_function_evals=max_function_evals,
                method="penalty",
                rollout_backend="vectorized",
            )
            for mdl in models
        ]
        self._vec = BatchPredictionModel.from_scalar(models[0])
        self._ecap = np.array([mdl.ecap for mdl in models])
        self._n = horizon
        self._dt = step_s

    @property
    def horizon(self) -> int:
        """Control-window length N (shared by the group)."""
        return self._n

    @property
    def step_s(self) -> float:
        """Horizon step duration [s] (shared by the group)."""
        return self._dt

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
        dt: float | None = None,
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
        dt:
            Optional override of the horizon step duration [s].
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
            ecap = self._ecap
        else:
            sel = [int(j) for j in np.asarray(indices).ravel()]
            planners = [self._planners[j] for j in sel]
            ecap = self._ecap[sel]
        m = len(planners)
        n = self._n
        dim = 2 * n
        eps = MPCPlanner.FD_EPS
        step = self._dt if dt is None else dt
        states = np.asarray(states, dtype=float)
        if states.shape != (m, 4):
            raise ValueError(f"states must be {(m, 4)}, got {states.shape}")
        src = np.atleast_2d(np.asarray(previews, dtype=float))[:, :n]
        if src.shape[0] != m:
            raise ValueError(f"previews must have {m} rows, got {src.shape[0]}")
        if src.shape[1] < n:
            previews_p = np.zeros((m, n))
            previews_p[:, : src.shape[1]] = src
        else:
            previews_p = src

        # per-scenario starts / budgets (warm status may differ per row)
        all_starts = []
        all_labels = []
        rounds = []
        for j, p in enumerate(planners):
            starts = p._starts(states[j, 1])
            all_starts.append(starts)
            all_labels.append(p._start_labels())
            s = len(starts)
            rounds.append(
                max(4, int(math.ceil(sum(p._budgets(s)) / (s * (dim + 1)))))
            )
        s = len(all_starts[0])  # always 2 (warm or cold race)
        rows = 2 * dim + 1
        offsets = np.zeros((rows, dim))
        idx_d = np.arange(dim)
        offsets[1 + idx_d, idx_d] = eps
        offsets[1 + dim + idx_d, idx_d] = -eps
        x0s = np.stack([np.concatenate(st) for st in all_starts])

        p0 = planners[0]
        cap_lo, cap_scale = p0._cap_lo, p0._cap_scale
        inlet_lo, inlet_scale = p0._inlet_lo, p0._inlet_scale
        vec = self._vec

        def kernel(blocks: np.ndarray, scen_idx: np.ndarray) -> np.ndarray:
            """Stacked costs for candidate rows tagged with scenario ids."""
            cap = cap_lo + blocks[:, :n] * cap_scale
            inlet = inlet_lo + blocks[:, n:] * inlet_scale
            return vec.rollout_costs_stacked(
                states[scen_idx],
                cap,
                inlet,
                previews_p[scen_idx],
                step,
                ecap=ecap[scen_idx],
            )

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
                grad = (costs[r, :, 1 : 1 + dim] - costs[r, :, 1 + dim :]) / (
                    2.0 * eps
                )
                f[r] = float(base.sum())
                grads[r] = grad.reshape(s * dim)
            return f, grads

        results = minimize_lockstep(
            evaluate,
            x0s,
            np.zeros(s * dim),
            np.ones(s * dim),
            maxfun=rounds,
            maxiter=60,
            ftol=1e-12,
        )

        plans = []
        for j, (p, res) in enumerate(zip(planners, results)):
            blocks = np.clip(res.x.reshape(s, dim), 0.0, 1.0)
            if seen_z[j] is not None and np.array_equal(seen_z[j], res.x):
                final_costs = seen_base[j]
            else:
                final_costs = kernel(blocks, np.full(s, j))
            candidates = np.concatenate([blocks, np.asarray(all_starts[j])])
            costs = np.concatenate([final_costs, seen_first[j]])
            winner = int(np.argmin(costs))
            p._wins[all_labels[j][winner % s]] += 1
            z_opt = np.clip(candidates[winner], 0.0, 1.0)
            nit = int(res.nit)
            cost = float(costs[winner])
            p._last_z = z_opt
            p._solves += 1
            p._total_iterations += nit
            p._last_cost = cost
            cap, inlet = p._denormalize(z_opt)
            predicted = p._model.rollout(
                tuple(states[j]), cap, inlet, previews_p[j], step
            )
            plans.append(
                MPCPlan(
                    cap_bus_w=cap,
                    inlet_temp_k=inlet,
                    predicted=predicted,
                    solver_iterations=nit,
                    solver_cost=cost,
                )
            )
        return plans
