"""MPC planner tests."""

import numpy as np
import pytest
from scipy import optimize

from repro.battery.pack import DEFAULT_PACK
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.core.cost import CostWeights
from repro.core.lbfgsb_lockstep import FTOL, GTOL, MAXITER, minimize_lockstep
from repro.core.mpc import DEFAULT_MAX_EVALS, MPCPlanner, MPCPlannerVec, _pad_previews
from repro.core.rollout import PredictionModel
from repro.hees.hybrid import default_battery_converter, default_cap_converter
from repro.ultracap.params import UltracapParams


def make_model(capacitance_f=None, weights=None):
    cap_params = (
        UltracapParams()
        if capacitance_f is None
        else UltracapParams(capacitance_f=capacitance_f)
    )
    return PredictionModel(
        DEFAULT_PACK,
        cap_params,
        DEFAULT_COOLANT,
        default_battery_converter(DEFAULT_PACK),
        default_cap_converter(cap_params.rated_voltage_v, cap_params.max_power_w),
        weights or CostWeights(),
    )


def make_planner(horizon=8, **planner_kwargs):
    return MPCPlanner(make_model(), horizon=horizon, **planner_kwargs)


class TestConstruction:
    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            make_planner(horizon=0)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            make_planner(step_s=0.0)

    @pytest.mark.parametrize("step_s", [float("nan"), float("inf")])
    def test_rejects_nonfinite_step(self, step_s):
        with pytest.raises(ValueError, match="step_s"):
            make_planner(step_s=step_s)

    @pytest.mark.parametrize("budget", [0, -1, 10.5, 150.0, True])
    def test_rejects_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="max_function_evals"):
            make_planner(max_function_evals=budget)

    @pytest.mark.parametrize("horizon", [2.5, 8.0, True, "8"])
    def test_rejects_non_integer_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
            make_planner(horizon=horizon)


class TestPlanShape:
    def test_plan_lengths(self):
        planner = make_planner(horizon=8)
        plan = planner.plan((298.0, 298.0, 90.0, 80.0), np.full(8, 15_000.0))
        assert plan.horizon == 8
        assert plan.cap_bus_w.shape == (8,)
        assert plan.inlet_temp_k.shape == (8,)

    def test_short_preview_zero_padded(self):
        planner = make_planner(horizon=8)
        plan = planner.plan((298.0, 298.0, 90.0, 80.0), np.full(3, 15_000.0))
        assert plan.horizon == 8

    def test_inputs_within_bounds(self):
        planner = make_planner(horizon=6)
        plan = planner.plan((305.0, 305.0, 70.0, 60.0), np.full(6, 25_000.0))
        assert np.all(np.abs(plan.cap_bus_w) <= planner._cap_hi + 1e-6)
        assert np.all(plan.inlet_temp_k >= 288.15 - 1e-6)
        assert np.all(plan.inlet_temp_k <= 312.0 + 1e-6)


class TestPlanQuality:
    def test_hot_state_plans_cooling(self):
        planner = make_planner(horizon=8)
        plan = planner.plan((312.0, 311.0, 80.0, 90.0), np.full(8, 20_000.0))
        # some horizon step must command a meaningfully colder inlet
        assert np.min(plan.inlet_temp_k) < 305.0

    def test_multistart_escapes_stall(self):
        """A hot, high-cost state must not return the do-nothing plan.

        Without multi-start L-BFGS-B stalls after ~2 iterations here and
        keeps inlet at T_c (documented optimizer pathology).
        """
        planner = make_planner(horizon=12)
        state = (313.0, 311.0, 70.0, 60.0)
        plan = planner.plan(state, np.full(12, 20_000.0))
        do_nothing = planner._model.rollout_cost(
            state, [0.0] * 12, [311.0] * 12, [20_000.0] * 12, planner.step_s
        )
        assert plan.solver_cost < do_nothing

    def test_beats_full_cooling_reference(self):
        planner = make_planner(horizon=8)
        state = (310.0, 309.0, 80.0, 90.0)
        preview = np.full(8, 20_000.0)
        plan = planner.plan(state, preview)
        full_cool = planner._model.rollout_cost(
            state, [0.0] * 8, [288.15] * 8, list(preview), planner.step_s
        )
        assert plan.solver_cost <= full_cool + 1e-6

    def test_warm_start_reused(self):
        planner = make_planner(horizon=6)
        state = (305.0, 304.0, 80.0, 80.0)
        planner.plan(state, np.full(6, 15_000.0))
        assert planner._last_z is not None
        planner.reset()
        assert planner._last_z is None

    def test_predicted_rollout_attached(self):
        planner = make_planner(horizon=6)
        plan = planner.plan((298.0, 298.0, 90.0, 80.0), np.full(6, 10_000.0))
        assert len(plan.predicted.temps_k) == 7
        assert plan.solver_iterations >= 0


def _scipy_gradient_solve(planner, state, preview):
    """The scalar penalty solve, spelled out with scipy.

    Each start is ``optimize.minimize(L-BFGS-B)`` handed the model's exact
    gradient as a separate ``jac`` callable, chained to normalized
    coordinates, at ``budget`` evaluations.  Returns what
    ``MPCPlanner._solve_penalty`` returns, ``(z, nit, cost, label)``, and
    the evaluations scipy made.
    """
    model, step, n = planner._model, planner.step_s, planner.horizon

    def rollout(z):
        cap, inlet = planner._denormalize(z)
        return PredictionModel.rollout_cost(
            model, state, cap, inlet, preview, step, gradient=True
        )

    def jac(z):
        _, d_cap, d_inlet = rollout(z)
        return np.concatenate(
            [
                np.asarray(d_cap) * (planner._cap_hi - planner._cap_lo),
                np.asarray(d_inlet) * (planner._inlet_hi - planner._inlet_lo),
            ]
        )

    best = best_label = None
    iterations = evaluations = 0
    for label, z0, budget in planner._starts(state[1]):
        result = optimize.minimize(
            lambda z: rollout(z)[0],
            z0,
            jac=jac,
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * (2 * n),
            options={
                "maxfun": budget,
                "maxiter": MAXITER,
                "ftol": FTOL,
                "gtol": GTOL,
            },
        )
        iterations += int(result.nit)
        evaluations += int(result.nfev)
        if best is None or result.fun < best.fun:
            best, best_label = result, label
    return (best.x, iterations, float(best.fun), best_label), evaluations


#: (state, preview) pairs; under the heavy load the solutions put the
#: ultracap command on its upper bound
GRADIENT_CASES = {
    "mild": ((309.0, 307.5, 72.0, 64.0), [18e3, 24e3, 31e3, 12e3, -6e3, 27e3]),
    "heavy": ((312.0, 311.0, 60.0, 95.0), [60e3, 80e3, 70e3, 90e3, 40e3, 75e3]),
}


class TestBudget:
    """``max_function_evals`` counts L-BFGS-B evaluations per start, and
    its default is written once."""

    def test_every_entry_point_takes_the_one_default(self):
        from repro.core.otem import OTEMController
        from repro.sim.scenario import Scenario

        assert Scenario().mpc_max_evals == DEFAULT_MAX_EVALS
        assert OTEMController().planner._maxfun == DEFAULT_MAX_EVALS
        assert make_planner()._maxfun == DEFAULT_MAX_EVALS

    def test_default_race_runs_six_rounds_cold_and_five_warm(self, monkeypatch):
        import repro.core.mpc as mpc

        rounds = []

        def spy(evaluate, x0s, maxfuns):
            rounds.append(list(maxfuns))
            return minimize_lockstep(evaluate, x0s, maxfuns)

        monkeypatch.setattr(mpc, "minimize_lockstep", spy)
        planner = MPCPlanner(make_model(), rollout_backend="vectorized")
        state, preview = (309.0, 307.5, 72.0, 64.0), np.full(12, 20e3)
        planner.plan(state, preview)
        planner.plan(state, preview)
        assert rounds == [[6], [5]]


class TestScalarGradient:
    """The scalar solve is scipy's L-BFGS-B on the model's exact gradient,
    with one ``rollout_cost`` call per scipy evaluation.  (The test keeps
    the name it had when the reference was scipy's own differences.)"""

    @pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
    @pytest.mark.parametrize("budget", [150, 75, 10, 6, 3, 1])
    @pytest.mark.parametrize("horizon", [1, 6, 12])
    def test_cold_and_warm_solves_match_scipy_differences(
        self, horizon, budget, case
    ):
        planner = make_planner(horizon=horizon, max_function_evals=budget)
        model = planner._model
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return PredictionModel.rollout_cost(model, *args, **kwargs)

        model.rollout_cost = counted
        state, preview = GRADIENT_CASES[case]
        preview = _pad_previews(np.resize(preview, horizon), horizon)[0]
        for solve in ("cold", "warm"):
            want, evaluations = _scipy_gradient_solve(planner, state, preview)
            assert calls[0] == 0
            got = planner._solve_penalty(state, preview, planner.step_s)
            assert np.array_equal(got[0], want[0]), solve
            assert got[1:] == want[1:], solve
            assert calls[0] == evaluations
            calls[0] = 0
            plan = planner._commit(state, preview, planner.step_s, *got)
            p = plan.predicted
            state = (p.temps_k[1], p.coolant_k[1], p.socs[1], p.soes[1])


class TestVectorizedBackend:
    """The batched-kernel penalty solver (rollout_backend="vectorized")."""

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="rollout_backend"):
            make_planner(rollout_backend="gpu")

    def test_stats_record_backend(self):
        vec = make_planner(horizon=6, rollout_backend="vectorized")
        assert vec.rollout_backend == "vectorized"
        assert vec.stats.backend == "vectorized"
        assert make_planner(horizon=6).stats.backend == "scalar"

    def test_last_cost_serialization(self):
        import math

        planner = make_planner(horizon=4, rollout_backend="vectorized")
        fresh = planner.stats
        assert math.isnan(fresh.last_cost) and fresh.last_cost_or_none is None
        planner.plan((298.0, 298.0, 90.0, 80.0), np.full(4, 10_000.0))
        after = planner.stats
        assert after.last_cost_or_none == after.last_cost

    def test_plan_shape_and_bounds(self):
        planner = make_planner(horizon=6, rollout_backend="vectorized")
        plan = planner.plan((305.0, 305.0, 70.0, 60.0), np.full(6, 25_000.0))
        assert plan.cap_bus_w.shape == (6,)
        assert plan.inlet_temp_k.shape == (6,)
        assert np.all(np.abs(plan.cap_bus_w) <= planner._cap_hi + 1e-6)
        assert np.all(plan.inlet_temp_k >= 288.15 - 1e-6)
        assert np.all(plan.inlet_temp_k <= 312.0 + 1e-6)

    def test_multistart_escapes_stall(self):
        """Mirror of the scalar stall test: the joint batched race must
        also beat the do-nothing plan from the documented pathology."""
        planner = make_planner(horizon=12, rollout_backend="vectorized")
        state = (313.0, 311.0, 70.0, 60.0)
        plan = planner.plan(state, np.full(12, 20_000.0))
        do_nothing = planner._model.rollout_cost(
            state, [0.0] * 12, [311.0] * 12, [20_000.0] * 12, planner.step_s
        )
        assert plan.solver_cost < do_nothing

    def test_cost_comparable_to_scalar(self):
        """Same formulation, same budget - the solves land on costs within
        a few percent of each other (different optimizer trajectories)."""
        state = (310.0, 309.0, 75.0, 70.0)
        preview = np.full(8, 20_000.0)
        scalar = make_planner(horizon=8).plan(state, preview)
        vec = make_planner(horizon=8, rollout_backend="vectorized").plan(
            state, preview
        )
        assert vec.solver_cost <= scalar.solver_cost * 1.10
        assert scalar.solver_cost <= vec.solver_cost * 1.10

    def test_never_worse_than_its_starts(self):
        """The joint race must return at least the best start point."""
        planner = make_planner(horizon=8, rollout_backend="vectorized")
        state = (311.0, 310.0, 70.0, 60.0)
        preview = np.full(8, 22_000.0)
        plan = planner.plan(state, preview)
        full_cool = planner._model.rollout_cost(
            state, [0.0] * 8, [288.15] * 8, preview, planner.step_s
        )
        assert plan.solver_cost <= full_cool + 1e-6

    def test_warm_start_reused(self):
        planner = make_planner(horizon=6, rollout_backend="vectorized")
        state = (305.0, 304.0, 80.0, 80.0)
        planner.plan(state, np.full(6, 15_000.0))
        assert planner._last_z is not None
        planner.reset()
        assert planner._last_z is None


class TestBatchedPlanner:
    """MPCPlannerVec: S scenarios' penalty solves in one lockstep driver.

    The contract is *bitwise* equivalence: each scenario's plan (actions,
    cost, iteration count) and SolverStats must match what its own
    ``MPCPlanner(rollout_backend="vectorized")`` would produce, cold and
    warm-started alike - the batched planner is the same solver run S
    problems at a time, not an approximation of it.
    """

    HORIZON = 6
    STEP = 30.0
    EVALS = 2

    STATES = np.array(
        [
            (298.0, 298.0, 90.0, 80.0),
            (310.0, 308.0, 70.0, 30.0),
            (304.0, 303.0, 80.0, 60.0),
        ]
    )
    PREVIEWS = np.array(
        [
            [15_000.0] * HORIZON,
            [40_000.0] * HORIZON,
            [5_000.0] * HORIZON,
        ]
    )

    def _models(self):
        return [make_model(), make_model(capacitance_f=5_000.0), make_model()]

    def _planners(self, models=None, **overrides):
        knobs = dict(
            horizon=self.HORIZON,
            step_s=self.STEP,
            max_function_evals=self.EVALS,
            rollout_backend="vectorized",
        )
        knobs.update(overrides)
        return [MPCPlanner(mdl, **knobs) for mdl in models or self._models()]

    def _planner_pair(self):
        return MPCPlannerVec(self._planners()), self._planners()

    @staticmethod
    def _assert_plans_equal(plan, ref_plan):
        np.testing.assert_array_equal(plan.cap_bus_w, ref_plan.cap_bus_w)
        np.testing.assert_array_equal(plan.inlet_temp_k, ref_plan.inlet_temp_k)
        assert plan.solver_cost == ref_plan.solver_cost
        assert plan.solver_iterations == ref_plan.solver_iterations

    def _three_waves(self):
        """One cold and two warm waves (mixed bank sizes) through both
        vectorized entry points: the (batched, per-planner) plans of each
        wave, then the batched and the per-planner stats."""
        vec, refs = self._planner_pair()
        waves = []
        for wave in range(3):
            states = self.STATES + 0.5 * wave  # drift the states a little
            batched = vec.plan_batch(states, self.PREVIEWS)
            single = [
                ref.plan(tuple(states[j]), self.PREVIEWS[j])
                for j, ref in enumerate(refs)
            ]
            waves.append((batched, single))
        return waves, vec.stats, tuple(r.stats for r in refs)

    def test_cold_and_warm_waves_match_per_scenario_solves(self):
        waves, vec_stats, ref_stats = self._three_waves()
        for batched, single in waves:
            for plan, ref_plan in zip(batched, single):
                self._assert_plans_equal(plan, ref_plan)
        assert vec_stats == ref_stats

    def test_lockstep_race_matches_scipy_fallback(self, monkeypatch):
        """The scipy reference for the race: with every lockstep problem
        solved by its own ``optimize.minimize`` call instead, both
        vectorized planners must still give the lockstep driver's
        actions, costs, iteration counts and SolverStats bit for bit."""
        import scipy.optimize

        import repro.core.mpc as mpc
        from repro.core.lbfgsb_lockstep import FTOL, GTOL, MAXITER, DriverResult

        lockstep, lock_vec_stats, lock_ref_stats = self._three_waves()

        calls = []

        def minimize_serial(evaluate, x0s, maxfuns):
            results = []
            for j, (x0, maxfun) in enumerate(zip(x0s, maxfuns)):
                idx = np.array([j])

                def fun_and_grad(z, _idx=idx):
                    f, g = evaluate(z[None, :], _idx)
                    return float(f[0]), g[0]

                calls.append(1)
                res = scipy.optimize.minimize(
                    fun_and_grad,
                    x0,
                    jac=True,
                    method="L-BFGS-B",
                    bounds=[(0.0, 1.0)] * x0.size,
                    options={
                        "maxfun": maxfun,
                        "maxiter": MAXITER,
                        "ftol": FTOL,
                        "gtol": GTOL,
                    },
                )
                results.append(
                    DriverResult(
                        x=res.x,
                        fun=float(res.fun),
                        nit=int(res.nit),
                        nfev=int(res.nfev),
                        converged=bool(res.success),
                    )
                )
            return results

        monkeypatch.setattr(mpc, "minimize_lockstep", minimize_serial)
        serial, serial_vec_stats, serial_ref_stats = self._three_waves()

        # 3 waves x (3 batched + 3 single-planner) problems, all scipy
        assert len(calls) == 18
        for (lock_batched, lock_single), (ser_batched, ser_single) in zip(
            lockstep, serial
        ):
            for plans in (lock_single, ser_batched, ser_single):
                for plan, ref_plan in zip(plans, lock_batched):
                    self._assert_plans_equal(plan, ref_plan)
        lockstep_stats = lock_vec_stats + lock_ref_stats
        assert {s.backend for s in lockstep_stats} == {"vectorized"}
        assert serial_vec_stats + serial_ref_stats == lockstep_stats

    def test_stats_carry_winner_attribution(self):
        vec, _ = self._planner_pair()
        vec.plan_batch(self.STATES, self.PREVIEWS)
        vec.plan_batch(self.STATES + 1.0, self.PREVIEWS)
        for s in vec.stats:
            assert s.solves == 2
            assert s.wins_warm + s.wins_neutral + s.wins_full_cool == 2
            assert s.backend == "vectorized"

    def test_indices_subset_solves_only_those_scenarios(self):
        """Ragged routes: a finished column sits a wave out, its warm
        start and counters untouched, while the others solve in lockstep
        exactly as their own planner would."""
        vec, refs = self._planner_pair()
        vec.plan_batch(self.STATES, self.PREVIEWS)
        for ref, state, preview in zip(refs, self.STATES, self.PREVIEWS):
            ref.plan(tuple(state), preview)

        active = np.array([0, 2])
        plans = vec.plan_batch(
            (self.STATES + 1.0)[active],
            self.PREVIEWS[active],
            indices=active,
        )
        assert len(plans) == 2
        for plan, j in zip(plans, active):
            ref_plan = refs[j].plan(tuple(self.STATES[j] + 1.0), self.PREVIEWS[j])
            self._assert_plans_equal(plan, ref_plan)
        # the skipped scenario's bookkeeping did not move
        assert vec.stats[1].solves == 1
        assert vec.stats[1] == refs[1].stats

    def test_reset_clears_all_columns(self):
        vec, _ = self._planner_pair()
        vec.plan_batch(self.STATES, self.PREVIEWS)
        vec.reset()
        assert all(s.solves == 0 for s in vec.stats)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="at least one"):
            MPCPlannerVec([])

    def test_rejects_models_varying_beyond_bank_energy(self):
        """Only ecap may differ in a group; different weights mean the
        group was mis-keyed upstream."""
        models = [make_model(), make_model(weights=CostWeights(w1=123.0))]
        with pytest.raises(ValueError, match="lockstep MPC group"):
            MPCPlannerVec(self._planners(models))

    @pytest.mark.parametrize(
        "change",
        (
            {"horizon": HORIZON + 1},
            {"max_function_evals": EVALS + 10},
            {"rollout_backend": "scalar"},
        ),
        ids=("horizon", "budget", "backend"),
    )
    def test_rejects_planners_with_another_solver_shape(self, change):
        """The group races one driver: horizon, budget and backend must
        match, or the joint solve would not replay each planner's own."""
        planners = self._planners()
        planners[1] = self._planners(**change)[1]
        with pytest.raises(ValueError, match="solver shape"):
            MPCPlannerVec(planners)

    def test_rejects_wrong_state_shape(self):
        vec, _ = self._planner_pair()
        with pytest.raises(ValueError, match="states"):
            vec.plan_batch(self.STATES[:2], self.PREVIEWS)


class TestSLSQPBackend:
    """The explicit-constraint formulation of the paper's Eq. 18."""

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            make_planner(method="simplex")

    def test_produces_feasible_plan(self):
        planner = make_planner(horizon=6, method="slsqp")
        plan = planner.plan((308.0, 307.0, 70.0, 60.0), np.full(6, 20_000.0))
        # explicit constraints: predicted trajectory inside C1/C4/C5
        assert max(plan.predicted.temps_k) <= 313.15 + 0.5
        assert min(plan.predicted.socs) >= 19.5
        assert min(plan.predicted.soes) >= 19.0

    def test_cools_from_hot_state(self):
        planner = make_planner(horizon=8, method="slsqp")
        plan = planner.plan((312.5, 311.0, 80.0, 80.0), np.full(8, 22_000.0))
        assert np.min(plan.inlet_temp_k) < 308.0

    def test_comparable_cost_to_penalty(self):
        state = (310.0, 309.0, 75.0, 70.0)
        preview = np.full(8, 20_000.0)
        pen = make_planner(horizon=8, method="penalty").plan(state, preview)
        slsqp = make_planner(horizon=8, method="slsqp").plan(state, preview)
        # same units once penalties are excluded: compare pure Eq.19+terminal
        pen_pure = pen.predicted.objective + pen.predicted.terminal
        slsqp_pure = slsqp.predicted.objective + slsqp.predicted.terminal
        assert slsqp_pure <= pen_pure * 1.15
