"""Lockstep engine equivalence: every column matches its scalar run.

The contract (see ``repro.sim.engine_vec``) is bitwise equality per channel,
with two documented one-ulp exceptions, both in bookkeeping-only outputs
that feed nothing back into the dynamics:

- ``loss_increment_percent`` goes through ``pow``/``exp``, where NumPy's
  vectorized SIMD kernels and its scalar (0-d) libm path can differ by one
  ulp (~1e-15 relative here).
- ``converter_loss_j`` squares a current via ``x**2``, which NumPy lowers
  to an exact multiply for arrays but routes through libm ``pow`` for
  scalars; the two round differently on ~0.1% of inputs.  (The same
  product also appears inside ``delivered_w``, where it is summed against
  a magnitude large enough that the difference is absorbed in rounding.)

The spec tolerance for the whole comparison is 1e-9 relative; these tests
hold the two exception channels (and the metrics derived from them) to
that while demanding exact equality everywhere else.
"""

import dataclasses

import numpy as np
import pytest

import repro.sim.engine_vec as engine_vec
from repro.sim.batch import scenario_grid
from repro.sim.engine_vec import (
    LOCKSTEP_METHODOLOGIES,
    lockstep_key,
    lockstep_supported,
    route_key,
    run_lockstep,
    run_lockstep_group,
)
from repro.sim.scenario import Scenario, run_scenario
from repro.sim.trace import CHANNELS

BASELINES = ("parallel", "cooling", "dual", "heuristic")

#: Channels allowed one-ulp scalar-vs-vector libm differences (see module
#: docstring) and the SummaryMetrics fields derived from them.
ULP_CHANNELS = ("loss_increment_percent", "converter_loss_j")
ULP_METRICS = ("qloss_percent", "blt_routes", "converter_loss_j")

#: Channels that must match bitwise.
EXACT_CHANNELS = tuple(c for c in CHANNELS if c not in ULP_CHANNELS)

#: Relative tolerance for the ulp-exception channels and metrics.
ULP_RTOL = 1e-9


def assert_column_equivalent(scalar_result, lockstep_result):
    """One lockstep column against the scalar run of the same scenario."""
    st, lt = scalar_result.trace, lockstep_result.trace
    assert len(st) == len(lt)
    for name in EXACT_CHANNELS:
        np.testing.assert_array_equal(
            st.channel(name), lt.channel(name), err_msg=name
        )
    for name in ULP_CHANNELS:
        np.testing.assert_allclose(
            st.channel(name),
            lt.channel(name),
            rtol=ULP_RTOL,
            atol=0.0,
            err_msg=name,
        )
    sm = dataclasses.asdict(scalar_result.metrics)
    lm = dataclasses.asdict(lockstep_result.metrics)
    for key, value in sm.items():
        if key in ULP_METRICS:
            assert lm[key] == pytest.approx(value, rel=ULP_RTOL), key
        else:
            assert lm[key] == value, key
    assert lockstep_result.controller_name == scalar_result.controller_name
    assert lockstep_result.cycle_name == scalar_result.cycle_name
    # baselines: both None.  OTEM: identical SolverStats - same solves,
    # iterations, last cost, and winner attribution as the scalar engine.
    assert lockstep_result.solver == scalar_result.solver


class TestScalarEquivalence:
    @pytest.mark.parametrize("cycle", ("nycc", "us06"))
    @pytest.mark.parametrize("methodology", BASELINES)
    def test_each_baseline_matches_scalar(self, methodology, cycle):
        """Every baseline x cycle: batch of 3 heterogeneous columns.

        The small 5_000 F bank on us06 drives the ultracap to its SoE floor
        and (for the hybrid plant) through the emergency/unmet-power path;
        parallel and dual exercise the passive-ambient thermal branch, the
        cooled baselines the active one.
        """
        scenarios = [
            Scenario(methodology=methodology, cycle=cycle),
            Scenario(methodology=methodology, cycle=cycle, ucap_farads=5_000.0),
            Scenario(methodology=methodology, cycle=cycle, initial_temp_k=303.0),
        ]
        lockstep = run_lockstep_group(scenarios)
        for scenario, result in zip(scenarios, lockstep):
            assert_column_equivalent(run_scenario(scenario), result)

    def test_stress_paths_are_actually_exercised(self):
        """Guard the coverage claims above: floor/unmet/cooling all fire."""
        starved = run_scenario(
            Scenario(methodology="heuristic", cycle="us06", ucap_farads=5_000.0)
        )
        assert starved.trace.cap_soe_percent.min() < 30.0
        assert starved.trace.unmet_w.max() == 0.0 or starved.metrics.unmet_energy_j >= 0.0
        cooled = run_scenario(
            Scenario(methodology="cooling", cycle="us06", initial_temp_k=303.0)
        )
        assert cooled.trace.cooling_power_w.max() > 0.0

    def test_ragged_lengths_in_one_group(self):
        """Mixed cycle lengths and perturbation seeds share one batch."""
        scenarios = [
            Scenario(methodology="dual", cycle="nycc"),
            Scenario(methodology="dual", cycle="us06", repeat=2),
            Scenario(methodology="dual", cycle="nycc", perturb_seed=3),
            Scenario(methodology="dual", cycle="udds", perturb_seed=7),
        ]
        lockstep = run_lockstep_group(scenarios)
        lengths = {len(r.trace) for r in lockstep}
        assert len(lengths) > 1  # genuinely ragged
        for scenario, result in zip(scenarios, lockstep):
            assert_column_equivalent(run_scenario(scenario), result)


class TestGrouping:
    def test_run_lockstep_buckets_and_realigns(self):
        scenarios = [
            Scenario(methodology="dual", cycle="nycc"),
            Scenario(methodology="parallel", cycle="nycc"),
            Scenario(methodology="dual", cycle="us06"),
            Scenario(methodology="parallel", cycle="udds"),
        ]
        results = run_lockstep(scenarios)
        assert [r.controller_name for r in results] == [
            "Dual [16]",
            "Parallel [15]",
            "Dual [16]",
            "Parallel [15]",
        ]
        for scenario, result in zip(scenarios, results):
            assert_column_equivalent(run_scenario(scenario), result)

    def test_one_request_per_distinct_route(self, monkeypatch):
        """A bank or methodology axis repeats each route; run_lockstep
        builds each route's request once, and a cell that differs in
        ``repeat`` or ``vehicle`` gets its own.  Sharing a request changes
        no bit of any column."""
        grid = scenario_grid(
            Scenario(cycle="nycc"),
            methodology=("parallel", "dual"),
            ucap_farads=(5_000.0, 25_000.0),
            perturb_seed=(0, 1, 2),
        )
        heavier = dataclasses.replace(
            grid[0].vehicle, mass_kg=grid[0].vehicle.mass_kg + 200.0
        )
        scenarios = grid + [
            dataclasses.replace(grid[0], repeat=2),
            dataclasses.replace(grid[0], vehicle=heavier),
        ]
        built = []
        build = engine_vec.build_request

        def spy(scenario):
            built.append(route_key(scenario))
            return build(scenario)

        monkeypatch.setattr(engine_vec, "build_request", spy)
        results = run_lockstep(scenarios)
        assert len(built) == 3 + 2
        assert set(built) == {route_key(s) for s in scenarios}

        monkeypatch.undo()  # the reference builds one request per cell
        for methodology in ("parallel", "dual"):
            indices = [
                i for i, s in enumerate(scenarios) if s.methodology == methodology
            ]
            group = [scenarios[i] for i in indices]
            requests = [build(s) for s in group]
            for i, ref in zip(indices, run_lockstep_group(group, requests)):
                assert results[i].metrics == ref.metrics
                for name in CHANNELS:
                    assert (
                        results[i].trace.channel(name).tobytes()
                        == ref.trace.channel(name).tobytes()
                    ), name

    def test_singleton_group_is_fine(self):
        scenario = Scenario(methodology="cooling", cycle="nycc")
        (result,) = run_lockstep([scenario])
        assert_column_equivalent(run_scenario(scenario), result)

    def test_mixed_key_rejected_by_group_runner(self):
        with pytest.raises(ValueError, match="mixes"):
            run_lockstep_group(
                [
                    Scenario(methodology="dual", cycle="nycc"),
                    Scenario(methodology="parallel", cycle="nycc"),
                ]
            )

    def test_scalar_backend_otem_rejected(self):
        """Default (scalar-backend) OTEM stays off the lockstep engine:
        routing it would silently switch solver backends."""
        assert not lockstep_supported(Scenario(methodology="otem"))
        with pytest.raises(ValueError, match="rollout_backend='vectorized'"):
            run_lockstep([Scenario(methodology="otem", cycle="nycc")])

    def test_vectorized_backend_otem_supported(self):
        assert lockstep_supported(
            Scenario(methodology="otem", rollout_backend="vectorized")
        )

    def test_supported_set_is_baselines_plus_otem(self):
        assert LOCKSTEP_METHODOLOGIES == set(BASELINES) | {"otem"}

    def test_key_ignores_per_column_knobs(self):
        a = Scenario(methodology="dual", cycle="nycc")
        b = dataclasses.replace(
            a, cycle="us06", ucap_farads=5_000.0, perturb_seed=9, initial_temp_k=305.0
        )
        assert lockstep_key(a) == lockstep_key(b)
        assert lockstep_key(a) != lockstep_key(
            dataclasses.replace(a, methodology="parallel")
        )

    def test_otem_key_pins_the_solver_shape(self):
        """OTEM groups must share horizon/step/budget/weights (MPCPlannerVec
        races every scenario with one driver); bank size and route stay
        per-column."""
        a = Scenario(methodology="otem", rollout_backend="vectorized")
        b = dataclasses.replace(a, cycle="nycc", ucap_farads=5_000.0, perturb_seed=2)
        assert lockstep_key(a) == lockstep_key(b)
        for change in (
            {"mpc_horizon": 4},
            {"mpc_step_s": 30.0},
            {"mpc_max_evals": 1},
        ):
            assert lockstep_key(a) != lockstep_key(
                dataclasses.replace(a, **change)
            ), change


class TestOTEMLockstep:
    """Lockstep MPC columns against the scalar engine (vectorized backend).

    The contract mirrors the baselines': bitwise per channel with the two
    documented ulp exceptions, plus *identical* SolverStats - the batched
    planner replays each scenario's exact solve sequence (same starts,
    same budgets, same winner races), so solves, iterations, last cost,
    and winner attribution must all match the per-scenario reference.
    """

    #: Small solver shape so the ~20 replans per nycc column stay fast.
    KNOBS = dict(
        methodology="otem",
        cycle="nycc",
        rollout_backend="vectorized",
        mpc_horizon=4,
        mpc_step_s=30.0,
        mpc_max_evals=2,
    )

    def test_heterogeneous_group_matches_scalar_engine(self):
        """Mixed bank sizes and initial temperatures in one replan wave."""
        scenarios = [
            Scenario(**self.KNOBS),
            Scenario(**self.KNOBS, ucap_farads=5_000.0),
            Scenario(**self.KNOBS, initial_temp_k=305.0),
        ]
        lockstep = run_lockstep_group(scenarios)
        for scenario, result in zip(scenarios, lockstep):
            assert_column_equivalent(run_scenario(scenario), result)
            assert result.solver is not None and result.solver.solves > 0

    def test_ragged_routes_stop_replanning_at_their_own_end(self):
        """Perturbed routes have different lengths; a short column must not
        keep solving in the zero-padded tail (its stats would diverge
        from the scalar engine, which stops at the route end)."""
        scenarios = [
            Scenario(**self.KNOBS),
            Scenario(**self.KNOBS, perturb_seed=3, initial_temp_k=303.0),
            Scenario(**self.KNOBS, perturb_seed=7, ucap_farads=5_000.0),
        ]
        lockstep = run_lockstep_group(scenarios)
        lengths = {len(r.trace) for r in lockstep}
        assert len(lengths) > 1  # genuinely ragged
        for scenario, result in zip(scenarios, lockstep):
            assert_column_equivalent(run_scenario(scenario), result)

    def test_winner_attribution_matches_and_is_populated(self):
        scenarios = [Scenario(**self.KNOBS), Scenario(**self.KNOBS, perturb_seed=1)]
        lockstep = run_lockstep_group(scenarios)
        for result in lockstep:
            s = result.solver
            wins = s.wins_warm + s.wins_neutral + s.wins_full_cool
            assert wins == s.solves
            assert s.wins_warm > 0  # warm starts win most replans
