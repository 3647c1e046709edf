"""Prediction-model tests.

The critical property: the rollout must match the real plant (HybridHEES +
CoolingLoop) step-for-step, because the MPC's quality is bounded by its
model fidelity.
"""

import dataclasses

import numpy as np
import pytest

from repro.battery.pack import DEFAULT_PACK, BatteryPack
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.cooling.loop import CoolingLoop
from repro.core.cost import CostWeights
from repro.core.mpc import MPCPlanner
from repro.core.rollout import TEMP_MAX_K, PredictionModel
from repro.hees.hybrid import (
    HybridHEES,
    default_battery_converter,
    default_cap_converter,
)
from repro.ultracap.bank import UltracapBank
from repro.ultracap.params import UltracapParams


@pytest.fixture()
def model():
    pack = BatteryPack(DEFAULT_PACK)
    bank = UltracapBank(UltracapParams())
    return PredictionModel(
        DEFAULT_PACK,
        UltracapParams(),
        DEFAULT_COOLANT,
        default_battery_converter(pack),
        default_cap_converter(bank),
        CostWeights(),
    )


class TestScalarPiecesMatchVectorModels:
    def test_voc(self, model):
        pack = BatteryPack()
        for soc in [5.0, 30.0, 60.0, 95.0]:
            assert model._voc(soc) == pytest.approx(
                float(pack.electrical.open_circuit_voltage(soc)), rel=1e-12
            )

    def test_resistance(self, model):
        pack = BatteryPack()
        for soc, temp in [(20.0, 280.0), (50.0, 298.15), (90.0, 315.0)]:
            assert model._res(soc, temp) == pytest.approx(
                float(pack.electrical.internal_resistance(soc, temp)), rel=1e-12
            )

    def test_cap_converter_efficiency(self, model):
        bank = UltracapBank(UltracapParams())
        conv = default_cap_converter(bank)
        for v in [8.0, 12.0, 16.2]:
            assert model._cap_eta(v) == pytest.approx(float(conv.efficiency(v)), rel=1e-12)

    def test_bat_converter_efficiency(self, model):
        pack = BatteryPack()
        conv = default_battery_converter(pack)
        for v in [300.0, 345.6, 400.0]:
            assert model._bat_eta(v) == pytest.approx(float(conv.efficiency(v)), rel=1e-12)


class TestRolloutMatchesPlant:
    @pytest.mark.parametrize(
        "cap_cmd,inlet_cmd",
        [(0.0, 320.0), (15_000.0, 320.0), (0.0, 288.15), (-8_000.0, 295.0)],
    )
    def test_state_trajectories(self, model, cap_cmd, inlet_cmd):
        """Roll 8 steps and compare (T_b, T_c, SoC, SoE) to the plant."""
        dt = 5.0
        n = 8
        preview = [20_000.0] * n

        pack = BatteryPack(initial_soc_percent=90.0, initial_temp_k=305.0)
        bank = UltracapBank(UltracapParams(), initial_soe_percent=80.0)
        plant = HybridHEES(pack, bank)
        loop = CoolingLoop(DEFAULT_COOLANT, DEFAULT_PACK.heat_capacity_j_per_k)

        state0 = (305.0, 305.0, 90.0, 80.0)
        pred = model.rollout(state0, [cap_cmd] * n, [inlet_cmd] * n, preview, dt)

        tc = 305.0
        pump = DEFAULT_COOLANT.pump_power_w
        for k in range(n):
            inlet = loop.clamp_inlet(inlet_cmd, tc)
            p_cool = loop.cooler_power_w(inlet, tc) + pump
            step = plant.step(preview[k] + p_cool, cap_cmd, dt)
            thermal = loop.step(pack.temp_k, tc, inlet, step.battery_heat_w, dt)
            pack.set_temperature(thermal.battery_temp_k)
            tc = thermal.coolant_temp_k

            assert pred.temps_k[k + 1] == pytest.approx(pack.temp_k, abs=0.05)
            assert pred.coolant_k[k + 1] == pytest.approx(tc, abs=0.05)
            assert pred.socs[k + 1] == pytest.approx(pack.soc_percent, abs=0.05)
            assert pred.soes[k + 1] == pytest.approx(bank.soe_percent, abs=0.5)


class TestCostStructure:
    def test_fast_path_equals_detailed_cost(self, model):
        state = (305.0, 303.0, 80.0, 70.0)
        cap = [5_000.0] * 6
        inlet = [295.0] * 6
        preview = [15_000.0] * 6
        fast = model.rollout_cost(state, cap, inlet, preview, 5.0)
        detailed = model.rollout(state, cap, inlet, preview, 5.0)
        assert fast == pytest.approx(detailed.cost, rel=1e-12)

    def test_cost_components_sum(self, model):
        r = model.rollout((310.0, 308.0, 60.0, 40.0), [0.0] * 6, [320.0] * 6,
                          [25_000.0] * 6, 5.0)
        assert r.cost == pytest.approx(r.objective + r.penalty + r.terminal)

    def test_hot_trajectory_penalized(self, model):
        hot = model.rollout((TEMP_MAX_K + 2.0, TEMP_MAX_K + 2.0, 80.0, 80.0),
                            [0.0] * 4, [330.0] * 4, [30_000.0] * 4, 5.0)
        assert hot.penalty > 0

    def test_cool_trajectory_unpenalized(self, model):
        cool = model.rollout((298.0, 298.0, 80.0, 80.0),
                             [0.0] * 4, [320.0] * 4, [10_000.0] * 4, 5.0)
        assert cool.penalty == 0.0

    def test_low_soe_terminal_prices_refill(self, model):
        full = model.rollout((298.0, 298.0, 80.0, 100.0),
                             [0.0] * 4, [320.0] * 4, [0.0] * 4, 5.0)
        empty = model.rollout((298.0, 298.0, 80.0, 25.0),
                              [0.0] * 4, [320.0] * 4, [0.0] * 4, 5.0)
        assert empty.terminal > full.terminal

    def test_hot_terminal_prices_future_aging(self, model):
        cool = model.rollout((298.0, 298.0, 80.0, 100.0),
                             [0.0] * 4, [320.0] * 4, [0.0] * 4, 5.0)
        hot = model.rollout((312.0, 312.0, 80.0, 100.0),
                            [0.0] * 4, [330.0] * 4, [0.0] * 4, 5.0)
        assert hot.terminal > cool.terminal

    def test_cooling_counts_in_objective(self, model):
        state = (310.0, 310.0, 80.0, 100.0)
        none = model.rollout(state, [0.0] * 4, [330.0] * 4, [10_000.0] * 4, 5.0)
        cold = model.rollout(state, [0.0] * 4, [288.15] * 4, [10_000.0] * 4, 5.0)
        assert cold.cooling_j > none.cooling_j

    def test_cap_discharge_reduces_battery_aging_in_horizon(self, model):
        state = (308.0, 308.0, 80.0, 100.0)
        none = model.rollout(state, [0.0] * 4, [330.0] * 4, [30_000.0] * 4, 5.0)
        cap = model.rollout(state, [30_000.0] * 4, [330.0] * 4, [30_000.0] * 4, 5.0)
        assert cap.qloss_percent < none.qloss_percent

    def test_charging_cap_cannot_starve_load(self, model):
        """Mirror of the plant's load-priority guard."""
        state = (298.0, 298.0, 90.0, 50.0)
        heavy = model.pack_pmax * 0.95
        r = model.rollout(state, [-60_000.0] * 3, [320.0] * 3, [heavy] * 3, 5.0)
        # the guard reduces the charge command instead of overdrawing the
        # battery: SoE must not rise much under a near-limit load
        assert r.soes[-1] < 55.0


# --------------------------------------------------------------------- #
# the inputs the MPC actually passes: ndarrays and NumPy scalars


def _mpc_inputs(model, state, cap_w, inlet_k, preview_w):
    """Inputs typed as ``MPCPlanner`` hands them to the rollout.

    The state is a tuple of NumPy scalars (the lockstep race passes
    ``tuple(states[j])``), the plan comes out of
    :meth:`MPCPlanner._denormalize` and the preview is an ndarray.
    """
    planner = MPCPlanner(model, horizon=len(cap_w))
    z = np.concatenate(
        [
            (np.asarray(cap_w) - planner._cap_lo) / planner._cap_scale,
            (np.asarray(inlet_k) - planner._inlet_lo) / planner._inlet_scale,
        ]
    )
    cap, inlet = planner._denormalize(z)
    preview = np.asarray(preview_w, dtype=float)
    return tuple(np.asarray(state, dtype=float)), cap, inlet, preview


def _as_floats(state, cap, inlet, preview):
    """The same call with plain-float tuple/list inputs."""
    return (
        tuple(float(x) for x in state),
        cap.tolist(),
        inlet.tolist(),
        preview.tolist(),
    )


#: Branch-covering horizons (N=4, dt=5 s): name -> (state, cap_bus_w,
#: inlet_k, preview_w).  Together they take every clamp, guard, hinge and
#: terminal branch of ``PredictionModel._rollout``.
BRANCH_CASES = {
    # inlet below the coldest reachable (itself floored at min_inlet) and
    # above T_c
    "inlet_clamped_both_sides": (
        (300.0, 300.0, 80.0, 90.0),
        [0.0] * 4,
        [250.0, 340.0, 250.0, 340.0],
        [15_000.0] * 4,
    ),
    "cap_power_clamped": (
        (300.0, 300.0, 80.0, 60.0),
        [90_000.0, -90_000.0, 90_000.0, -90_000.0],
        [300.0] * 4,
        [20_000.0] * 4,
    ),
    # the 1% stored-energy guard, then max(0, max_out) at the floor; the
    # SoE-lower hinge fires
    "soe_guard": (
        (300.0, 300.0, 80.0, 1.5),
        [40_000.0] * 4,
        [300.0] * 4,
        [20_000.0] * 4,
    ),
    # charging the bank under a near-limit load: the charge is reduced
    "charge_headroom": (
        (298.0, 298.0, 90.0, 50.0),
        [-60_000.0] * 4,
        [298.0] * 4,
        [0.95 * 155_520.0] * 4,
    ),
    # disc < 0, the positive current clamp and the power hinge
    "overload": (
        (300.0, 300.0, 80.0, 90.0),
        [0.0] * 4,
        [300.0] * 4,
        [600_000.0] * 4,
    ),
    # the negative current clamp and the SoE-upper hinge
    "regen_overcharge": (
        (298.0, 298.0, 50.0, 99.5),
        [-60_000.0] * 4,
        [298.0] * 4,
        [-400_000.0] * 4,
    ),
    # temperature and SoC hinges, both terminal branches
    "hot_low_soc": (
        (316.0, 314.0, 19.0, 60.0),
        [10_000.0] * 4,
        [288.15] * 4,
        [30_000.0] * 4,
    ),
    # neither terminal branch: full bank, cool pack
    "no_terminal": (
        (295.0, 295.0, 80.0, 100.0),
        [0.0] * 4,
        [320.0] * 4,
        [5_000.0] * 4,
    ),
}

#: (cost, T_b, T_c, SoC, SoE at the horizon end) per branch case, as
#: hex floats, recorded with the NumPy-scalar rollout that preceded the
#: plain-float loop.  The rollout uses only IEEE arithmetic, sqrt, exp and
#: pow, so any float conversion or hoisting that changes a bit shows here.
BRANCH_GOLDEN = {
    "cap_power_clamped": [
        "0x1.6263aff77d5b6p+30",
        "0x1.2d855307eae34p+8",
        "0x1.2c5fe2ead7d05p+8",
        "0x1.3dfa0b2940debp+6",
        "0x1.d0d59301daa86p+5",
    ],
    "charge_headroom": [
        "0x1.03dbb75c54534p+32",
        "0x1.3181cf03eae33p+8",
        "0x1.2c3463d9197ddp+8",
        "0x1.5d3f4fd3f4fd4p+6",
        "0x1.9000000000000p+5",
    ],
    "hot_low_soc": [
        "0x1.28e54403c828ap+33",
        "0x1.3bd680f0bdef1p+8",
        "0x1.37007c34e9de0p+8",
        "0x1.26a68b53d4828p+4",
        "0x1.accb9eb1ca87fp+5",
    ],
    "inlet_clamped_both_sides": [
        "0x1.f936ac9aaa95fp+28",
        "0x1.2bf1267d5d63ep+8",
        "0x1.2a5b608b15fc7p+8",
        "0x1.3eba044c6a3d1p+6",
        "0x1.6800000000000p+6",
    ],
    "no_terminal": [
        "0x1.67a97f139a71cp+22",
        "0x1.2700000000000p+8",
        "0x1.2700000000000p+8",
        "0x1.3faa1ab4228ccp+6",
        "0x1.9000000000000p+6",
    ],
    "overload": [
        "0x1.03bab17a5df54p+35",
        "0x1.332fa4be1c0cfp+8",
        "0x1.2e1b9c56f68ffp+8",
        "0x1.353f4fd3f4fd4p+6",
        "0x1.6800000000000p+6",
    ],
    "regen_overcharge": [
        "0x1.94928a2cc7a47p+34",
        "0x1.3252e53b3ada5p+8",
        "0x1.2c7188c7dbc87p+8",
        "0x1.a581605816058p+5",
        "0x1.0dd5c80abed3fp+7",
    ],
    "soe_guard": [
        "0x1.c7d3af6094f28p+33",
        "0x1.2c123d34a72bap+8",
        "0x1.2c04f71b55e73p+8",
        "0x1.3ead547a2b2c6p+6",
        "0x1.0000000000000p+0",
    ],
}


def _branch_values(model, name):
    """Hex (cost, horizon-end state) of one branch case; checks the three
    entry points agree bit for bit on the way."""
    args = _mpc_inputs(model, *BRANCH_CASES[name])
    cost = model.rollout_cost(*args, 5.0)
    detailed = model.rollout(*args, 5.0)
    assert cost == detailed.cost == model.rollout_cost(*_as_floats(*args), 5.0)
    end = (
        detailed.temps_k[-1],
        detailed.coolant_k[-1],
        detailed.socs[-1],
        detailed.soes[-1],
    )
    return [float(v).hex() for v in (cost, *end)]


class TestMPCInputTypes:
    @pytest.mark.parametrize("name", sorted(BRANCH_CASES))
    def test_branch_case_matches_golden(self, model, name):
        assert _branch_values(model, name) == BRANCH_GOLDEN[name]

    def test_random_mpc_inputs_match_plain_float_inputs(self, model):
        rng = np.random.default_rng(20160314)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            state = (
                rng.uniform(285.0, 320.0),
                rng.uniform(285.0, 320.0),
                rng.uniform(0.0, 100.0),
                rng.uniform(0.0, 105.0),
            )
            args = _mpc_inputs(
                model,
                state,
                rng.uniform(-90e3, 90e3, n),
                rng.uniform(250.0, 340.0, n),
                rng.uniform(-250e3, 250e3, n),
            )
            plain = _as_floats(*args)
            cost = model.rollout_cost(*args, 5.0)
            detailed = model.rollout(*args, 5.0)
            assert cost == detailed.cost == model.rollout_cost(*plain, 5.0)
            assert detailed == model.rollout(*plain, 5.0)


#: Cold then warm scalar ``MPCPlanner.plan`` (N=6, default budget), as hex
#: floats, recorded with the NumPy-scalar rollout that preceded the
#: plain-float loop.  L-BFGS-B's forward differences read every cost bit,
#: so the iterates - and with them these values - move if one changes.
PLAN_GOLDEN = {
    "cold": {
        "solver_cost": "0x1.dc9936f2c56c1p+31",
        "solver_iterations": 13,
        "cap_bus_w": [
            "0x1.5ff8668763284p+14",
            "0x1.be393627eab98p+14",
            "0x1.15af5fffd4cd8p+15",
            "0x1.035e07d4b49c4p+14",
            "-0x1.652b14defd080p+9",
            "0x1.ea2f1ebcd3524p+14",
        ],
    },
    "warm": {
        "solver_cost": "0x1.d6f771b1d9bcap+31",
        "solver_iterations": 11,
        "cap_bus_w": [
            "0x1.bee9c9862e140p+14",
            "0x1.15fe9b1f05648p+15",
            "0x1.01e11674be8bcp+14",
            "-0x1.8fb7f7977c840p+9",
            "0x1.eaf50b9d3e978p+14",
            "0x1.60ec44d94be00p+14",
        ],
    },
    "stats": {
        "solves": 2,
        "total_iterations": 24,
        "last_cost": "0x1.d6f771b1d9bcap+31",
        "backend": "scalar",
        "wins_warm": 1,
        "wins_neutral": 0,
        "wins_full_cool": 1,
    },
}


def _cold_and_warm_plans(model):
    """Hex-float record of a cold then a warm scalar solve (N=6)."""
    planner = MPCPlanner(model, horizon=6)
    state = tuple(np.array([309.0, 307.5, 72.0, 64.0]))
    preview = np.array([18e3, 24e3, 31e3, 12e3, -6e3, 27e3])
    got = {}
    for label in ("cold", "warm"):
        plan = planner.plan(state, preview)
        got[label] = {
            "solver_cost": float(plan.solver_cost).hex(),
            "solver_iterations": plan.solver_iterations,
            "cap_bus_w": [float(v).hex() for v in plan.cap_bus_w],
        }
        state = (
            plan.predicted.temps_k[1],
            plan.predicted.coolant_k[1],
            plan.predicted.socs[1],
            plan.predicted.soes[1],
        )
        preview = np.roll(preview, -1)
    got["stats"] = dataclasses.asdict(planner.stats)
    got["stats"]["last_cost"] = float(got["stats"]["last_cost"]).hex()
    return got


class TestScalarPlanGolden:
    def test_cold_and_warm_plans(self, model):
        assert _cold_and_warm_plans(model) == PLAN_GOLDEN


# --------------------------------------------------------------------- #
# one call, one base run and every single-input alternative


def _one_input_costs(model, state, cap, inlet, preview, alt_cap, alt_inlet):
    """The alternatives' costs as separate calls, one input replaced each."""
    costs = []
    for k in range(len(cap)):
        replaced = cap.copy()
        replaced[k] = alt_cap[k]
        costs.append(model.rollout_cost(state, replaced, inlet, preview, 5.0))
    for k in range(len(inlet)):
        replaced = inlet.copy()
        replaced[k] = alt_inlet[k]
        costs.append(model.rollout_cost(state, cap, replaced, preview, 5.0))
    return costs


def _stepped(model, state, cap_w, inlet_k, preview_w, z_override=None):
    """MPC-typed inputs plus the planner's forward-difference alternatives.

    The alternatives step every normalized input by ``FD_EPS`` - backward
    where a forward step would leave [0, 1] - exactly as
    ``MPCPlanner._solve_penalty`` builds them.
    """
    planner = MPCPlanner(model, horizon=len(cap_w))
    state, cap, inlet, preview = _mpc_inputs(model, state, cap_w, inlet_k, preview_w)
    z = np.concatenate(
        [
            (cap - planner._cap_lo) / planner._cap_scale,
            (inlet - planner._inlet_lo) / planner._inlet_scale,
        ]
    )
    if z_override is not None:
        z = z_override
        cap, inlet = planner._denormalize(z)
    eps = MPCPlanner.FD_EPS
    alt_cap, alt_inlet = planner._denormalize(z + np.where(z + eps > 1.0, -eps, eps))
    return state, cap, inlet, preview, alt_cap, alt_inlet


class TestRolloutSweep:
    def _check(self, model, state, cap, inlet, preview, alt_cap, alt_inlet):
        cost, alt_costs = model.rollout_cost(
            state, cap, inlet, preview, 5.0, (alt_cap, alt_inlet)
        )
        assert cost == model.rollout_cost(state, cap, inlet, preview, 5.0)
        assert alt_costs == _one_input_costs(
            model, state, cap, inlet, preview, alt_cap, alt_inlet
        )

    @pytest.mark.parametrize("name", sorted(BRANCH_CASES))
    def test_branch_case_alternatives_match_separate_calls(self, model, name):
        self._check(model, *_stepped(model, *BRANCH_CASES[name]))

    def test_branch_case_arbitrary_alternatives(self, model):
        # alternatives far from the plan: other clamp and guard branches
        for name in sorted(BRANCH_CASES):
            state, cap, inlet, preview = _mpc_inputs(model, *BRANCH_CASES[name])
            self._check(
                model, state, cap, inlet, preview, -cap[::-1], inlet[::-1] + 7.0
            )

    def test_random_mpc_inputs_match_separate_calls(self, model):
        rng = np.random.default_rng(20161107)
        flipped = absorbed = 0
        for _ in range(150):
            n = int(rng.integers(1, 13))
            state = (
                rng.uniform(285.0, 320.0),
                rng.uniform(285.0, 320.0),
                rng.uniform(0.0, 100.0),
                rng.uniform(0.0, 105.0),
            )
            z = rng.uniform(0.0, 1.0, 2 * n)
            # inputs on the bounds: z = 1.0 takes the backward step
            z[rng.random(2 * n) < 0.2] = 1.0
            z[rng.random(2 * n) < 0.1] = 0.0
            flipped += int(np.sum(z == 1.0))
            args = _stepped(
                model,
                state,
                np.zeros(n),
                np.zeros(n),
                rng.uniform(-250e3, 250e3, n),
                z_override=z,
            )
            # an inlet above T_c is clamped to T_c whatever its step
            absorbed += int(np.sum(args[2] > state[1]))
            self._check(model, *args)
        assert flipped and absorbed

    def test_clamp_absorbed_inlet_alternative_costs_the_plan(self, model):
        state, cap, inlet, preview = _mpc_inputs(
            model, (300.0, 295.0, 80.0, 60.0), [0.0] * 3, [311.0] * 3, [2e4] * 3
        )
        cost, alt_costs = model.rollout_cost(
            state, cap, inlet, preview, 5.0, (cap, inlet + 0.5)
        )
        # both inlets sit above T_c, which the C3 clamp holds them to
        assert alt_costs[3:] == [cost] * 3
