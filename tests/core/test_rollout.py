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
    cap = UltracapParams()
    return PredictionModel(
        DEFAULT_PACK,
        cap,
        DEFAULT_COOLANT,
        default_battery_converter(DEFAULT_PACK),
        default_cap_converter(cap.rated_voltage_v, cap.max_power_w),
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
        cap = UltracapParams()
        conv = default_cap_converter(cap.rated_voltage_v, cap.max_power_w)
        for v in [8.0, 12.0, 16.2]:
            assert model._cap_eta(v) == pytest.approx(float(conv.efficiency(v)), rel=1e-12)

    def test_bat_converter_efficiency(self, model):
        conv = default_battery_converter(DEFAULT_PACK)
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
#: floats, recorded with the exact reverse-pass gradient.  L-BFGS-B's
#: iterates read every bit of the cost and the gradient, so these values
#: move if either changes.
PLAN_GOLDEN = {
    "cold": {
        "solver_cost": "0x1.dc98dec10f1edp+31",
        "solver_iterations": 16,
        "cap_bus_w": [
            "0x1.636ce0858ee5cp+14",
            "0x1.c0e63a3cc0b28p+14",
            "0x1.16ef6edb925a4p+15",
            "0x1.03efcbecf9ac0p+14",
            "-0x1.5c41632901440p+9",
            "0x1.ecedb35c305f4p+14",
        ],
    },
    "warm": {
        "solver_cost": "0x1.d6fe74609a71ep+31",
        "solver_iterations": 13,
        "cap_bus_w": [
            "0x1.c1554a09b9194p+14",
            "0x1.172742f0b02bep+15",
            "0x1.0462a70d28e58p+14",
            "-0x1.50951cabd9880p+9",
            "0x1.ed625dc676904p+14",
            "0x1.5f88003b121d8p+14",
        ],
    },
    "stats": {
        "solves": 2,
        "total_iterations": 29,
        "last_cost": "0x1.d6fe74609a71ep+31",
        "backend": "scalar",
        "wins_warm": 1,
        "wins_neutral": 0,
        "wins_full_cool": 1,
    },
}


def _cold_and_warm_plans(model):
    """Hex-float record of a cold then a warm scalar solve (N=6, 11
    evaluations per start)."""
    planner = MPCPlanner(model, horizon=6, max_function_evals=11)
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
# the exact gradient: the forward loop with a tape, then one reverse pass

#: Central-difference steps: bus power [W] and inlet [K].
FD_STEPS = (1.0, 1e-3)


def _differences(model, state, cap, inlet, preview):
    """Difference estimates of ``rollout_cost``'s gradient per input.

    Each input is moved by -h, -h/2, +h/2 and +h.  Returns
    ``(central, spread)`` pairs of (cap block, inlet block): the central
    difference, Richardson-extrapolated from h and h/2, and the larger of
    two gaps - between the plain central differences at h and at h/2,
    and between the extrapolated backward and forward differences.  Both
    gaps are second order where the cost is smooth around the input; a
    kink within the step opens at least one of them.
    """
    base = model.rollout_cost(state, cap, inlet, preview, 5.0)
    central, spread = [], []
    for which, h in enumerate(FD_STEPS):
        est, gap = [], []
        for k in range(len(cap)):
            f = {}
            for mult in (-1.0, -0.5, 0.5, 1.0):
                moved = [list(cap), list(inlet)]
                moved[which][k] += mult * h
                f[mult] = model.rollout_cost(state, *moved, preview, 5.0)
            wide = (f[1.0] - f[-1.0]) / (2.0 * h)
            narrow = (f[0.5] - f[-0.5]) / h
            left = (3.0 * base - 4.0 * f[-0.5] + f[-1.0]) / h
            right = (4.0 * f[0.5] - 3.0 * base - f[1.0]) / h
            est.append((4.0 * narrow - wide) / 3.0)
            gap.append(max(abs(wide - narrow), abs(right - left)))
        central.append(np.array(est))
        spread.append(np.array(gap))
    return central, spread


def check_gradient(model, state, cap, inlet, preview, rel=1e-6):
    """Assert the reverse pass matches central differences where smooth.

    An input counts as away from kinks when its difference estimates
    agree within ``rel / 2`` of its block's largest difference (see
    :func:`_differences`).  There each component must match the central
    difference within ``rel`` of that largest difference (a relative
    gradient check per block: bus power, inlet).  Returns
    ``(smooth, total)`` component counts.
    """
    cost, d_cap, d_inlet = model.rollout_cost(
        state, cap, inlet, preview, 5.0, gradient=True
    )
    assert cost == model.rollout_cost(state, cap, inlet, preview, 5.0)
    smooth = total = 0
    blocks = zip((d_cap, d_inlet), *_differences(model, state, cap, inlet, preview))
    for got, fd, gap in blocks:
        got = np.array(got)
        top = np.max(np.abs(fd))
        if top == 0.0:
            assert not np.any(got)
            continue
        ok = gap <= rel / 2.0 * top
        assert np.all(np.abs(got - fd)[ok] <= rel * top)
        smooth += int(np.sum(ok))
        total += fd.size
    return smooth, total


class TestRolloutGradient:
    @pytest.mark.parametrize("name", sorted(BRANCH_CASES))
    def test_cost_bitwise_equals_plain_call(self, model, name):
        args = _mpc_inputs(model, *BRANCH_CASES[name])
        cost, d_cap, d_inlet = model.rollout_cost(*args, 5.0, gradient=True)
        assert cost == model.rollout_cost(*args, 5.0)
        assert len(d_cap) == len(d_inlet) == len(args[1])
        assert all(type(v) is float for v in d_cap + d_inlet)

    def test_random_inputs_cost_bitwise_equals_plain_call(self, model):
        rng = np.random.default_rng(20161107)
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
            cost = model.rollout_cost(*args, 5.0, gradient=True)[0]
            assert cost == model.rollout_cost(*args, 5.0)

    @pytest.mark.parametrize("name", sorted(BRANCH_CASES))
    def test_matches_central_differences_near_branch_case(self, model, name):
        # random points around each branch-covering horizon, off its kinks
        # (its commands sit on several: zero bus power, inlet at T_c)
        rng = np.random.default_rng(sorted(BRANCH_CASES).index(name))
        smooth = total = 0
        for _ in range(6):
            state, cap, inlet, preview = _mpc_inputs(model, *BRANCH_CASES[name])
            cap = cap + rng.uniform(-5e3, 5e3, cap.size)
            inlet = inlet + rng.uniform(-3.0, 3.0, inlet.size)
            counts = check_gradient(model, state, cap, inlet, preview)
            smooth, total = smooth + counts[0], total + counts[1]
        assert smooth >= 0.9 * total

    def test_matches_central_differences_at_random_horizons(self, model):
        rng = np.random.default_rng(20160314)
        smooth = total = 0
        for _ in range(30):
            n = int(rng.integers(1, 13))
            state = (
                rng.uniform(290.0, 316.0),
                rng.uniform(288.0, 314.0),
                rng.uniform(15.0, 95.0),
                rng.uniform(5.0, 100.0),
            )
            counts = check_gradient(
                model,
                state,
                rng.uniform(-60e3, 60e3, n),
                rng.uniform(288.15, 312.0, n),
                rng.uniform(-60e3, 120e3, n),
            )
            smooth, total = smooth + counts[0], total + counts[1]
        assert smooth >= 0.9 * total

    def test_neutral_plan_inlet_tie_has_zero_derivative(self, model):
        """The neutral plan commands the inlet at exactly T_c.  A forward
        difference raises it, and the C3 clamp holds it at T_c, so the tie
        counts as clamped: no step-0 inlet derivative."""
        planner = MPCPlanner(model, horizon=6)
        state = (306.0, 304.25, 70.0, 80.0)
        cap, inlet = planner._denormalize(planner._initial_guess(state[1]))
        assert inlet[0] == state[1]
        _, _, d_inlet = model.rollout_cost(
            state, cap, inlet, np.full(6, 20e3), 5.0, gradient=True
        )
        assert d_inlet[0] == 0.0
        # below T_c the command is free and cooling has a price
        lower = inlet.copy()
        lower[0] -= 0.5
        _, _, d_lower = model.rollout_cost(
            state, cap, lower, np.full(6, 20e3), 5.0, gradient=True
        )
        assert d_lower[0] != 0.0

    def test_upper_bound_bus_command_is_not_clipped(self, model):
        """A bus command of exactly ``cap_pmax`` (z = 1, where the forward
        difference steps down) keeps its derivative; beyond it, zero."""
        state, inlet, preview = (305.0, 303.0, 80.0, 90.0), [300.0] * 3, [20e3] * 3

        def d_cap(command):
            _, grad, _ = model.rollout_cost(
                state, [command] * 3, inlet, preview, 5.0, gradient=True
            )
            return grad

        assert all(d != 0.0 for d in d_cap(model.cap_pmax))
        assert d_cap(model.cap_pmax + 1.0) == [0.0] * 3
