"""Batched-kernel equivalence: `BatchPredictionModel` vs the scalar rollout.

The vectorized kernel is a performance backend, not a second model: every
cost it produces must match the scalar reference `PredictionModel._rollout`
to numerical round-off (the budget is 1e-9; the kernel actually agrees to
~1e-14 because both paths evaluate the same arithmetic).  The hypothesis
suite drives randomized states, commands, horizons, and batch sizes; the
directed tests pin the guard branches (SoE floor, C6 charge headroom) that
random draws may visit only rarely.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.pack import DEFAULT_PACK
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.core.cost import CostWeights
from repro.core import rollout_vec
from repro.core.rollout import TEMP_MAX_K, PredictionModel
from repro.core.rollout_vec import BatchPredictionModel
from repro.hees.hybrid import default_battery_converter, default_cap_converter
from repro.ultracap.params import UltracapParams

CAP = UltracapParams()
SCALAR = PredictionModel(
    DEFAULT_PACK,
    CAP,
    DEFAULT_COOLANT,
    default_battery_converter(DEFAULT_PACK),
    default_cap_converter(CAP.rated_voltage_v, CAP.max_power_w),
    CostWeights(),
)
BATCH = BatchPredictionModel.from_scalar(SCALAR)

REL_TOL = 1e-9  # the acceptance budget; observed agreement is ~1e-14


def _finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@st.composite
def rollout_case(draw):
    """A random (state, cap (M,N), inlet (M,N), preview (N,), dt) case.

    Spans both guard regimes: SoE down to 2 % (the floor clamps stored
    energy at 1 %) and previews up to ~95 % of the pack rating (where a
    charging cap command hits the C6 headroom guard).
    """
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=5))
    state = (
        draw(_finite(290.0, 313.0)),  # T_b
        draw(_finite(289.0, 313.0)),  # T_c
        draw(_finite(25.0, 95.0)),    # SoC
        draw(_finite(2.0, 100.0)),    # SoE
    )
    cap = draw(
        st.lists(
            st.lists(_finite(-60_000.0, 60_000.0), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    inlet = draw(
        st.lists(
            st.lists(_finite(288.15, 315.0), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    preview = draw(
        st.lists(_finite(-10_000.0, SCALAR.pack_pmax * 0.95), min_size=n, max_size=n)
    )
    dt = draw(_finite(1.0, 30.0))
    return state, np.array(cap), np.array(inlet), np.array(preview), dt


@given(rollout_case())
@settings(max_examples=40)
def test_costs_match_scalar(case):
    state, cap, inlet, preview, dt = case
    costs = BATCH.rollout_costs(state, cap, inlet, preview, dt)
    assert costs.shape == (cap.shape[0],)
    for i in range(cap.shape[0]):
        ref = SCALAR.rollout_cost(state, cap[i], inlet[i], preview, dt)
        assert math.isclose(costs[i], ref, rel_tol=REL_TOL, abs_tol=1e-6)


class TestGuardBranches:
    """Directed coverage of the clamped branches."""

    def test_soe_floor_guard(self):
        """Deep discharge from a nearly-empty bank hits the 1 % floor."""
        state = (300.0, 299.0, 80.0, 2.0)
        n = 6
        cap = np.full((1, n), 40_000.0)  # discharge far beyond what's stored
        inlet = np.full((1, n), 320.0)
        preview = np.full(n, 45_000.0)
        (cost,) = BATCH.rollout_costs(state, cap, inlet, preview, 5.0)
        ref = SCALAR.rollout(state, cap[0], inlet[0], preview, 5.0)
        # the guard engaged: stored energy pinned at its floor, not negative
        assert min(ref.soes) >= 0.99
        assert math.isclose(cost, ref.cost, rel_tol=REL_TOL)

    def test_c6_charge_headroom_guard(self):
        """Charging the cap under a near-limit load must not starve it."""
        state = (298.0, 298.0, 90.0, 50.0)
        n = 4
        heavy = SCALAR.pack_pmax * 0.95
        cap = np.full((1, n), -60_000.0)  # aggressive charge command
        inlet = np.full((1, n), 320.0)
        preview = np.full(n, heavy)
        (cost,) = BATCH.rollout_costs(state, cap, inlet, preview, 5.0)
        ref = SCALAR.rollout(state, cap[0], inlet[0], preview, 5.0)
        # the guard curtailed the charge: SoE cannot rise much
        assert ref.soes[-1] < 55.0
        assert math.isclose(cost, ref.cost, rel_tol=REL_TOL)

    def test_mixed_batch_spans_both_guards(self):
        """One kernel call whose rows exercise different branches."""
        state = (305.0, 304.0, 70.0, 3.0)
        n = 5
        cap = np.array(
            [
                [35_000.0] * n,   # deep discharge -> SoE floor
                [-50_000.0] * n,  # charge under load -> C6 headroom
                [0.0] * n,        # neutral
            ]
        )
        inlet = np.array([[320.0] * n, [295.0] * n, [288.15] * n])
        preview = np.full(n, SCALAR.pack_pmax * 0.9)
        costs = BATCH.rollout_costs(state, cap, inlet, preview, 5.0)
        refs = [SCALAR.rollout(state, cap[i], inlet[i], preview, 5.0) for i in range(3)]
        assert min(refs[0].soes) == pytest.approx(1.0, abs=1e-6)  # floor
        assert refs[1].soes[-1] < state[3] + 5.0  # headroom-capped charge
        for cost, ref in zip(costs, refs):
            assert math.isclose(cost, ref.cost, rel_tol=REL_TOL)


class TestStackedKernel:
    """`rollout_costs_stacked`: per-row states/previews/bank energies.

    The stacked entry point exists so :class:`repro.core.mpc.MPCPlannerVec`
    can evaluate many scenarios' candidates in one kernel call.  Stacking
    must be free: every row's cost is *bitwise* the cost the per-scenario
    batched call produces, and therefore within the 1e-9 budget of the
    scalar reference.  Every operation is elementwise over rows - the
    hinge sum too - so a row's arithmetic never depends on where it sits.
    """

    N = 6
    DT = 5.0

    def _rows(self):
        states = np.array(
            [
                (300.0, 299.0, 80.0, 70.0),
                (308.0, 306.0, 60.0, 15.0),
                (294.0, 295.0, 90.0, 40.0),
            ]
        )
        previews = np.array(
            [
                [15_000.0] * self.N,
                [45_000.0] * self.N,
                [-5_000.0] * self.N,
            ]
        )
        cap = np.array(
            [[8_000.0] * self.N, [35_000.0] * self.N, [-20_000.0] * self.N]
        )
        inlet = np.array(
            [[292.0] * self.N, [315.0] * self.N, [288.15] * self.N]
        )
        return states, previews, cap, inlet

    def test_rows_match_per_scenario_batched_calls_bitwise(self):
        states, previews, cap, inlet = self._rows()
        stacked = BATCH.rollout_costs_stacked(
            states, cap, inlet, previews, self.DT
        )
        assert stacked.shape == (3,)
        for i in range(3):
            (ref,) = BATCH.rollout_costs(
                tuple(states[i]), cap[i : i + 1], inlet[i : i + 1],
                previews[i], self.DT,
            )
            assert stacked[i] == ref, i  # bitwise

    def test_rows_match_scalar_reference(self):
        states, previews, cap, inlet = self._rows()
        stacked = BATCH.rollout_costs_stacked(
            states, cap, inlet, previews, self.DT
        )
        for i in range(3):
            ref = SCALAR.rollout_cost(
                tuple(states[i]), cap[i], inlet[i], previews[i], self.DT
            )
            assert math.isclose(stacked[i], ref, rel_tol=REL_TOL), i

    def test_per_row_bank_energy(self):
        """Rows may come from scenarios with different ultracap sizes."""
        small = UltracapParams(capacitance_f=5_000.0)
        scalar_small = PredictionModel(
            DEFAULT_PACK,
            small,
            DEFAULT_COOLANT,
            default_battery_converter(DEFAULT_PACK),
            default_cap_converter(small.rated_voltage_v, small.max_power_w),
            CostWeights(),
        )
        states, previews, cap, inlet = self._rows()
        ecap = np.array(
            [SCALAR.ecap, scalar_small.ecap, SCALAR.ecap]
        )
        stacked = BATCH.rollout_costs_stacked(
            states, cap, inlet, previews, self.DT, ecap=ecap
        )
        refs = [SCALAR, scalar_small, SCALAR]
        for i in range(3):
            ref = refs[i].rollout_cost(
                tuple(states[i]), cap[i], inlet[i], previews[i], self.DT
            )
            assert math.isclose(stacked[i], ref, rel_tol=REL_TOL), i
        # the bank size actually matters for the discharging rows
        uniform = BATCH.rollout_costs_stacked(
            states, cap, inlet, previews, self.DT
        )
        assert stacked[1] != uniform[1]

    def test_binding_hinges_cost_the_same_at_every_position(self):
        """A row on which the C1 and C4 hinges both bind costs the same,
        bit for bit, wherever it sits in a 33-row call.  (A BLAS matvec
        over the hinges would round it differently in the tail column.)"""
        n, b = 2, 33
        state = np.array([315.0, 312.8, 18.6, 10.1])
        cap, inlet, preview = np.full(n, 1_000.0), np.full(n, 315.0), np.full(n, 210e3)
        ref = SCALAR.rollout(tuple(state), cap, inlet, preview, self.DT)
        assert min(ref.temps_k[1:]) > TEMP_MAX_K and min(ref.socs[1:]) < 20.0
        (alone,) = BATCH.rollout_costs_stacked(
            state[None, :], cap[None, :], inlet[None, :], preview[None, :], self.DT
        )
        rng = np.random.default_rng(7)
        states = np.column_stack(
            [
                rng.uniform(292.0, 312.0, b),
                rng.uniform(291.0, 311.0, b),
                rng.uniform(30.0, 90.0, b),
                rng.uniform(10.0, 100.0, b),
            ]
        )
        caps = rng.uniform(-60_000.0, 60_000.0, (b, n))
        inlets = rng.uniform(288.15, 315.0, (b, n))
        previews = rng.uniform(-10_000.0, SCALAR.pack_pmax * 0.95, (b, n))
        for p in range(b):
            rows = [a.copy() for a in (states, caps, inlets, previews)]
            for a, row in zip(rows, (state, cap, inlet, preview)):
                a[p] = row
            costs = BATCH.rollout_costs_stacked(*rows, self.DT)
            assert costs[p] == alone, p


def materialized_stencil(model, states, cap, inlet, previews, dt, ecap, stencil):
    """A stencil's costs from plain rows of one stacked call.

    Builds every stencil row in full - row ``i`` with step ``k`` of one
    command replaced - and returns ``(cost, alt)`` shaped like
    ``rollout_costs_stacked(..., stencil=stencil)``.  The rows go in the
    kernel's own layout (given rows, then per step k the cap+, cap-,
    inlet+ and inlet- rows), though a row's cost does not depend on its
    position.
    """
    m, n = cap.shape
    reps = 4 * n + 1
    caps, inlets = [cap], [inlet]
    for k in range(n):
        for v, alt in enumerate(stencil):
            row_cap, row_inlet = cap.copy(), inlet.copy()
            target = row_cap if v < 2 else row_inlet
            target[:, k] = alt[:, k]
            caps.append(row_cap)
            inlets.append(row_inlet)
    costs = model.rollout_costs_stacked(
        np.tile(states, (reps, 1)),
        np.concatenate(caps),
        np.concatenate(inlets),
        np.tile(previews, (reps, 1)),
        dt,
        ecap=np.tile(ecap, reps),
    ).reshape(reps, m)
    return costs[0], costs[1:].reshape(n, 4, m).transpose(1, 2, 0)


class TestStencil:
    """`rollout_costs_stacked(..., stencil=...)`: rows sharing a prefix.

    A stencil row that perturbs step k joins the batch at step k from its
    given row's state and running sums.  Its cost must be bitwise the
    cost of the same row evaluated in full (:func:`materialized_stencil`),
    under both join schedules, through every guard branch.
    """

    N = 5
    DT = 5.0
    KINDS = (
        "random",
        "soe_floor",
        "charge_headroom",
        "disc_negative",
        "terminal_depleted",
        "terminal_hot",
    )

    def _rows(self, kind, b, rng):
        """``b`` rows of one kind (row 0 keeps the model's bank energy)."""
        n = self.N
        states = np.column_stack(
            [
                rng.uniform(292.0, 312.0, b),
                rng.uniform(291.0, 311.0, b),
                rng.uniform(30.0, 90.0, b),
                rng.uniform(10.0, 100.0, b),
            ]
        )
        cap = rng.uniform(-60_000.0, 60_000.0, (b, n))
        inlet = rng.uniform(288.15, 315.0, (b, n))
        previews = rng.uniform(-10_000.0, SCALAR.pack_pmax * 0.95, (b, n))
        if kind == "soe_floor":  # deep discharge of a nearly empty bank
            states[:, 3] = rng.uniform(1.5, 3.0, b)
            cap[:] = rng.uniform(35_000.0, 60_000.0, (b, n))
        elif kind == "charge_headroom":  # charging under a near-limit load
            states[:, 3] = 50.0
            cap[:] = rng.uniform(-60_000.0, -50_000.0, (b, n))
            previews[:] = SCALAR.pack_pmax * rng.uniform(0.9, 0.95, (b, n))
        elif kind == "disc_negative":  # a load beyond what the cells deliver
            states[:, 2] = 80.0
            cap[:] = 0.0
            previews[:] = SCALAR.pack_pmax * rng.uniform(3.0, 3.5, (b, n))
        elif kind == "terminal_depleted":  # ends below the terminal SoE
            states[:, 3] = rng.uniform(20.0, 40.0, b)
            cap[:] = rng.uniform(20_000.0, 40_000.0, (b, n))
        elif kind == "terminal_hot":  # ends above the terminal temperature
            states[:, :2] = rng.uniform(312.0, 314.0, (b, 1))
            inlet[:] = 315.0
        ecap = SCALAR.ecap * rng.uniform(0.2, 1.5, b)
        ecap[0] = SCALAR.ecap
        return states, cap, inlet, previews, ecap

    def _check_kind(self, kind, states, cap, inlet, previews):
        """Row 0 of each directed kind takes its branch (scalar reference)."""
        state = tuple(states[0])
        ref = SCALAR.rollout(state, cap[0], inlet[0], previews[0], self.DT)
        if kind == "soe_floor":
            assert ref.soes[-1] == pytest.approx(1.0, abs=1e-6)
        elif kind == "charge_headroom":
            assert ref.soes[-1] < states[0, 3] + 5.0
        elif kind == "disc_negative":
            voc = SCALAR._voc(states[0, 2])
            res = SCALAR._res(states[0, 2], states[0, 0])
            assert voc * voc < 4.0 / SCALAR.n_cells * res * previews[0, 0]
        elif kind == "terminal_depleted":
            assert ref.soes[-1] < SCALAR.w.terminal_soe_ref
        elif kind == "terminal_hot":
            assert ref.temps_k[-1] > SCALAR.w.terminal_temp_ref

    @pytest.mark.parametrize("prefix_min_rows", [1, 10**9], ids=["prefix", "step0"])
    @pytest.mark.parametrize("b", [1, 2, 33])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_materialized_bitwise(self, kind, b, prefix_min_rows, monkeypatch):
        monkeypatch.setattr(rollout_vec, "PREFIX_MIN_ROWS", prefix_min_rows)
        rng = np.random.default_rng([b, self.KINDS.index(kind)])
        states, cap, inlet, previews, ecap = self._rows(kind, b, rng)
        self._check_kind(kind, states, cap, inlet, previews)
        stencil = (cap + 7_000.0, cap - 7_000.0, inlet + 4.0, inlet - 4.0)
        cost, alt = BATCH.rollout_costs_stacked(
            states, cap, inlet, previews, self.DT, ecap=ecap, stencil=stencil
        )
        assert cost.shape == (b,) and alt.shape == (4, b, self.N)
        ref_cost, ref_alt = materialized_stencil(
            BATCH, states, cap, inlet, previews, self.DT, ecap, stencil
        )
        assert np.array_equal(cost, ref_cost)
        assert np.array_equal(alt, ref_alt)

    def test_rejects_a_misshapen_stencil(self):
        rng = np.random.default_rng(4)
        states, cap, inlet, previews, ecap = self._rows("random", 3, rng)
        for stencil in ((cap, cap, inlet), (cap, cap, inlet, inlet[:, :-1])):
            with pytest.raises(ValueError, match="stencil"):
                BATCH.rollout_costs_stacked(
                    states, cap, inlet, previews, self.DT, stencil=stencil
                )


class TestBatchInterface:
    def test_from_scalar_shares_parameters(self):
        vec = BatchPredictionModel.from_scalar(SCALAR)
        assert vec.pack_pmax == SCALAR.pack_pmax
        assert vec.cap_pmax == SCALAR.cap_pmax

    def test_from_scalar_is_idempotent(self):
        assert BatchPredictionModel.from_scalar(BATCH) is BATCH

    def test_single_row_matches_fast_path(self):
        state = (305.0, 303.0, 80.0, 70.0)
        cap = [[5_000.0] * 6]
        inlet = [[295.0] * 6]
        preview = [15_000.0] * 6
        costs = BATCH.rollout_costs(state, cap, inlet, preview, 5.0)
        ref = SCALAR.rollout_cost(state, cap[0], inlet[0], preview, 5.0)
        assert costs.shape == (1,)
        assert costs[0] == pytest.approx(ref, rel=1e-12)
