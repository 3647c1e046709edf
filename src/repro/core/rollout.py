"""Fast scalar prediction model for the OTEM MPC (single-shooting rollout).

This mirrors the plant physics - cell electrical model (Eq. 1-3), heat
generation (Eq. 4), aging (Eq. 5), converter efficiencies, and the
trapezoidal thermal update (Eq. 17) - in plain-float arithmetic with all
parameters pre-extracted, because the optimizer evaluates it thousands of
times per control step.  ``tests/core/test_rollout.py`` asserts that a
rollout matches the real plant step-for-step within tight tolerance.

The rollout returns the OTEM objective (Eq. 19) plus hinge penalties for the
softened state constraints and the terminal restoration-cost terms.

Where the floats come from: the MPC passes ndarrays (the denormalized plan,
the padded preview) and often a NumPy-scalar state.  Indexing those yields
``np.float64``, whose arithmetic costs about three times that of ``float``
for the same IEEE doubles.  So ``PredictionModel._rollout`` converts every
input to ``float`` once at entry, binds the model constants to locals and
calls each model piece once per step; the loop then never touches NumPy.
``+ - * /``, ``math.sqrt``, ``math.exp`` and ``**`` round identically on
both types, so the costs are bit for bit those of the NumPy-scalar loop
(``tests/core/test_rollout.py::TestMPCInputTypes`` pins them).

One call can also return the exact gradient of the cost with respect to
every command - the scalar MPC's L-BFGS-B gradient.  With
``gradient=True`` the forward loop (the same loop, the same float
operations, so the cost is bit for bit the plain call's) records a tape:
the state entering every step, the step's intermediate values and which
branch each clamp and guard took.  A hand-written reverse pass then walks
the tape backwards once, carrying the adjoints of (T_b, T_c, SoC, SoE)
through the terminal costs, the hinges, the thermal update, the battery
and ultracapacitor branches and the cooling clamps.  The whole call costs
about 1.5 plain calls, whatever N; at N=12 the forward-difference stencil
it replaced cost 168 step evaluations, 14 plain calls' worth.

The gradient is that of the branch the forward pass took.  Where an input
sits exactly on a kink, it is the derivative on the side a forward
difference would probe: the increasing side (``ti >= tc`` counts as
clamped to T_c, so a neutral inlet command gets zero), or the decreasing
side on the upper box bound (a bus command of exactly ``cap_pmax`` is not
clipped).  The ties at T_c are not rare: the MPC's neutral plan commands
the inlet at T_c, and on mild cycles the solved plan keeps it there
(``tests/core/test_rollout.py::TestRolloutGradient``).

This scalar loop is the *semantic reference*;
:class:`repro.core.rollout_vec.BatchPredictionModel` vectorizes the same
physics over a batch of candidate plans for the solver hot path and is
equivalence-tested against it to 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.battery.pack import PackConfig
from repro.cooling.coolant import CoolantParams
from repro.core.cost import CostWeights
from repro.hees.converter import DCDCConverter
from repro.ultracap.params import UltracapParams
from repro.utils.units import GAS_CONSTANT

#: Constraint C1 upper temperature bound used by the MPC [K] (40 C).
TEMP_MAX_K = 313.15


@dataclass(frozen=True)
class RolloutResult:
    """Detailed outcome of one predicted trajectory.

    Attributes
    ----------
    cost:
        Total objective (Eq. 19 terms + penalties + terminal).
    objective:
        The pure Eq. 19 part.
    penalty:
        The constraint-hinge part.
    terminal:
        The restoration-cost part.
    temps_k / coolant_k / socs / soes:
        Predicted state trajectories, length N+1 (including the initial
        state).
    cooling_j / qloss_percent / hees_j:
        Per-horizon totals of the three Eq. 19 ingredients.
    """

    cost: float
    objective: float
    penalty: float
    terminal: float
    temps_k: tuple
    coolant_k: tuple
    socs: tuple
    soes: tuple
    cooling_j: float
    qloss_percent: float
    hees_j: float


class PredictionModel:
    """Pre-compiled scalar plant model for horizon rollouts.

    Parameters
    ----------
    pack_config:
        Battery pack layout (cell parameters are taken from it).
    cap_params:
        Ultracapacitor bank parameters.
    coolant:
        Cooling-loop parameters.
    battery_converter / cap_converter:
        Converter ports as built by the hybrid plant.
    weights:
        Objective weights.
    """

    def __init__(
        self,
        pack_config: PackConfig,
        cap_params: UltracapParams,
        coolant: CoolantParams,
        battery_converter: DCDCConverter,
        cap_converter: DCDCConverter,
        weights: CostWeights,
    ):
        cell = pack_config.cell
        self.w = weights
        # battery constants
        self.n_cells = pack_config.cell_count
        self.capacity_c = cell.capacity_ah * 3600.0
        self.voc_a = cell.voc_exp_a
        self.voc_b = cell.voc_exp_b
        self.voc_p4 = cell.voc_p4
        self.voc_p3 = cell.voc_p3
        self.voc_p2 = cell.voc_p2
        self.voc_p1 = cell.voc_p1
        self.voc_p0 = cell.voc_p0
        self.res_a = cell.res_exp_a
        self.res_b = cell.res_exp_b
        self.res_c = cell.res_base
        self.res_tk = cell.res_temp_k
        self.res_tref = cell.res_ref_temp_k
        self.entropy = cell.entropy_coeff_v_per_k
        self.aging_l1 = cell.aging_prefactor
        self.aging_l2 = cell.aging_activation_j_per_mol
        self.aging_l3 = cell.aging_current_exp
        self.i_max_cell = cell.max_current_a
        self.pack_pmax = pack_config.max_power_w
        self.pack_series = pack_config.series
        self.cb = pack_config.heat_capacity_j_per_k
        # ultracap constants
        self.ecap = cap_params.energy_capacity_j
        self.vr = cap_params.rated_voltage_v
        self.cap_pmax = cap_params.max_power_w
        self.soe_min = cap_params.soe_min_percent
        self.soe_max = cap_params.soe_max_percent
        # converters
        bp = battery_converter.params
        self.bc_eta_max, self.bc_eta_min = bp.eta_max, bp.eta_min
        self.bc_droop, self.bc_vref = bp.droop, bp.v_ref
        cp = cap_converter.params
        self.cc_eta_max, self.cc_eta_min = cp.eta_max, cp.eta_min
        self.cc_droop, self.cc_vref = cp.droop, cp.v_ref
        # cooling loop
        self.h = coolant.h_battery_coolant_w_per_k
        self.cc_heat = coolant.coolant_heat_capacity_j_per_k
        self.wc = coolant.flow_capacity_rate_w_per_k
        self.eta_cool = coolant.cooler_efficiency
        self.pc_max = coolant.max_cooler_power_w
        self.min_inlet = coolant.min_inlet_temp_k
        self.pump = coolant.pump_power_w

    # ------------------------------------------------------------------ #
    # scalar model pieces (mirror repro.battery / repro.hees / repro.cooling)

    def _voc(self, soc: float) -> float:
        return (
            self.voc_a * math.exp(self.voc_b * soc)
            + self.voc_p4 * soc**4
            + self.voc_p3 * soc**3
            + self.voc_p2 * soc**2
            + self.voc_p1 * soc
            + self.voc_p0
        )

    def _res(self, soc: float, temp_k: float) -> float:
        base = self.res_a * math.exp(self.res_b * soc) + self.res_c
        return base * math.exp(self.res_tk * (1.0 / temp_k - 1.0 / self.res_tref))

    def _cap_eta(self, vcap: float) -> float:
        sag = 1.0 - vcap / self.cc_vref
        eta = self.cc_eta_max - self.cc_droop * sag * sag
        return min(max(eta, self.cc_eta_min), self.cc_eta_max)

    def _bat_eta(self, vpack: float) -> float:
        sag = 1.0 - vpack / self.bc_vref
        eta = self.bc_eta_max - self.bc_droop * sag * sag
        return min(max(eta, self.bc_eta_min), self.bc_eta_max)

    # ------------------------------------------------------------------ #

    def rollout_cost(
        self,
        state: tuple,
        cap_bus,
        inlet,
        preview_w,
        dt: float,
        gradient: bool = False,
    ):
        """Objective of the trajectory (fast path: no trajectory storage).

        Parameters
        ----------
        state:
            (T_b, T_c, SoC, SoE) at the start of the horizon.
        cap_bus:
            Ultracap bus-power commands per step [W], length N (any
            sequence of numbers, including an ndarray; read once into a
            list of floats).
        inlet:
            Coolant inlet commands per step [K], length N.
        preview_w:
            Predicted EV power requests per step [W], length N.
        dt:
            Horizon step duration [s].
        gradient:
            If true, return ``(cost, d_cap, d_inlet)``: the same cost and
            its exact derivatives with respect to ``cap_bus`` [1/W] and
            ``inlet`` [1/K], as lists of N floats (see the module
            docstring for the reverse pass and its tie rule).
        """
        return self._rollout(state, cap_bus, inlet, preview_w, dt, False, gradient)

    def rollout(
        self,
        state: tuple,
        cap_bus,
        inlet,
        preview_w,
        dt: float,
    ) -> RolloutResult:
        """Detailed trajectory (for tests, TEB analysis and diagnostics)."""
        return self._rollout(state, cap_bus, inlet, preview_w, dt, True, False)

    def _rollout(self, state, cap_bus, inlet, preview_w, dt, detailed, gradient):
        # plain floats in, plain floats throughout (see the module docstring)
        tb, tc, soc, soe = map(float, state)
        cap_bus = list(map(float, cap_bus))
        inlet = list(map(float, inlet))
        preview_w = list(map(float, preview_w))
        dt = float(dt)
        n = len(cap_bus)

        w = self.w
        w1, w2, w3 = w.w1, w.w2, w.w3
        hinge_temp, hinge_soc = w.hinge_temp, w.hinge_soc
        hinge_soe, hinge_power = w.hinge_soe, w.hinge_power
        voc_of, res_of = self._voc, self._res
        cap_eta, bat_eta = self._cap_eta, self._bat_eta
        exp, sqrt = math.exp, math.sqrt
        gas = GAS_CONSTANT
        temp_max = TEMP_MAX_K
        n_cells, series, capacity_c = self.n_cells, self.pack_series, self.capacity_c
        entropy = self.entropy
        l1, neg_l2, l3 = self.aging_l1, -self.aging_l2, self.aging_l3
        i_max = self.i_max_cell
        ecap, vr, cap_pmax = self.ecap, self.vr, self.cap_pmax
        soe_min, soe_max = self.soe_min, self.soe_max
        wc, eta_cool, pump = self.wc, self.eta_cool, self.pump
        min_inlet = self.min_inlet
        cool_drop = eta_cool * self.pc_max / wc
        # trapezoidal Eq. 17 (same as CoolingLoop): the matrix depends on dt only
        h_half = self.h / 2.0
        cb_dt = self.cb / dt
        cc_dt = self.cc_heat / dt
        wc_half = wc / 2.0
        a11 = cb_dt + h_half
        a12 = a21 = -self.h / 2.0
        a22 = cc_dt + h_half + wc_half
        det = a11 * a22 - a12 * a21

        objective = penalty = 0.0
        cooling_j = qloss = hees_j = 0.0
        # the state entering every step (and the final one), kept for the
        # detailed result and the reverse pass; the tape holds each step's
        # intermediates and branches for the reverse pass only
        trail = [(tb, tc, soc, soe)] if detailed or gradient else None
        tape = [] if gradient else None
        for k in range(n):
            # --- cooling command (C2/C3 clamps, Eq. 16) ---
            # ti_src: where the inlet came from - 0 the command, 1 T_c,
            # 2 the cooler limit T_c - cool_drop, 3 the fixed floor
            coldest = tc - cool_drop
            cold_src = 2
            if coldest < min_inlet:
                coldest = min_inlet
                cold_src = 3
            ti = inlet[k]
            ti_src = 0
            if ti < coldest:
                ti = coldest
                ti_src = cold_src
            if ti >= tc:
                ti = tc
                ti_src = 1
            p_cool = wc * (tc - ti) / eta_cool
            total = preview_w[k] + p_cool + pump

            # --- ultracapacitor branch ---
            # cap_src: what set the bus power - 0 the command, 1 the
            # rating clip, 2 the stored-energy guard, 3 the charge headroom
            pcb = cap_bus[k]
            cap_src = 0
            if pcb > cap_pmax:
                pcb = cap_pmax
                cap_src = 1
            elif pcb < -cap_pmax:
                pcb = -cap_pmax
                cap_src = 1
            soe_before = soe
            soe_floor = max(soe, 1.0)
            vcap = vr * sqrt(soe_floor / 100.0)
            eta_c = cap_eta(vcap)
            cap_port = pcb / eta_c if pcb >= 0.0 else pcb * eta_c
            # hard guard: never predict below 1% stored energy
            max_out = (soe - 1.0) / 100.0 * ecap / dt
            if cap_port > max_out:
                cap_port = max_out if max_out > 0.0 else 0.0
                pcb = cap_port * eta_c
                cap_src = 2
            de_cap = cap_port * dt
            soe = soe - 100.0 * de_cap / ecap

            # --- battery branch ---
            voc = voc_of(soc)
            res = res_of(soc, tb)
            eta_b = bat_eta(voc * series)
            # C6 with voltage sag: the true deliverable limit is at the cell
            # current rating, not the nameplate power
            bat_max_port = i_max * (voc - i_max * res) * n_cells
            # mirror the plant's guard: charging the bank may not displace
            # load delivery (battery bus power is capped at its C6 limit)
            if pcb < 0.0:
                headroom = bat_max_port * eta_b - (total if total > 0.0 else 0.0)
                if headroom < 0.0:
                    headroom = 0.0
                if -pcb > headroom:
                    pcb = -headroom
                    cap_port = pcb * eta_c
                    cap_src = 3
                    # redo the bank bookkeeping with the reduced charge
                    soe = soe_before - 100.0 * cap_port * dt / ecap
                    de_cap = cap_port * dt
            bat_bus = total - pcb
            bat_port = bat_bus / eta_b if bat_bus >= 0.0 else bat_bus * eta_b
            per_cell = bat_port / n_cells
            disc = voc * voc - 4.0 * res * per_cell
            if disc < 0.0:
                current = voc / (2.0 * res)
            else:
                current = (voc - sqrt(disc)) / (2.0 * res)
            if current > i_max:
                current = i_max
            elif current < -i_max:
                current = -i_max
            heat_cell = current * current * res + current * tb * entropy
            heat = heat_cell * n_cells if heat_cell > 0.0 else 0.0
            q_inc = l1 * exp(neg_l2 / (gas * tb)) * abs(current) ** l3 * dt
            de_bat = voc * current * n_cells * dt
            soc = soc - 100.0 * current * dt / capacity_c

            # --- thermal update ---
            b1 = cb_dt * tb - h_half * (tb - tc) + heat
            b2 = cc_dt * tc + h_half * (tb - tc) + wc * ti - wc_half * tc
            tb = (b1 * a22 - a12 * b2) / det
            tc = (a11 * b2 - a21 * b1) / det

            # --- accumulate objective (Eq. 19) ---
            objective += w1 * p_cool * dt + w2 * q_inc + w3 * (de_bat + de_cap)
            cooling_j += p_cool * dt
            qloss += q_inc
            hees_j += de_bat + de_cap

            # --- constraint hinges (C1, C4, C5, C6) ---
            over_t = tb - temp_max
            if over_t > 0.0:
                penalty += hinge_temp * over_t * over_t
            under_soc = 20.0 - soc
            if under_soc > 0.0:
                penalty += hinge_soc * under_soc * under_soc
            under_soe = soe_min - soe
            if under_soe > 0.0:
                penalty += hinge_soe * under_soe * under_soe
            over_soe = soe - soe_max
            if over_soe > 0.0:
                penalty += hinge_soe * over_soe * over_soe
            over_p = bat_port - bat_max_port
            if over_p > 0.0:
                penalty += hinge_power * over_p * over_p

            if trail is not None:
                trail.append((tb, tc, soc, soe))
            if tape is not None:
                tape.append(
                    (
                        ti_src,
                        cap_src,
                        pcb,
                        cap_port,
                        eta_c,
                        vcap,
                        voc,
                        res,
                        eta_b,
                        total,
                        bat_max_port,
                        bat_bus,
                        bat_port,
                        disc,
                        current,
                        heat_cell,
                        q_inc,
                    )
                )

        # --- terminal restoration costs ---
        soe_deficit = w.terminal_soe_ref - soe
        terminal = 0.0
        if soe_deficit > 0.0:
            deficit_j = soe_deficit / 100.0 * ecap
            terminal += w3 * w.terminal_energy_gain * deficit_j
            # aging price of the post-horizon refill: the battery will push
            # deficit_j at the assumed refill power, incurring Eq. 5 loss at
            # the horizon-end temperature - so draining the bank is never a
            # free way to rest the battery
            refill_i = w.terminal_refill_power_w / (n_cells * voc_of(soc))
            refill_time = deficit_j / w.terminal_refill_power_w
            refill_qloss = (
                l1 * exp(neg_l2 / (gas * tb)) * abs(refill_i) ** l3 * refill_time
            )
            terminal += w2 * refill_qloss
        temp_excess = tb - w.terminal_temp_ref
        if temp_excess > 0.0:
            # cooling-energy price of restoring the reference temperature
            terminal += w1 * w.terminal_thermal_gain * self.cb * temp_excess / eta_cool
            # aging price of driving on with a hot pack: extra Eq. 5 rate at
            # the horizon-end temperature vs the reference, over the assumed
            # future driving time - this is what makes pre-cooling rational
            # inside a horizon too short to see its own aging payoff
            i_typ = w.terminal_typical_current_a**l3
            rate_hot = l1 * exp(neg_l2 / (gas * tb)) * i_typ
            rate_ref = l1 * exp(neg_l2 / (gas * w.terminal_temp_ref)) * i_typ
            terminal += w2 * (rate_hot - rate_ref) * w.terminal_future_s
        cost = objective + penalty + terminal

        if gradient:
            return (cost, *self._reverse(trail, tape, dt))
        if not detailed:
            return cost
        temps, coolants, socs, soes = zip(*trail)
        return RolloutResult(
            cost=cost,
            objective=objective,
            penalty=penalty,
            terminal=terminal,
            temps_k=temps,
            coolant_k=coolants,
            socs=socs,
            soes=soes,
            cooling_j=cooling_j,
            qloss_percent=qloss,
            hees_j=hees_j,
        )

    def _reverse(self, trail, tape, dt):
        """Reverse pass of :meth:`_rollout`: ``(d_cap, d_inlet)``.

        Walks the forward pass's tape backwards, carrying the adjoints
        ``g_*`` (d cost / d value) of the state leaving each step into the
        state entering it.  Every line is the derivative of the forward
        line it names, on the branch the tape recorded.
        """
        w = self.w
        w1, w2, w3 = w.w1, w.w2, w.w3
        exp, sqrt = math.exp, math.sqrt
        gas = GAS_CONSTANT
        n_cells, series = self.n_cells, self.pack_series
        entropy = self.entropy
        l1, l2, l3 = self.aging_l1, self.aging_l2, self.aging_l3
        i_max = self.i_max_cell
        ecap = self.ecap
        soe_min, soe_max = self.soe_min, self.soe_max
        wc, eta_cool = self.wc, self.eta_cool
        h_half = self.h / 2.0
        cb_dt = self.cb / dt
        cc_dt = self.cc_heat / dt
        wc_half = wc / 2.0
        a11 = cb_dt + h_half
        a12 = a21 = -self.h / 2.0
        a22 = cc_dt + h_half + wc_half
        det = a11 * a22 - a12 * a21
        voc_a, voc_b = self.voc_a, self.voc_b
        voc_p4, voc_p3, voc_p2 = self.voc_p4, self.voc_p3, self.voc_p2
        res_a, res_b = self.res_a, self.res_b
        res_tk, res_tref = self.res_tk, self.res_tref
        cc_lo, cc_hi = self.cc_eta_min, self.cc_eta_max
        cc_slope = 2.0 * self.cc_droop / self.cc_vref
        cc_vref = self.cc_vref
        bc_lo, bc_hi = self.bc_eta_min, self.bc_eta_max
        bc_slope = 2.0 * self.bc_droop / self.bc_vref * series
        bc_vref = self.bc_vref
        cool_gain = wc / eta_cool
        soc_per_amp = -100.0 * dt / self.capacity_c
        soe_per_watt = -100.0 * dt / ecap
        aging_slope = l2 / gas

        def dvoc(soc):
            return (
                voc_a * voc_b * exp(voc_b * soc)
                + 4.0 * voc_p4 * soc**3
                + 3.0 * voc_p3 * soc**2
                + 2.0 * voc_p2 * soc
                + self.voc_p1
            )

        # --- terminal restoration costs ---
        tb, _, soc, soe = trail[-1]
        g_tb = g_tc = g_soc = g_soe = 0.0
        soe_deficit = w.terminal_soe_ref - soe
        if soe_deficit > 0.0:
            refill_w = w.terminal_refill_power_w
            g_soe -= w3 * w.terminal_energy_gain * ecap / 100.0
            voc = self._voc(soc)
            # refill_qloss = rate * deficit_j / refill_w
            rate = l1 * exp(-l2 / (gas * tb)) * abs(refill_w / (n_cells * voc)) ** l3
            refill_qloss = rate * (soe_deficit / 100.0 * ecap) / refill_w
            g_tb += w2 * refill_qloss * aging_slope / (tb * tb)
            g_soc -= w2 * refill_qloss * l3 / voc * dvoc(soc)
            g_soe -= w2 * rate / refill_w * ecap / 100.0
        if tb - w.terminal_temp_ref > 0.0:
            g_tb += w1 * w.terminal_thermal_gain * self.cb / eta_cool
            rate_hot = l1 * exp(-l2 / (gas * tb)) * w.terminal_typical_current_a**l3
            g_tb += w2 * w.terminal_future_s * rate_hot * aging_slope / (tb * tb)

        n = len(tape)
        d_cap = [0.0] * n
        d_inlet = [0.0] * n
        for k in range(n - 1, -1, -1):
            step = tape[k]
            ti_src, cap_src, pcb, cap_port, eta_c, vcap = step[:6]
            voc, res, eta_b, total, bat_max_port, bat_bus = step[6:12]
            bat_port, disc, current, heat_cell, q_inc = step[12:]
            tb1, _, soc1, soe1 = trail[k + 1]
            tb, _, soc, soe = trail[k]

            # --- constraint hinges on the state leaving the step ---
            over_t = tb1 - TEMP_MAX_K
            if over_t > 0.0:
                g_tb += 2.0 * w.hinge_temp * over_t
            under_soc = 20.0 - soc1
            if under_soc > 0.0:
                g_soc -= 2.0 * w.hinge_soc * under_soc
            under_soe = soe_min - soe1
            if under_soe > 0.0:
                g_soe -= 2.0 * w.hinge_soe * under_soe
            over_soe = soe1 - soe_max
            if over_soe > 0.0:
                g_soe += 2.0 * w.hinge_soe * over_soe
            g_port = g_max = 0.0
            over_p = bat_port - bat_max_port
            if over_p > 0.0:
                g_port = 2.0 * w.hinge_power * over_p
                g_max = -g_port

            # --- thermal update: tb, tc from b1, b2 ---
            g_b1 = (a22 * g_tb - a21 * g_tc) / det
            g_b2 = (a11 * g_tc - a12 * g_tb) / det
            n_tb = (cb_dt - h_half) * g_b1 + h_half * g_b2
            n_tc = h_half * g_b1 + (cc_dt - h_half - wc_half) * g_b2
            g_ti = wc * g_b2

            # --- battery branch, back from soc, de_bat, q_inc and heat ---
            n_soc = g_soc
            g_cur = soc_per_amp * g_soc + w3 * voc * n_cells * dt
            g_voc = w3 * current * n_cells * dt
            g_res = 0.0
            if current != 0.0:
                g_cur += w2 * q_inc * l3 / current
            n_tb += w2 * q_inc * aging_slope / (tb * tb)
            if heat_cell > 0.0:
                g_heat = n_cells * g_b1
                g_cur += (2.0 * current * res + tb * entropy) * g_heat
                g_res += current * current * g_heat
                n_tb += current * entropy * g_heat
            if -i_max < current < i_max:
                g_voc += g_cur / (2.0 * res)
                g_res -= current / res * g_cur
                if disc > 0.0:
                    g_disc = -g_cur / (4.0 * res * sqrt(disc))
                    g_voc += 2.0 * voc * g_disc
                    g_res -= 4.0 * bat_port / n_cells * g_disc
                    g_port -= 4.0 * res / n_cells * g_disc
            if bat_bus >= 0.0:
                g_bus = g_port / eta_b
                g_eta_b = -bat_port / eta_b * g_port
            else:
                g_bus = g_port * eta_b
                g_eta_b = bat_bus * g_port
            g_total = g_bus
            g_pcb = -g_bus

            # --- ultracapacitor branch, back from soe and de_cap ---
            n_soe = g_soe
            g_cap_port = w3 * dt + soe_per_watt * g_soe
            g_eta_c = 0.0
            if cap_src == 3:
                # pcb = -headroom, cap_port = pcb * eta_c
                g_pcb += g_cap_port * eta_c
                g_eta_c += pcb * g_cap_port
                if pcb < 0.0:
                    # headroom = bat_max_port * eta_b - max(total, 0)
                    g_max -= eta_b * g_pcb
                    g_eta_b -= bat_max_port * g_pcb
                    if total > 0.0:
                        g_total += g_pcb
            elif cap_src == 2:
                # cap_port = max(max_out, 0), pcb = cap_port * eta_c
                g_cap_port += g_pcb * eta_c
                g_eta_c += cap_port * g_pcb
                if cap_port > 0.0:
                    n_soe += g_cap_port * ecap / (100.0 * dt)
            else:
                if pcb >= 0.0:
                    g_pcb += g_cap_port / eta_c
                    g_eta_c -= cap_port / eta_c * g_cap_port
                else:
                    g_pcb += g_cap_port * eta_c
                    g_eta_c += pcb * g_cap_port
                if cap_src == 0:
                    d_cap[k] = g_pcb
            if cc_lo < eta_c < cc_hi and soe >= 1.0:
                # eta_c = cap_eta(vcap), vcap = vr * sqrt(soe / 100)
                g_vcap = cc_slope * (1.0 - vcap / cc_vref) * g_eta_c
                n_soe += g_vcap * vcap / (2.0 * soe)

            # --- battery model pieces: bat_max_port, eta_b, res, voc ---
            g_voc += i_max * n_cells * g_max
            g_res -= i_max * i_max * n_cells * g_max
            if bc_lo < eta_b < bc_hi:
                g_voc += bc_slope * (1.0 - voc * series / bc_vref) * g_eta_b
            res_temp = exp(res_tk * (1.0 / tb - 1.0 / res_tref))
            n_soc += g_res * res_a * res_b * exp(res_b * soc) * res_temp
            n_soc += g_voc * dvoc(soc)
            n_tb -= g_res * res * res_tk / (tb * tb)

            # --- cooling command: total and the objective from p_cool ---
            g_p_cool = w1 * dt + g_total
            n_tc += cool_gain * g_p_cool
            g_ti -= cool_gain * g_p_cool
            if ti_src == 0:
                d_inlet[k] = g_ti
            elif ti_src != 3:
                # clamped to T_c or to T_c - cool_drop
                n_tc += g_ti

            g_tb, g_tc, g_soc, g_soe = n_tb, n_tc, n_soc, n_soe
        return d_cap, d_inlet
