"""Vectorized batched prediction model for the OTEM MPC.

:class:`BatchPredictionModel` evaluates M candidate decision vectors for
the *same* initial state in one NumPy pass: command arrays of shape
``(M, N)`` go in, costs of shape ``(M,)`` come out.  The per-step physics
is identical to :class:`repro.core.rollout.PredictionModel._rollout` -
every clamp, guard branch and hinge is reproduced with masked array
arithmetic - so the batched costs match the scalar reference within
floating-point noise (``tests/core/test_rollout_vec.py`` asserts 1e-9).

The kernel also runs in *stacked* mode
(:meth:`BatchPredictionModel.rollout_costs_stacked`): each row carries
its own initial state, its own preview window, and optionally its own
ultracapacitor bank energy (``ecap``), so S scenarios x K candidates
evaluate as one ``(S*K, 2N)`` batch.  Every per-row quantity enters the
same elementwise expressions the shared-state path uses, which keeps the
per-element arithmetic - and therefore the equivalence bound - unchanged
regardless of how rows are stacked.

A stacked call may also carry a central-difference *stencil* around
its rows: per row and step k, the two commands raised and lowered at
step k only.  Such a stencil row repeats its base row's steps
0...k-1 bit for bit, so it joins the batch at step k with the base row's
state and running sums, and the rows active at a step are a prefix of
one row layout.  A horizon of N then costs N + 4(N + ... + 1) row-steps
per base row instead of (4N+1) N (324 against 588 at N = 12), in the
one per-step loop that also runs the plain calls.

This is the solver hot path: every ``fun+jac`` round of the lockstep
race (:func:`repro.core.mpc._race`) is one stacked call over the base
rows of all pending starts, each with its stencil.  The scalar model
stays the semantic reference; this module only exists to make it fast.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.rollout import TEMP_MAX_K, PredictionModel
from repro.utils.units import GAS_CONSTANT


#: Fewest given rows whose stencil rows join the batch at the step they
#: perturb.  With fewer, every stencil row runs from step 0: on a handful
#: of rows the per-step join and re-slicing cost more than the shorter
#: steps save (the two schedules break even near 10 given rows at N = 12).
PREFIX_MIN_ROWS = 12


class BatchPredictionModel(PredictionModel):
    """Batched (vectorized-over-candidates) variant of the scalar model.

    Construct it with the same arguments as
    :class:`~repro.core.rollout.PredictionModel`, or wrap an existing
    scalar model with :meth:`from_scalar` (shares the pre-extracted
    parameter constants, allocates nothing new).
    """

    @classmethod
    def from_scalar(cls, model: PredictionModel) -> "BatchPredictionModel":
        """Batched view over an existing scalar model's constants."""
        if isinstance(model, cls):
            return model
        vec = cls.__new__(cls)
        vec.__dict__.update(model.__dict__)
        return vec

    # ------------------------------------------------------------------ #
    # vectorized model pieces (same formulas as the scalar methods)

    def _voc_vec(self, soc: np.ndarray) -> np.ndarray:
        # Horner form of the scalar _voc polynomial (ulp-identical terms)
        poly = ((self.voc_p4 * soc + self.voc_p3) * soc + self.voc_p2) * soc
        return (
            self.voc_a * np.exp(self.voc_b * soc)
            + (poly + self.voc_p1) * soc
            + self.voc_p0
        )

    # ------------------------------------------------------------------ #

    def rollout_costs(
        self,
        state: tuple,
        cap_bus: np.ndarray,
        inlet: np.ndarray,
        preview_w: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        """Objectives of M trajectories from one initial state.

        Parameters
        ----------
        state:
            (T_b, T_c, SoC, SoE) at the start of the horizon (shared by
            every candidate).
        cap_bus:
            Ultracap bus-power commands [W], shape ``(M, N)``.
        inlet:
            Coolant inlet commands [K], shape ``(M, N)``.
        preview_w:
            Predicted EV power per step [W], length N (shared).
        dt:
            Horizon step duration [s].

        Returns
        -------
        numpy.ndarray
            Total cost (Eq. 19 + penalties + terminal) per candidate,
            shape ``(M,)``.
        """
        return self._rollout_batch(state, cap_bus, inlet, preview_w, dt)

    def rollout_costs_stacked(
        self,
        states: np.ndarray,
        cap_bus: np.ndarray,
        inlet: np.ndarray,
        previews: np.ndarray,
        dt: float,
        ecap: np.ndarray | None = None,
        stencil: tuple | None = None,
    ):
        """Objectives of M trajectories with *per-row* initial conditions.

        The stacked form of :meth:`rollout_costs`: row ``i`` starts from
        ``states[i]``, consumes ``previews[i]`` and (optionally) uses its
        own bank energy ``ecap[i]``, so candidates belonging to different
        scenarios evaluate in one kernel pass.

        Parameters
        ----------
        states:
            ``(M, 4)`` rows of (T_b, T_c, SoC, SoE).
        cap_bus / inlet:
            Commands, shape ``(M, N)`` each.
        previews:
            Predicted EV power per step [W], shape ``(M, N)``.
        dt:
            Horizon step duration [s].
        ecap:
            Optional per-row ultracap bank energy [J], shape ``(M,)``.
            Defaults to the model's own ``ecap`` for every row.
        stencil:
            Optional ``(cap_plus, cap_minus, inlet_plus, inlet_minus)``,
            each ``(M, N)``: a central-difference stencil around every
            row.  Stencil row ``(v, i, k)`` is row ``i`` with step ``k``
            of its bus (``v`` = 0, 1) or inlet (``v`` = 2, 3) command
            replaced by ``stencil[v][i, k]``, so its trajectory is row
            ``i``'s up to step ``k``: it joins the batch at step ``k``,
            from row ``i``'s state and running sums.  A horizon of N
            then costs ``N + 4(N + ... + 1)`` row-steps per row instead
            of ``(4N + 1) N``, and every cost is bitwise that of the same
            row evaluated in full (``tests/core/test_rollout_vec.py``).

        Returns
        -------
        numpy.ndarray or tuple
            Total cost per row, shape ``(M,)``; with a ``stencil``, the
            pair ``(cost, alt)`` where ``alt[v, i, k]`` is stencil row
            ``(v, i, k)``'s cost, shape ``(4, M, N)``.
        """
        return self._rollout_batch(states, cap_bus, inlet, previews, dt, ecap, stencil)

    def _rollout_batch(
        self, state, cap_bus, inlet, preview_w, dt, ecap=None, stencil=None
    ):
        w = self.w
        gas = GAS_CONSTANT
        cap_bus = np.atleast_2d(np.asarray(cap_bus, dtype=float))
        inlet = np.atleast_2d(np.asarray(inlet, dtype=float))
        if cap_bus.shape != inlet.shape:
            raise ValueError(
                f"cap_bus {cap_bus.shape} and inlet {inlet.shape} must match"
            )
        m, n = cap_bus.shape
        # row layout: the M given rows, then (with a stencil) one block of
        # 4M rows per step k - the cap+, cap-, inlet+ and inlet- rows of
        # every given row - that joins the batch at step k.  The rows
        # active at a step are always a prefix of the layout.
        reps = 1 if stencil is None else 4 * n + 1
        rows = reps * m
        alts = () if stencil is None else stencil
        if stencil is not None and (
            len(stencil) != 4 or any(np.shape(a) != (m, n) for a in stencil)
        ):
            raise ValueError(f"stencil must be four {(m, n)} arrays")
        # the state-free parts of every step, step-major so the k-loop reads
        # one contiguous row at a time: the EV load plus pump, the bus
        # command within the bank rating, and the commanded inlet
        preview = np.asarray(preview_w, dtype=float)
        if preview.ndim == 1:
            if preview.size < n:
                raise ValueError(f"preview has {preview.size} steps, horizon needs {n}")
            # shared window: load_t[k, :e] is a one-element row that
            # broadcasts over the active rows
            load_t = (preview[:n] + self.pump)[:, None]
        else:
            if preview.shape != (m, n):
                raise ValueError(
                    f"stacked previews must be {(m, n)}, got {preview.shape}"
                )
            load_t = _step_major(preview + self.pump, reps)
        pmax = self.cap_pmax
        bus = [np.minimum(np.maximum(c, -pmax), pmax) for c in (cap_bus, *alts[:2])]
        pcb_t = _step_major(bus[0], reps, bus[1:], 0)
        inlet_t = _step_major(inlet, reps, alts[2:], 2)

        state_arr = np.asarray(state, dtype=float)
        if state_arr.ndim == 1:
            state_arr = state_arr[None, :]
        elif state_arr.shape != (m, 4):
            raise ValueError(f"stacked states must be {(m, 4)}, got {state_arr.shape}")
        # T_b, T_c, SoC, SoE, objective and penalty of every row, updated
        # in place; a stencil row's column is filled when it joins
        carried = np.empty((6, rows))
        carried[:4, :m] = state_arr.T
        carried[4:, :m] = 0.0
        if stencil is not None and m >= PREFIX_MIN_ROWS:
            ends = range(5 * m, rows + 1, 4 * m)
        else:
            ends = [rows] * n

        # hoisted scalar constants; every fold below is algebraically
        # identical to the scalar rollout (float-ulp differences only, the
        # equivalence suite bounds them at 1e-9)
        cold_drop = self.eta_cool * self.pc_max / self.wc
        cool_gain = self.wc / self.eta_cool  # p_cool = gain * (tc - ti)
        vr_sqrt = self.vr * 0.1  # vr*sqrt(soe/100) = vr/10*sqrt(soe)
        inv_cc_vref = 1.0 / self.cc_vref
        inv_bc_vref = 1.0 / self.bc_vref
        # per-row bank energy (stacked mode may give one per row); the
        # expressions are elementwise, so the per-element arithmetic (and
        # results) are unchanged from the scalar fold
        ecap_v = np.empty((reps, m))
        ecap_v[:] = self.ecap if ecap is None else ecap
        ecap_v = ecap_v.reshape(rows)
        j_to_soe = 100.0 / ecap_v
        soe_out_gain = 0.01 * ecap_v / dt  # max_out per (soe - 1)
        i_max = self.i_max_cell
        n_cells = self.n_cells
        inv_n_cells = 1.0 / n_cells
        # res(T) factor: exp(tk*(1/T - 1/Tref)) = exp(tk/T) * exp(-tk/Tref)
        res_tref_factor = math.exp(-self.res_tk / self.res_tref)
        neg_l2_gas = -self.aging_l2 / gas  # exp(-l2/(gas*T)) = exp(neg_l2_gas/T)
        aging_dt = self.aging_l1 * dt
        soc_per_a = 100.0 * dt / self.capacity_c
        de_bat_gain = n_cells * dt
        h, cbh, cch, wc2 = self.h, self.cb, self.cc_heat, self.wc
        h2 = h / 2.0
        cb_dt = cbh / dt
        a11 = cb_dt + h2
        a12 = -h2
        a21 = -h2
        a22 = cch / dt + h2 + wc2 / 2.0
        inv_det = 1.0 / (a11 * a22 - a12 * a21)
        tb_b1, tb_b2 = a22 * inv_det, -a12 * inv_det
        tc_b1, tc_b2 = -a21 * inv_det, a11 * inv_det
        cc_dt_tc = cch / dt - wc2 / 2.0  # b2's tc coefficient, folded
        # hinge weights of the over_t, under_soc, under_soe, over_soe and
        # over_p rows of the scratch buffer below.  The weighted hinges
        # are summed elementwise, never by a BLAS call, which would round
        # a row's sum by the column it occupies
        hinge_w = np.array(
            [w.hinge_temp, w.hinge_soc, w.hinge_soe, w.hinge_soe, w.hinge_power]
        )[:, None]
        hinge_flat = np.empty(5 * rows)

        active = m
        tb, tc, soc, soe, objective, penalty = carried[:, :active]
        for k, e in enumerate(ends):
            if e != active:
                # rows joining at step k start from their given row's
                # state and running sums
                carried[:, active:e].reshape(6, -1, m)[:] = carried[:, None, :m]
                tb, tc, soc, soe, objective, penalty = carried[:, :e]
                active = e

            # --- cooling command (C2/C3 clamps, Eq. 16) ---
            coldest = np.maximum(tc - cold_drop, self.min_inlet)
            ti = np.minimum(np.maximum(inlet_t[k, :e], coldest), tc)
            p_cool = cool_gain * (tc - ti)
            total = load_t[k, :e] + p_cool

            # --- ultracapacitor branch ---
            pcb = pcb_t[k, :e]
            vcap = vr_sqrt * np.sqrt(np.maximum(soe, 1.0))
            sag_c = 1.0 - vcap * inv_cc_vref
            # the upper clamp is a no-op (eta_max - droop*sag^2 <= eta_max)
            eta_c = np.maximum(
                self.cc_eta_max - self.cc_droop * (sag_c * sag_c), self.cc_eta_min
            )
            cap_port = np.where(pcb >= 0.0, pcb / eta_c, pcb * eta_c)
            # hard guard: never predict below 1% stored energy
            max_out = (soe - 1.0) * soe_out_gain[:e]
            over_out = cap_port > max_out
            if np.count_nonzero(over_out):
                cap_port = np.where(over_out, np.maximum(0.0, max_out), cap_port)
                pcb = np.where(over_out, cap_port * eta_c, pcb)
            de_cap = cap_port * dt

            # --- battery branch ---
            voc = self._voc_vec(soc)
            res_soc = self.res_a * np.exp(self.res_b * soc) + self.res_c
            res = res_soc * (res_tref_factor * np.exp(self.res_tk / tb))
            sag_b = 1.0 - (voc * self.pack_series) * inv_bc_vref
            eta_b = np.maximum(
                self.bc_eta_max - self.bc_droop * (sag_b * sag_b), self.bc_eta_min
            )
            # C6 deliverable limit at the cell current rating (shared by the
            # charge-headroom guard and the power hinge below)
            bat_max_port = i_max * (voc - i_max * res) * n_cells
            # mirror the plant's guard: charging the bank may not displace
            # load delivery (battery bus power is capped at its C6 limit)
            charging = pcb < 0.0
            if np.count_nonzero(charging):
                headroom = np.maximum(
                    bat_max_port * eta_b - np.maximum(total, 0.0), 0.0
                )
                exceed = charging & (-pcb > headroom)
                if np.count_nonzero(exceed):
                    pcb = np.where(exceed, -headroom, pcb)
                    cap_port = np.where(exceed, pcb * eta_c, cap_port)
                    de_cap = np.where(exceed, cap_port * dt, de_cap)
            # the bank's bookkeeping, with the guards' final charge
            np.subtract(soe, j_to_soe[:e] * de_cap, out=soe)
            bat_bus = total - pcb
            bat_port = np.where(bat_bus >= 0.0, bat_bus / eta_b, bat_bus * eta_b)
            two_res = 2.0 * res
            disc = voc * voc - (4.0 * inv_n_cells) * (res * bat_port)
            # at disc < 0 the clamped sqrt term vanishes, leaving exactly
            # the scalar branch's voc / (2 res) - no where() needed
            current = (voc - np.sqrt(np.maximum(disc, 0.0))) / two_res
            current = np.minimum(np.maximum(current, -i_max), i_max)
            heat_cell = (current * current) * res + (self.entropy * current) * tb
            heat = n_cells * np.maximum(heat_cell, 0.0)
            arrhenius = np.exp(neg_l2_gas / tb)
            q_inc = aging_dt * arrhenius * np.abs(current) ** self.aging_l3
            de_bat = de_bat_gain * (voc * current)
            np.subtract(soc, soc_per_a * current, out=soc)

            # --- thermal update (trapezoidal Eq. 17, same as CoolingLoop) ---
            h2_tb_tc = h2 * (tb - tc)
            b1 = cb_dt * tb - h2_tb_tc + heat
            b2 = cc_dt_tc * tc + h2_tb_tc + wc2 * ti
            np.add(tb_b1 * b1, tb_b2 * b2, out=tb)
            np.add(tc_b1 * b1, tc_b2 * b2, out=tc)

            # --- accumulate objective (Eq. 19) ---
            p_cool_j = p_cool * dt
            de_hees = de_bat + de_cap
            objective += w.w1 * p_cool_j + w.w2 * q_inc + w.w3 * de_hees

            # --- constraint hinges (C1, C4, C5, C6) ---
            hinges = hinge_flat[: 5 * e].reshape(5, e)
            np.subtract(tb, TEMP_MAX_K, out=hinges[0])
            np.subtract(20.0, soc, out=hinges[1])
            np.subtract(self.soe_min, soe, out=hinges[2])
            np.subtract(soe, self.soe_max, out=hinges[3])
            np.subtract(bat_port, bat_max_port, out=hinges[4])
            np.maximum(hinges, 0.0, out=hinges)
            np.multiply(hinges, hinges, out=hinges)
            np.multiply(hinges, hinge_w, out=hinges)
            penalty += hinges.sum(axis=0)

        # --- terminal restoration costs ---
        tb, _, soc, soe, objective, penalty = carried
        terminal = np.zeros(rows)
        soe_deficit = w.terminal_soe_ref - soe
        depleted = soe_deficit > 0.0
        if np.count_nonzero(depleted):
            arrhenius = np.exp(neg_l2_gas / tb)
            deficit_j = soe_deficit * (0.01 * ecap_v)
            refill_i = (w.terminal_refill_power_w * inv_n_cells) / self._voc_vec(soc)
            refill_time = deficit_j / w.terminal_refill_power_w
            refill_qloss = (
                self.aging_l1 * arrhenius * np.abs(refill_i) ** self.aging_l3
            ) * refill_time
            terminal += np.where(
                depleted,
                (w.w3 * w.terminal_energy_gain) * deficit_j + w.w2 * refill_qloss,
                0.0,
            )
        temp_excess = tb - w.terminal_temp_ref
        hot = temp_excess > 0.0
        if np.count_nonzero(hot):
            i_typ = w.terminal_typical_current_a**self.aging_l3
            rate_hot = (self.aging_l1 * i_typ) * np.exp(neg_l2_gas / tb)
            rate_ref = (
                self.aging_l1
                * math.exp(-self.aging_l2 / (gas * w.terminal_temp_ref))
                * i_typ
            )
            thermal_gain = (
                w.w1 * w.terminal_thermal_gain * self.cb / self.eta_cool
            )
            terminal += np.where(
                hot,
                thermal_gain * temp_excess
                + (w.w2 * w.terminal_future_s) * (rate_hot - rate_ref),
                0.0,
            )

        cost = objective + penalty + terminal
        if stencil is not None:
            cost = cost.reshape(reps, m)
            return cost[0], cost[1:].reshape(n, 4, m).transpose(1, 2, 0)
        return cost


def _step_major(
    values: np.ndarray, reps: int, alts: tuple = (), first: int = 0
) -> np.ndarray:
    """``(M, N)`` per-row values as a contiguous ``(N, reps * M)`` array:
    row ``k`` holds step ``k`` of the M rows in each of ``reps`` slots.

    ``alts[j][i, k]`` replaces step ``k`` of row ``i`` in stencil slot
    ``1 + 4k + first + j`` (the layout of
    :meth:`BatchPredictionModel.rollout_costs_stacked`).
    """
    m, n = values.shape
    if reps == 1:
        return np.ascontiguousarray(values.T)
    # four spare slots per step: read with a stride of reps + 4 slots, the
    # buffer's [k, 1 + v] is the (N, reps) layout's step k, slot 1 + 4k + v
    buf = np.empty((n, reps + 4, m))
    out = buf.reshape(-1)[: n * reps * m].reshape(n, reps, m)
    out[:] = values.T[:, None, :]
    for v, alt in enumerate(alts, 1 + first):
        buf[:, v] = np.transpose(alt)
    return out.reshape(n, -1)
