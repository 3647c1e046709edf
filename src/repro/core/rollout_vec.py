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

This is the solver hot path: a batched finite-difference gradient costs
one kernel invocation instead of ``2N+1`` serial Python rollouts, and the
multi-start candidates of the lockstep race (:func:`repro.core.mpc._race`)
evaluate as rows of a single batch.  The scalar model stays the semantic
reference; this module only exists to make it fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.rollout import TEMP_MAX_K, PredictionModel
from repro.utils.units import GAS_CONSTANT


@dataclass(frozen=True)
class BatchRolloutResult:
    """Detailed outcome of M predicted trajectories (array analogue of
    :class:`repro.core.rollout.RolloutResult`).

    Attributes
    ----------
    cost / objective / penalty / terminal:
        Per-candidate totals, shape ``(M,)``.
    temps_k / coolant_k / socs / soes:
        Predicted state trajectories, shape ``(M, N+1)`` (including the
        initial state).
    cooling_j / qloss_percent / hees_j:
        Per-candidate horizon totals of the three Eq. 19 ingredients,
        shape ``(M,)``.
    """

    cost: np.ndarray
    objective: np.ndarray
    penalty: np.ndarray
    terminal: np.ndarray
    temps_k: np.ndarray
    coolant_k: np.ndarray
    socs: np.ndarray
    soes: np.ndarray
    cooling_j: np.ndarray
    qloss_percent: np.ndarray
    hees_j: np.ndarray


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
        return self._rollout_batch(state, cap_bus, inlet, preview_w, dt, False)

    def rollout_batch(
        self,
        state: tuple,
        cap_bus: np.ndarray,
        inlet: np.ndarray,
        preview_w: np.ndarray,
        dt: float,
    ) -> BatchRolloutResult:
        """Detailed batched trajectories (equivalence tests, diagnostics)."""
        return self._rollout_batch(state, cap_bus, inlet, preview_w, dt, True)

    def rollout_costs_stacked(
        self,
        states: np.ndarray,
        cap_bus: np.ndarray,
        inlet: np.ndarray,
        previews: np.ndarray,
        dt: float,
        ecap: np.ndarray | None = None,
    ) -> np.ndarray:
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

        Returns
        -------
        numpy.ndarray
            Total cost per row, shape ``(M,)``.
        """
        return self._rollout_batch(states, cap_bus, inlet, previews, dt, False, ecap)

    def _rollout_batch(self, state, cap_bus, inlet, preview_w, dt, detailed, ecap=None):
        w = self.w
        gas = GAS_CONSTANT
        cap_bus = np.atleast_2d(np.asarray(cap_bus, dtype=float))
        inlet = np.atleast_2d(np.asarray(inlet, dtype=float))
        if cap_bus.shape != inlet.shape:
            raise ValueError(
                f"cap_bus {cap_bus.shape} and inlet {inlet.shape} must match"
            )
        m, n = cap_bus.shape
        preview = np.asarray(preview_w, dtype=float)
        if preview.ndim == 1:
            if preview.size < n:
                raise ValueError(f"preview has {preview.size} steps, horizon needs {n}")
            # shared window: preview[k] is a scalar broadcast over all rows
            preview_rows = preview
        else:
            if preview.shape != (m, n):
                raise ValueError(
                    f"stacked previews must be {(m, n)}, got {preview.shape}"
                )
            # per-row windows, step-major: preview_rows[k] is the (m,) slice
            preview_rows = np.ascontiguousarray(preview.T)
        # step-major contiguous views: the k-loop reads one row at a time
        cap_t = np.ascontiguousarray(cap_bus.T)
        inlet_t = np.ascontiguousarray(inlet.T)

        state_arr = np.asarray(state, dtype=float)
        if state_arr.ndim == 1:
            tb = np.full(m, float(state_arr[0]))
            tc = np.full(m, float(state_arr[1]))
            soc = np.full(m, float(state_arr[2]))
            soe = np.full(m, float(state_arr[3]))
        else:
            if state_arr.shape != (m, 4):
                raise ValueError(f"stacked states must be {(m, 4)}, got {state_arr.shape}")
            tb = state_arr[:, 0].copy()
            tc = state_arr[:, 1].copy()
            soc = state_arr[:, 2].copy()
            soe = state_arr[:, 3].copy()
        objective = np.zeros(m)
        penalty = np.zeros(m)
        if detailed:
            cooling_j = np.zeros(m)
            qloss = np.zeros(m)
            hees_j = np.zeros(m)
            temps = np.empty((n + 1, m))
            coolants = np.empty((n + 1, m))
            socs = np.empty((n + 1, m))
            soes = np.empty((n + 1, m))
            temps[0], coolants[0], socs[0], soes[0] = tb, tc, soc, soe

        # hoisted scalar constants; every fold below is algebraically
        # identical to the scalar rollout (float-ulp differences only, the
        # equivalence suite bounds them at 1e-9)
        cold_drop = self.eta_cool * self.pc_max / self.wc
        cool_gain = self.wc / self.eta_cool  # p_cool = gain * (tc - ti)
        cap_pmax = self.cap_pmax
        vr_sqrt = self.vr * 0.1  # vr*sqrt(soe/100) = vr/10*sqrt(soe)
        inv_cc_vref = 1.0 / self.cc_vref
        inv_bc_vref = 1.0 / self.bc_vref
        # ecap may be a (M,) per-row bank energy in stacked mode; the
        # expressions are elementwise either way, so the per-element
        # arithmetic (and results) are unchanged from the scalar fold
        ecap_v = self.ecap if ecap is None else np.asarray(ecap, dtype=float)
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
        # hinge weights as one matvec: over_t, under_soc, under_soe,
        # over_soe, over_p rows of the scratch buffer below
        hinge_w = np.array(
            [w.hinge_temp, w.hinge_soc, w.hinge_soe, w.hinge_soe, w.hinge_power]
        )
        hinge_buf = np.empty((5, m))

        for k in range(n):
            # --- cooling command (C2/C3 clamps, Eq. 16) ---
            coldest = np.maximum(tc - cold_drop, self.min_inlet)
            ti = np.minimum(np.maximum(inlet_t[k], coldest), tc)
            p_cool = cool_gain * (tc - ti)
            total = (preview_rows[k] + self.pump) + p_cool

            # --- ultracapacitor branch ---
            pcb = np.minimum(np.maximum(cap_t[k], -cap_pmax), cap_pmax)
            soe_before = soe
            vcap = vr_sqrt * np.sqrt(np.maximum(soe, 1.0))
            sag_c = 1.0 - vcap * inv_cc_vref
            # the upper clamp is a no-op (eta_max - droop*sag^2 <= eta_max)
            eta_c = np.maximum(
                self.cc_eta_max - self.cc_droop * (sag_c * sag_c), self.cc_eta_min
            )
            cap_port = np.where(pcb >= 0.0, pcb / eta_c, pcb * eta_c)
            # hard guard: never predict below 1% stored energy
            max_out = (soe - 1.0) * soe_out_gain
            over_out = cap_port > max_out
            if over_out.any():
                cap_port = np.where(over_out, np.maximum(0.0, max_out), cap_port)
                pcb = np.where(over_out, cap_port * eta_c, pcb)
            de_cap = cap_port * dt
            soe = soe - j_to_soe * de_cap

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
            if charging.any():
                headroom = np.maximum(
                    bat_max_port * eta_b - np.maximum(total, 0.0), 0.0
                )
                exceed = charging & (-pcb > headroom)
                if exceed.any():
                    pcb = np.where(exceed, -headroom, pcb)
                    cap_port = np.where(exceed, pcb * eta_c, cap_port)
                    # redo the bank bookkeeping with the reduced charge
                    soe = np.where(
                        exceed, soe_before - j_to_soe * (cap_port * dt), soe
                    )
                    de_cap = np.where(exceed, cap_port * dt, de_cap)
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
            soc = soc - soc_per_a * current

            # --- thermal update (trapezoidal Eq. 17, same as CoolingLoop) ---
            h2_tb_tc = h2 * (tb - tc)
            b1 = cb_dt * tb - h2_tb_tc + heat
            b2 = cc_dt_tc * tc + h2_tb_tc + wc2 * ti
            tb = tb_b1 * b1 + tb_b2 * b2
            tc = tc_b1 * b1 + tc_b2 * b2

            # --- accumulate objective (Eq. 19) ---
            p_cool_j = p_cool * dt
            de_hees = de_bat + de_cap
            objective += w.w1 * p_cool_j + w.w2 * q_inc + w.w3 * de_hees

            # --- constraint hinges (C1, C4, C5, C6) ---
            np.subtract(tb, TEMP_MAX_K, out=hinge_buf[0])
            np.subtract(20.0, soc, out=hinge_buf[1])
            np.subtract(self.soe_min, soe, out=hinge_buf[2])
            np.subtract(soe, self.soe_max, out=hinge_buf[3])
            np.subtract(bat_port, bat_max_port, out=hinge_buf[4])
            np.maximum(hinge_buf, 0.0, out=hinge_buf)
            np.multiply(hinge_buf, hinge_buf, out=hinge_buf)
            penalty += hinge_w @ hinge_buf

            if detailed:
                cooling_j += p_cool_j
                qloss += q_inc
                hees_j += de_hees
                temps[k + 1], coolants[k + 1] = tb, tc
                socs[k + 1], soes[k + 1] = soc, soe

        # --- terminal restoration costs ---
        terminal = np.zeros(m)
        soe_deficit = w.terminal_soe_ref - soe
        depleted = soe_deficit > 0.0
        if depleted.any():
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
        if hot.any():
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
        if not detailed:
            return cost
        return BatchRolloutResult(
            cost=cost,
            objective=objective,
            penalty=penalty,
            terminal=terminal,
            temps_k=temps.T.copy(),
            coolant_k=coolants.T.copy(),
            socs=socs.T.copy(),
            soes=soes.T.copy(),
            cooling_j=cooling_j,
            qloss_percent=qloss,
            hees_j=hees_j,
        )
