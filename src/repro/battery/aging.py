"""Battery capacity-loss (aging) model: paper Eq. 5.

    dQ_loss = l1 * exp(-l2 / (R_gas * T)) * |I|^l3   [% capacity / s]

Loss grows with temperature (Arrhenius) and super-linearly with current,
which is exactly the coupling OTEM exploits: shaving current peaks with the
ultracapacitor *and* keeping the cell cool both reduce Q_loss.

Battery-LifeTime (BLT) convention follows the paper's introduction: the pack
is end-of-life at 20% capacity loss, so BLT scales as ``20% / loss-rate``.
"""

from __future__ import annotations

import numpy as np

from repro.battery.params import CellParams, NCR18650A
from repro.utils.units import GAS_CONSTANT

#: Capacity-loss fraction at which the paper declares the battery useless.
END_OF_LIFE_LOSS_PERCENT = 20.0


class AgingModel:
    """Accumulates capacity loss per Eq. 5.

    The model is stateless apart from the accumulated loss; rates can also be
    evaluated standalone (the MPC cost term uses :meth:`loss_rate`).
    """

    def __init__(self, params: CellParams = NCR18650A):
        self._p = params
        self._loss_percent = 0.0

    @property
    def params(self) -> CellParams:
        """Cell parameters in use."""
        return self._p

    @property
    def loss_percent(self) -> float:
        """Accumulated capacity loss [% of rated capacity]."""
        return self._loss_percent

    def loss_rate(self, current_a, temp_k):
        """Instantaneous capacity-loss rate [%/s] (Eq. 5), vectorized.

        ``current_a`` is the per-cell current; magnitude is used since both
        charge and discharge throughput age the cell.
        """
        p = self._p
        current = np.abs(np.asarray(current_a, dtype=float))
        temp = np.asarray(temp_k, dtype=float)
        arrhenius = np.exp(-p.aging_activation_j_per_mol / (GAS_CONSTANT * temp))
        return p.aging_prefactor * arrhenius * current**p.aging_current_exp

    def step(self, current_a: float, temp_k: float, dt: float) -> float:
        """Accumulate one step of loss; returns the increment [%].

        Floats, or per-column arrays (the loss then accumulates per column).
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        increment = self.loss_rate(current_a, temp_k) * dt
        self._loss_percent += increment
        return increment

    def reset(self):
        """Zero the accumulated loss."""
        self._loss_percent = 0.0


def blt_equivalent_routes(loss_percent_per_route: float) -> float:
    """Number of identical routes until end-of-life (20% loss)."""
    if loss_percent_per_route <= 0:
        return float("inf")
    return END_OF_LIFE_LOSS_PERCENT / loss_percent_per_route
