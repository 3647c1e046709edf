"""Battery cell parameter sets.

The coefficients implement the functional forms of the paper's Eq. 2 (open
circuit voltage), Eq. 3 (internal resistance) and Eq. 5 (capacity loss), with
values chosen so the curves sit inside the Panasonic NCR18650A datasheet
envelope the paper references: 3.0-4.2 V across SoC, ~50 mOhm mid-SoC
resistance that roughly doubles from 25 C to 0 C, 3.1 Ah rated capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class CellParams:
    """Parameters of one Li-ion cell.

    Electrical (Eq. 2-3)
    --------------------
    ``voc_*`` implement Eq. 2 with SoC in percent:
        Voc = voc_exp_a * exp(voc_exp_b * SoC)
              + voc_p4*SoC^4 + voc_p3*SoC^3 + voc_p2*SoC^2 + voc_p1*SoC + voc_p0
    ``res_*`` implement Eq. 3 plus an Arrhenius temperature factor:
        R = (res_exp_a * exp(res_exp_b * SoC) + res_base)
            * exp(res_temp_k * (1/T - 1/T_ref))

    Thermal (Eq. 4)
    ---------------
    ``entropy_coeff_v_per_k`` is the constant dVoc/dT of Eq. 4.
    ``heat_capacity_j_per_k`` is the lumped heat capacity of one cell.

    Aging (Eq. 5)
    -------------
    ``aging_prefactor``/``aging_activation_j_per_mol``/``aging_current_exp``
    are l1, l2, l3:  dQloss/dt = l1 * exp(-l2 / (R_gas T)) * |I|^l3  in
    percent-of-capacity per second per cell.

    Ratings
    -------
    ``capacity_ah`` rated capacity; ``nominal_voltage_v`` label voltage;
    ``max_current_a`` discharge-current ceiling used by constraint C6.
    """

    # electrical: Eq. 2 coefficients (SoC in percent)
    voc_exp_a: float = -0.25
    voc_exp_b: float = -0.045
    voc_p4: float = 2.5e-9
    voc_p3: float = 0.0
    voc_p2: float = 0.0
    voc_p1: float = 0.007
    voc_p0: float = 3.25
    # electrical: Eq. 3 coefficients + temperature sensitivity
    res_exp_a: float = 0.040
    res_exp_b: float = -0.10
    res_base: float = 0.080
    res_temp_k: float = 2000.0
    res_ref_temp_k: float = 298.15
    # thermal: Eq. 4
    entropy_coeff_v_per_k: float = -2.0e-4
    heat_capacity_j_per_k: float = 41.0
    # aging: Eq. 5 (percent capacity per second)
    aging_prefactor: float = 1.9e5
    aging_activation_j_per_mol: float = 60_000.0
    aging_current_exp: float = 1.50
    # ratings
    capacity_ah: float = 3.1
    nominal_voltage_v: float = 3.6
    max_current_a: float = 15.0

    def __post_init__(self):
        check_positive(self.capacity_ah, "capacity_ah")
        check_positive(self.nominal_voltage_v, "nominal_voltage_v")
        check_positive(self.max_current_a, "max_current_a")
        check_positive(self.heat_capacity_j_per_k, "heat_capacity_j_per_k")
        check_positive(self.res_base, "res_base")
        check_positive(self.aging_prefactor, "aging_prefactor")
        check_positive(self.aging_activation_j_per_mol, "aging_activation_j_per_mol")
        check_in_range(self.aging_current_exp, 0.1, 3.0, "aging_current_exp")
        check_in_range(self.res_temp_k, 0.0, 10_000.0, "res_temp_k")


#: Panasonic-NCR18650A-class cell (the cell the paper's Tesla pack uses).
NCR18650A = CellParams()
