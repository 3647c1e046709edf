"""Multi-node pack thermal model (the spatial detail of the paper's Fig. 5).

The paper lump-models the pack ("since the battery cells are small, we can
simplify the heat exchange model... without affecting the concept"), and so
does the simulation engine.  This module resolves the simplification: the
pack is split into ``nodes`` segments along the coolant path; the coolant
enters segment 1 at the commanded inlet temperature and reaches each later
segment pre-warmed by the ones before it, so downstream cells run hotter -
the hot-spot effect a lumped model cannot see.

Discretization mirrors :class:`repro.cooling.loop.CoolingLoop` (trapezoidal
per Eq. 17) applied per segment, with the flow term chaining segment
coolant temperatures.  With ``nodes=1`` the model reduces exactly to the
lumped loop (validated by tests/cooling/test_multinode.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cooling.coolant import DEFAULT_COOLANT, CoolantParams
from repro.cooling.loop import CoolingLoop, solve_eq17
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class MultiNodeState:
    """Temperatures of all segments after one step.

    Attributes
    ----------
    battery_temps_k:
        Cell-segment temperatures, upstream first [K].
    coolant_temps_k:
        In-segment coolant temperatures, upstream first [K].
    inlet_temp_k:
        Applied inlet temperature [K]: the command clamped to C2/C3 at the
        pack outlet while cooling, the outlet itself otherwise.  Pricing it
        is :class:`repro.cooling.loop.CoolingLoop`'s (Eq. 16).
    """

    battery_temps_k: np.ndarray
    coolant_temps_k: np.ndarray
    inlet_temp_k: float

    @property
    def mean_battery_temp_k(self) -> float:
        """Pack-average temperature (what the lumped model tracks) [K]."""
        return float(np.mean(self.battery_temps_k))

    @property
    def max_battery_temp_k(self) -> float:
        """Hot-spot temperature (the true safety quantity) [K]."""
        return float(np.max(self.battery_temps_k))

    @property
    def gradient_k(self) -> float:
        """Spread between the hottest and coolest segment [K]."""
        return float(np.max(self.battery_temps_k) - np.min(self.battery_temps_k))


class MultiNodeCoolingLoop:
    """Segmented battery/coolant thermal dynamics.

    Parameters
    ----------
    params:
        Loop physical parameters (shared with the lumped model).
    pack_heat_capacity_j_per_k:
        Total pack heat capacity; split evenly across segments.
    nodes:
        Number of segments along the coolant path (>= 1).
    """

    def __init__(
        self,
        params: CoolantParams = DEFAULT_COOLANT,
        pack_heat_capacity_j_per_k: float = 118_080.0,
        nodes: int = 4,
    ):
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        self._p = params
        self._cb_total = check_positive(
            pack_heat_capacity_j_per_k, "pack_heat_capacity_j_per_k"
        )
        self._m = nodes

    @property
    def nodes(self) -> int:
        """Number of segments."""
        return self._m

    @property
    def params(self) -> CoolantParams:
        """Loop parameters in use."""
        return self._p

    def initial_state(self, temp_k: float) -> MultiNodeState:
        """Uniform-temperature starting state."""
        return MultiNodeState(
            battery_temps_k=np.full(self._m, float(temp_k)),
            coolant_temps_k=np.full(self._m, float(temp_k)),
            inlet_temp_k=float(temp_k),
        )

    #: C2/C3 inlet clamp of the lumped loop, applied against the pack outlet
    #: (it reads only the loop parameters).
    clamp_inlet = CoolingLoop.clamp_inlet

    def step(
        self,
        state: MultiNodeState,
        inlet_temp_k: float,
        pack_heat_w: float,
        dt: float,
        cooling_active: bool = True,
    ) -> MultiNodeState:
        """Advance all segments one step of ``dt`` seconds.

        Heat is distributed evenly across segments (uniform current in a
        series pack); the coolant chain is solved segment-by-segment in
        flow order, each segment's outlet becoming the next one's inlet.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        p = self._p
        m = self._m
        h = p.h_battery_coolant_w_per_k / m
        cb = self._cb_total / m
        cc = p.coolant_heat_capacity_j_per_k / m
        q = pack_heat_w / m

        # the stream leaves the pack at (approximately) the last segment's
        # coolant temperature; the C2/C3 clamp holds against that outlet
        outlet = float(state.coolant_temps_k[-1])
        if cooling_active:
            inlet = self.clamp_inlet(inlet_temp_k, outlet)
            wc = p.flow_capacity_rate_w_per_k
        else:
            inlet = outlet
            wc = 0.0

        new_tb = np.empty(m)
        new_tc = np.empty(m)
        upstream = inlet
        for i in range(m):
            # the lumped loop's Eq. 17 solve, with the flow term fed by the
            # upstream segment's (new) coolant temperature
            new_tb[i], new_tc[i] = solve_eq17(
                float(state.battery_temps_k[i]),
                float(state.coolant_temps_k[i]),
                upstream, q, dt, cb, cc, h, wc,
            )
            upstream = new_tc[i]

        return MultiNodeState(
            battery_temps_k=new_tb,
            coolant_temps_k=new_tc,
            inlet_temp_k=inlet,
        )
