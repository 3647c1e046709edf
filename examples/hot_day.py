#!/usr/bin/env python
"""Hot-day drive: cabin HVAC and battery cooling compete for energy.

On a 38 C afternoon the HVAC pulls kilowatts for the cabin while the
battery cooler fights pack heat - the scenario the paper's companion HVAC
study (reference [2]) motivates.  This example runs the same route at a
mild and a hot ambient and shows where the energy goes.

Usage::

    python examples/hot_day.py [cycle] [ambient_c]
"""

import sys

import numpy as np

from repro.controllers.cooling_only import CoolingOnlyController
from repro.core.otem import OTEMController
from repro.drivecycle.library import get_cycle
from repro.sim.engine import Simulator
from repro.ultracap.params import UltracapParams
from repro.vehicle.hvac import hvac_load_profile
from repro.vehicle.powertrain import Powertrain
from repro.utils.units import kelvin_to_celsius


def run(controller, request, initial_temp_k):
    sim = Simulator(
        controller, cap_params=UltracapParams(), initial_temp_k=initial_temp_k
    )
    return sim.run(request)


def main():
    cycle_name = sys.argv[1] if len(sys.argv) > 1 else "us06"
    ambient_c = float(sys.argv[2]) if len(sys.argv) > 2 else 38.0
    ambient_k = ambient_c + 273.15

    cycle = get_cycle(cycle_name, repeat=2)
    pt = Powertrain()
    plain = pt.power_request(cycle)
    hvac = hvac_load_profile(cycle.duration_s, ambient_k, dt=cycle.dt)
    loaded = pt.power_request(cycle, hvac_load_w=hvac)

    print(
        f"{cycle.name} at {ambient_c:.0f} C: HVAC adds "
        f"{np.mean(hvac) / 1000:.2f} kW average "
        f"({np.trapezoid(hvac, dx=cycle.dt) / 3.6e6:.2f} kWh)"
    )
    print(
        f"{'scenario':>22} {'avg P [kW]':>11} {'Qloss [%]':>10} "
        f"{'peak T [C]':>11} {'cool E [kWh]':>13}"
    )
    for label, request, temp0 in (
        ("mild day, no HVAC", plain, 298.0),
        (f"hot day ({ambient_c:.0f} C)", loaded, min(ambient_k, 309.0)),
    ):
        for controller in (
            CoolingOnlyController(),
            OTEMController(cap_params=UltracapParams()),
        ):
            result = run(controller, request, temp0)
            m = result.metrics
            print(
                f"{label + ' / ' + controller.name.split(' ')[0]:>22} "
                f"{m.average_power_w / 1000:>11.2f} {m.qloss_percent:>10.4f} "
                f"{kelvin_to_celsius(m.peak_temp_k):>11.1f} "
                f"{m.cooling_energy_j / 3.6e6:>13.2f}"
            )

    print()
    print(
        "The hot start costs both managers cooling energy, and the HVAC "
        "rides on top of every kW the storage delivers - range planning "
        "must budget for both."
    )


if __name__ == "__main__":
    main()
