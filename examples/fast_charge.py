#!/usr/bin/env python
"""Fast-charge thermal management: OTEM beyond driving.

DC fast charging is the harshest sustained thermal event a pack sees - a
constant high charging current for tens of minutes.  The same plant and
managers handle it: the "power request" is simply a constant negative bus
power.  This example charges a depleted pack at several rates and shows
how active cooling keeps the session inside the safe zone.

Usage::

    python examples/fast_charge.py [charge_kw] [minutes]
"""

import sys

import numpy as np

from repro.controllers.cooling_only import CoolingOnlyController
from repro.sim.engine import Simulator
from repro.utils.units import kelvin_to_celsius
from repro.vehicle.powertrain import PowerRequest


class NoCoolingCharger(CoolingOnlyController):
    """Same battery-only plant, no cooling loop (the comparison case).

    Like every pack without an installed cooling loop, this one is
    air-exposed.
    """

    name = "No cooling"
    uses_cooling = False


def charge_session(power_kw: float, minutes: float, controller) -> dict:
    steps = int(minutes * 60)
    request = PowerRequest(
        cycle_name=f"fast-charge-{power_kw:.0f}kW",
        dt=1.0,
        power_w=np.full(steps, -power_kw * 1000.0),
    )
    sim = Simulator(controller, initial_soc_percent=20.0, initial_temp_k=301.0)
    result = sim.run(request)
    return result


def main():
    power_kw = float(sys.argv[1]) if len(sys.argv) > 1 else 50.0
    minutes = float(sys.argv[2]) if len(sys.argv) > 2 else 25.0

    print(
        f"Fast charge: {power_kw:.0f} kW for {minutes:.0f} min, "
        f"pack starting at 20% SoC / 27.9 C"
    )
    print(
        f"{'manager':>12} {'final SoC [%]':>14} {'peak T [C]':>11} "
        f"{'unsafe [s]':>11} {'Qloss [%]':>10} {'cool E [kWh]':>13}"
    )
    for controller in (NoCoolingCharger(), CoolingOnlyController()):
        result = charge_session(power_kw, minutes, controller)
        m = result.metrics
        soc_final = result.trace.battery_soc_percent[-1]
        print(
            f"{controller.name:>12} {soc_final:>14.1f} "
            f"{kelvin_to_celsius(m.peak_temp_k):>11.1f} {m.time_above_safe_s:>11.0f} "
            f"{m.qloss_percent:>10.4f} {m.cooling_energy_j / 3.6e6:>13.2f}"
        )

    print()
    print(
        "Charging current ages the battery too (Eq. 5 uses |I|); the cooler "
        "pays for itself in lifetime whenever the session would otherwise "
        "leave the safe zone."
    )


if __name__ == "__main__":
    main()
