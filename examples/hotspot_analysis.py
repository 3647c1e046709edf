#!/usr/bin/env python
"""Pack hot-spot analysis with the multi-node thermal model.

The simulation engine (like the paper) lump-models the pack. This example
replays a simulated route's heat profile through the segmented
:class:`MultiNodeCoolingLoop` and reports how much hotter the downstream
cells run than the lumped model believes - the margin a thermal engineer
must add to the C1 limit.

Usage::

    python examples/hotspot_analysis.py [methodology] [cycle] [nodes]
"""

import sys

import numpy as np

from repro import Scenario, run_scenario
from repro.battery.pack import DEFAULT_PACK
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.cooling.multinode import MultiNodeCoolingLoop
from repro.sim.scenario import build_controller
from repro.utils.units import kelvin_to_celsius


def main():
    methodology = sys.argv[1] if len(sys.argv) > 1 else "otem"
    cycle = sys.argv[2] if len(sys.argv) > 2 else "us06"
    nodes = int(sys.argv[3]) if len(sys.argv) > 3 else 6

    print(f"Simulating {methodology} on {cycle} x2 (lumped engine) ...")
    scenario = Scenario(methodology=methodology, cycle=cycle, repeat=2)
    result = run_scenario(scenario)
    trace = result.trace

    cooling_installed = build_controller(scenario).uses_cooling

    print(f"Replaying the heat profile through {nodes} thermal segments ...")
    loop = MultiNodeCoolingLoop(
        DEFAULT_COOLANT, DEFAULT_PACK.heat_capacity_j_per_k, nodes=nodes
    )
    state = loop.initial_state(trace.battery_temp_k[0])
    max_hotspot = 0.0
    max_gradient = 0.0
    worst_underestimate = 0.0
    for i in range(len(trace)):
        active = cooling_installed and trace.cooling_power_w[i] > 0
        state = loop.step(
            state,
            trace.inlet_temp_k[i],
            trace.heat_w[i],
            trace.dt,
            cooling_active=active,
        )
        max_hotspot = max(max_hotspot, state.max_battery_temp_k)
        max_gradient = max(max_gradient, state.gradient_k)
        worst_underestimate = max(
            worst_underestimate,
            state.max_battery_temp_k - trace.battery_temp_k[i],
        )

    print()
    print(f"lumped peak temperature:    {kelvin_to_celsius(result.metrics.peak_temp_k):.1f} C")
    print(f"segmented hot-spot peak:    {kelvin_to_celsius(max_hotspot):.1f} C")
    print(f"max along-flow gradient:    {max_gradient:.1f} K")
    print(f"worst lumped underestimate: {worst_underestimate:.1f} K")
    print()
    print(
        "Design takeaway: keep the lumped C1 limit at least "
        f"{np.ceil(worst_underestimate):.0f} K below the true cell limit to "
        "cover the downstream hot spot."
    )


if __name__ == "__main__":
    main()
