"""Extension - environment-temperature sweep.

The paper's experimental setup evaluates "different environment
temperatures" (Section IV-A) without showing a dedicated figure.  This
bench sweeps the initial battery/ambient temperature and checks the
physical couplings the models encode:

* starting hot, OTEM spends more cooling energy than starting cool;
* starting cold, the battery is less efficient (higher internal
  resistance), so the passive baseline consumes more energy than at the
  reference temperature;
* OTEM keeps the battery inside the safe zone at every start temperature.
"""

from benchmarks.conftest import BATCH_WORKERS, run_once
from repro.sim.batch import run_batch, scenario_grid
from repro.sim.scenario import Scenario
from repro.utils.units import kelvin_to_celsius

START_TEMPS_K = (278.15, 298.15, 310.15)  # 5 C, 25 C, 37 C


def sweep():
    """The (temperature x methodology) grid as one parallel batch, uncached
    so the recorded timing is always a computation."""
    grid = scenario_grid(
        Scenario(cycle="us06", repeat=1),
        initial_temp_k=START_TEMPS_K,
        methodology=("parallel", "otem"),
    )
    batch = run_batch(grid, workers=BATCH_WORKERS).raise_on_failure()
    out = {t0: {} for t0 in START_TEMPS_K}
    for cell in batch.cells:
        out[cell.scenario.initial_temp_k][cell.scenario.methodology] = cell.metrics
    return out


def test_ambient_temperature_sweep(benchmark):
    results = run_once(benchmark, sweep)

    print()
    print("Extension - environment temperature sweep (US06 x1)")
    print(
        f"{'start [C]':>10} {'par P [kW]':>11} {'par Q [%]':>10} "
        f"{'otem P [kW]':>12} {'otem Q [%]':>11} {'otem cool [kWh]':>16}"
    )
    for t0 in START_TEMPS_K:
        par = results[t0]["parallel"]
        otem = results[t0]["otem"]
        print(
            f"{kelvin_to_celsius(t0):>10.0f} {par.average_power_w / 1000:>11.2f} "
            f"{par.qloss_percent:>10.4f} {otem.average_power_w / 1000:>12.2f} "
            f"{otem.qloss_percent:>11.4f} {otem.cooling_energy_j / 3.6e6:>16.2f}"
        )

    cold, ref, hot = START_TEMPS_K
    # cold start: higher resistance -> the passive baseline burns more energy
    assert (
        results[cold]["parallel"].hees_energy_j
        > results[ref]["parallel"].hees_energy_j
    )
    # hot start: OTEM pays more for cooling than at the reference
    assert (
        results[hot]["otem"].cooling_energy_j
        > results[ref]["otem"].cooling_energy_j * 0.9
    )
    # hot start ages the passive baseline hardest
    assert (
        results[hot]["parallel"].qloss_percent
        > results[ref]["parallel"].qloss_percent
    )
    # OTEM stays safe everywhere
    for t0 in START_TEMPS_K:
        assert results[t0]["otem"].time_above_safe_s < 30.0
