"""Fig. 8 and Fig. 9 - capacity loss and average power, from one sweep.

The paper draws both figures from the same runs on {US06, UDDS, HWFET,
NYCC, LA92}; this bench runs that (cycle x methodology) sweep once and
renders both.

Fig. 8 (capacity loss relative to the parallel baseline): OTEM reduces it
on every cycle (16.38% on average in the paper's figure; ~57% on US06 per
Table I).  Expected shape: OTEM ratio < 1 on every cycle and OTEM's ratio
is the best (smallest) of the managed methodologies per cycle.

Fig. 9 (average power): methodologies with active cooling consume more
than the passive ones, but OTEM consumes 12.1% less on average than the
pure active-cooling methodology because the HEES contributes.  Expected
shape: parallel cheapest, cooling-only most expensive, OTEM in between and
strictly cheaper than cooling-only on the aggressive cycles.
"""

from benchmarks.conftest import REPEAT_SWEEP, run_once
from repro.analysis.figures import ALL_CYCLES, fig8_data
from repro.analysis.report import render_fig8, render_fig9


def test_fig8_fig9_comparison(benchmark):
    data = run_once(benchmark, fig8_data, cycles=ALL_CYCLES, repeat=REPEAT_SWEEP)
    print()
    print(render_fig8(data))
    print(render_fig9(data))

    # Fig. 8
    for cycle in data.cycles:
        ratios = data.qloss_ratio_vs_parallel[cycle]
        # OTEM always improves on parallel
        assert ratios["otem"] < 1.0, f"OTEM worse than parallel on {cycle}"
        # and is the best methodology on every cycle
        others = [ratios[m] for m in data.methodologies if m != "otem"]
        assert ratios["otem"] <= min(others) + 1e-9, f"OTEM not best on {cycle}"

    # average reduction in the paper's ballpark (paper: 16.38% across
    # cycles; our simulator shows larger gains on the aggressive cycles)
    assert data.mean_qloss_reduction_vs_parallel("otem") > 10.0

    # Fig. 9
    for cycle in data.cycles:
        power = data.avg_power_w[cycle]
        # passive parallel is always the cheapest
        assert power["parallel"] == min(power.values()), f"parallel not cheapest on {cycle}"

    # on the thermally demanding cycles the brute-force cooler is the most
    # expensive methodology and OTEM undercuts it (the paper's 12.1% claim
    # lives here; on mild short routes the thermostat barely engages, so
    # the cooling baseline has no overhead for OTEM to save - documented
    # in EXPERIMENTS.md)
    for cycle in ("us06", "la92"):
        power = data.avg_power_w[cycle]
        assert power["cooling"] == max(power.values()), f"cooling not priciest on {cycle}"
        assert power["otem"] < power["cooling"], f"OTEM not cheaper than cooling on {cycle}"

    # paper-magnitude saving on the aggressive cycle (paper average: 12.1%)
    us06 = data.avg_power_w["us06"]
    assert us06["otem"] < 0.97 * us06["cooling"]
