"""Ablation - power-request prediction quality.

The paper assumes the EV power request is "predicted by modeling the power
train and driving route" (Section III-B).  This bench compares that perfect
preview against a persistence forecast (current request held over the
window) - the information value of route knowledge.

Expected shape: perfect preview never loses on capacity loss, and its TEB
preparation score is at least as good.
"""

from repro.core.otem import OTEMController
from repro.core.teb import teb_preparation_score
from repro.drivecycle.library import get_cycle
from repro.sim.engine import Simulator
from repro.ultracap.params import UltracapParams
from repro.vehicle.powertrain import Powertrain


def run_mode(mode):
    request = Powertrain().power_request(get_cycle("us06"))
    controller = OTEMController(
        cap_params=UltracapParams(), preview_mode=mode
    )
    sim = Simulator(controller, cap_params=UltracapParams())
    return sim.run(request)


def test_ablation_preview_quality(benchmark):
    results = benchmark.pedantic(
        lambda: {m: run_mode(m) for m in ("perfect", "persistence")},
        rounds=1,
        iterations=1,
    )

    print()
    print("Ablation - preview quality (US06 x1)")
    print(f"{'mode':>12} {'qloss [%]':>10} {'avg P [kW]':>11} {'TEB score':>10}")
    for mode, result in results.items():
        print(
            f"{mode:>12} {result.qloss_percent:>10.4f} "
            f"{result.metrics.average_power_w / 1000:>11.2f} "
            f"{teb_preparation_score(result.trace):>10.3f}"
        )

    perfect = results["perfect"]
    persistence = results["persistence"]
    # route knowledge must not hurt
    assert perfect.qloss_percent <= persistence.qloss_percent * 1.10
    # and both must stay thermally safe
    assert perfect.metrics.time_above_safe_s == 0.0
