"""Each step computes each state quantity once and passes it on.

- A plant step, scalar or lockstep, reads the pack's cell Voc and R once
  (:meth:`~repro.battery.pack.BatteryPack.cell_voc_res`), the bank voltage
  once (the bank's Eq. 8 voltage on the hybrid plant, the re-strung
  ``cap_voltage`` on the parallel and dual plants) and each converter
  port's efficiency once.
- It reads each bank energy query (``available_j``, ``headroom_j``,
  ``reserve_j``, behind the bank's C5/C7
  :meth:`~repro.ultracap.bank.UltracapBank.window`) at most once per bank
  state - a bank state lasts until the bank's next ``apply_power`` - and
  ``apply_power`` itself reads none.
- :func:`repro.sim.engine.drive` clamps and prices the cooling command
  once per cooled step (``clamp_inlet``, ``cooler_power_w``); the thermal
  step takes the applied inlet and prices nothing.

The spies wrap the queries and count calls over one step or one route.
"""

import numpy as np
import pytest

from repro.battery.pack import DEFAULT_PACK, BatteryPack, BatteryPackVec
from repro.cooling.loop import CoolingLoop
from repro.hees.dual import DualHEES, DualHEESVec, DualMode
from repro.hees.hybrid import HybridHEES, HybridHEESVec
from repro.hees.parallel import ParallelHEES, ParallelHEESVec
from repro.sim.engine_vec import run_lockstep_group
from repro.sim.scenario import Scenario, build_controller
from repro.sim.engine import Simulator
from repro.ultracap.bank import UltracapBank, UltracapBankVec
from repro.ultracap.params import bank_of_farads


def spy(monkeypatch, targets: dict) -> dict:
    """Wrap each ``name -> (owner, attribute)`` query; return its call counts."""
    calls = dict.fromkeys(targets, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, (owner, attr) in targets.items():
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    return calls


#: The bank's energy queries, read at most once per bank state.
BANK_QUERIES = ("available_j", "headroom_j", "reserve_j")


def plant_queries(plant) -> dict:
    """The state reads of one plant step, by name."""
    elec = plant.pack.electrical
    targets = {
        "voc": (elec, "open_circuit_voltage"),
        "res": (elec, "internal_resistance"),
    }
    if isinstance(plant, HybridHEES):
        targets["bank_voltage"] = (plant.bank, "voltage")
        targets["eta_bat"] = (plant.battery_converter, "efficiency")
        targets["eta_cap"] = (plant.cap_converter, "efficiency")
    else:
        targets["bank_voltage"] = (plant, "cap_voltage")
    for name in BANK_QUERIES:
        targets[name] = (plant.bank, name)
    return targets


def spy_step(monkeypatch, plant):
    """Spy on :func:`plant_queries`; return the call counts and the bank reads.

    The bank's energy queries are logged, not counted: each read as
    ``(query, bank state, inside apply_power)``, the bank state counting
    the bank's ``apply_power`` calls so far.
    """
    bank = plant.bank
    state = {"epoch": 0, "applying": False}
    reads = []
    targets = plant_queries(plant)
    bank_targets = {name: targets.pop(name) for name in BANK_QUERIES}
    calls = spy(monkeypatch, targets)
    for name, (owner, attr) in bank_targets.items():
        query = getattr(owner, attr)

        def logged(*args, _name=name, _query=query, **kwargs):
            reads.append((_name, state["epoch"], state["applying"]))
            return _query(*args, **kwargs)

        monkeypatch.setattr(owner, attr, logged)
    apply_power = bank.apply_power

    def applying(*args, **kwargs):
        state["applying"] = True
        try:
            return apply_power(*args, **kwargs)
        finally:
            state["applying"] = False
            state["epoch"] += 1

    monkeypatch.setattr(bank, "apply_power", applying)
    return calls, reads


def check_reads(calls: dict, reads: list) -> None:
    """Each pre-step state read once; each bank query once per bank state."""
    assert calls == dict.fromkeys(calls, 1)
    assert [read for read in reads if read[2]] == []  # apply_power reads none
    per_state = [(name, epoch) for name, epoch, _ in reads]
    assert len(set(per_state)) == len(per_state), per_state


# ---------------------------------------------------------------------- #
# scalar plant steps


def _pack(soc=90.0, temp=305.0):
    return BatteryPack(DEFAULT_PACK, initial_soc_percent=soc, initial_temp_k=temp)


def _bank(soe=80.0, farads=25_000.0):
    return UltracapBank(bank_of_farads(farads), initial_soe_percent=soe)


def _c6(pack):
    return float(pack.max_discharge_power_w(*pack.cell_voc_res()))


#: name -> (plant factory, step arguments after the request, request factory)
SCALAR_CASES = {
    "hybrid": (lambda: HybridHEES(_pack(), _bank()), (5_000.0,), lambda p: 30_000.0),
    "hybrid-charge": (
        lambda: HybridHEES(_pack(), _bank(soe=50.0)),
        (-10_000.0,),
        lambda p: 5_000.0,
    ),
    # the battery clips on the peak and the reserve-tap pass runs
    "hybrid-reserve-tap": (
        lambda: HybridHEES(_pack(), _bank(soe=20.0)),
        (0.0,),
        lambda p: 0.97 * _c6(p.pack) + 20_000.0,
    ),
    "parallel": (lambda: ParallelHEES(_pack(), _bank()), (), lambda p: 30_000.0),
    "parallel-pack-clip": (
        lambda: ParallelHEES(_pack(), _bank()),
        (),
        lambda p: 1e7,
    ),
    "dual-ultracap": (
        lambda: DualHEES(_pack(), _bank()),
        (DualMode.ULTRACAP, 0.0),
        lambda p: 30_000.0,
    ),
}

#: Dual steps that never read the bank voltage, by name as above.
DUAL_CASES = {
    "dual-recharge": (DualMode.RECHARGE, 5_000.0, 10_000.0),
    "dual-regen": (DualMode.BATTERY, 0.0, -15_000.0),
    "dual-battery": (DualMode.BATTERY, 0.0, 30_000.0),
}


@pytest.mark.parametrize("case", list(SCALAR_CASES))
def test_scalar_step_reads_each_state_once(case, monkeypatch):
    build, args, request = SCALAR_CASES[case]
    plant = build()
    request_w = request(plant)
    soe0 = plant.bank.soe_percent
    calls, reads = spy_step(monkeypatch, plant)
    plant.step(request_w, *args, 1.0)
    check_reads(calls, reads)
    # every case touches the bank once, and reads its window before that
    assert {name for name, epoch, _ in reads if epoch == 0} >= {
        "available_j",
        "headroom_j",
    }
    if case == "hybrid-reserve-tap":
        assert plant.bank.soe_percent < soe0  # the emergency pass ran
        # ... which read the moved bank's window once, reserve included
        assert sorted(name for name, epoch, _ in reads if epoch == 1) == sorted(
            BANK_QUERIES
        )


@pytest.mark.parametrize("case", list(DUAL_CASES))
def test_scalar_dual_step_reads_the_window_once_where_it_needs_it(case, monkeypatch):
    mode, recharge_w, request_w = DUAL_CASES[case]
    plant = DualHEES(_pack(), _bank(soe=50.0))
    calls, reads = spy_step(monkeypatch, plant)
    plant.step(request_w, mode, recharge_w, 1.0)
    assert calls["voc"] == calls["res"] == 1
    assert [read for read in reads if read[2]] == []
    expected = [] if case == "dual-battery" else [("available_j", 0), ("headroom_j", 0)]
    assert sorted((name, epoch) for name, epoch, _ in reads) == expected


# ---------------------------------------------------------------------- #
# lockstep plant steps

FARADS = (5_000.0, 10_000.0, 25_000.0, 25_000.0, 15_000.0)
SOC = (90.0, 50.0, 95.0, 30.0, 70.0)
TEMP_K = (305.0, 290.0, 310.0, 298.0, 300.0)
SOE = (80.0, 20.0, 100.0, 50.0, 35.0)


def _columns():
    pack = BatteryPackVec(DEFAULT_PACK, np.array(SOC), np.array(TEMP_K))
    bank = UltracapBankVec([bank_of_farads(f) for f in FARADS])
    bank.reset(np.array(SOE))
    return pack, bank


def _lockstep_hybrid():
    plant = HybridHEESVec(*_columns())
    # column 1 sits at the C5 floor and asks for a peak: the reserve tap runs
    c6 = plant.pack.max_discharge_power_w(*plant.pack.cell_voc_res())
    requests = np.array([30_000.0, 0.97 * c6[1] + 20_000.0, -20_000.0, 5_000.0, 4e4])
    commands = np.array([5_000.0, 0.0, -20_000.0, -10_000.0, 20_000.0])
    return plant, (requests, commands)


def _lockstep_dual():
    modes = np.array([DualMode.ULTRACAP, DualMode.BATTERY, DualMode.RECHARGE] * 2)
    requests = np.array([30_000.0, 20_000.0, 10_000.0, -15_000.0, 5_000.0])
    return DualHEESVec(*_columns()), (requests, modes[:5], np.full(5, 5_000.0))


#: name -> factory of (lockstep plant, step arguments before ``dt``)
LOCKSTEP_CASES = {
    "hybrid": _lockstep_hybrid,
    "parallel": lambda: (
        ParallelHEESVec(*_columns()),
        (np.array([30_000.0, 1e7, -20_000.0, 0.0, 60_000.0]),),
    ),
    "dual": _lockstep_dual,
}


@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
def test_lockstep_step_reads_each_state_once(case, monkeypatch):
    plant, args = LOCKSTEP_CASES[case]()
    soe0 = plant.bank.soe_percent.copy()
    calls, reads = spy_step(monkeypatch, plant)
    plant.step(*args, 1.0)
    check_reads(calls, reads)
    assert {name for name, epoch, _ in reads if epoch == 0} == {
        "available_j",
        "headroom_j",
    }
    if case == "hybrid":
        assert plant.bank.soe_percent[1] < soe0[1]  # the emergency pass ran
        assert sorted(name for name, epoch, _ in reads if epoch == 1) == sorted(
            BANK_QUERIES
        )


# ---------------------------------------------------------------------- #
# the cooling command, through drive


def _cooling_spy(monkeypatch):
    return spy(
        monkeypatch,
        {
            "clamp_inlet": (CoolingLoop, "clamp_inlet"),
            "cooler_power_w": (CoolingLoop, "cooler_power_w"),
        },
    )


@pytest.mark.parametrize("methodology", ["cooling", "heuristic"])
def test_scalar_drive_clamps_and_prices_each_cooled_step_once(
    methodology, monkeypatch, short_request
):
    scenario = Scenario(methodology=methodology, cycle="us06", initial_temp_k=310.0)
    calls = _cooling_spy(monkeypatch)
    trace = Simulator(
        build_controller(scenario), initial_temp_k=scenario.initial_temp_k
    ).run(short_request).trace
    cooled = int(np.count_nonzero(trace.cooling_power_w > 0.0))
    assert cooled > 0
    assert calls == {"clamp_inlet": cooled, "cooler_power_w": cooled}


@pytest.mark.parametrize("methodology", ["cooling", "heuristic", "parallel"])
def test_lockstep_drive_clamps_and_prices_each_step_once(
    methodology, monkeypatch, short_request
):
    # a column mask prices every column of a cooled step in one call
    scenarios = [
        Scenario(methodology=methodology, cycle="us06", initial_temp_k=t)
        for t in (298.0, 310.0)
    ]
    calls = _cooling_spy(monkeypatch)
    run_lockstep_group(scenarios, [short_request, short_request])
    steps = len(short_request) if methodology != "parallel" else 0
    assert calls == {"clamp_inlet": steps, "cooler_power_w": steps}
