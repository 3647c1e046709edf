"""Each plant query is defined once and serves floats and columns alike.

The lockstep twins (``*Vec``) inherit every query from their scalar
classes and keep only their step bodies.  Two checks hold that in place:

- a query called on a twin's column arrays equals, bitwise, the same query
  called on one scalar object per column;
- no twin defines a public method its scalar class also defines, other
  than the step bodies (``apply_power``, ``step``) and ``reset``.
"""

import numpy as np
import pytest

from repro.battery.pack import DEFAULT_PACK, BatteryPack, BatteryPackVec
from repro.cooling.coolant import DEFAULT_COOLANT
from repro.cooling.loop import CoolingLoop
from repro.hees.dual import DualHEES, DualHEESVec
from repro.hees.hybrid import HybridHEES, HybridHEESVec
from repro.hees.parallel import ParallelHEES, ParallelHEESVec
from repro.ultracap.bank import UltracapBank, UltracapBankVec
from repro.ultracap.params import bank_of_farads

#: One column per point: Table I bank sizes mixed with bank SoE below the
#: hard floor, inside the reserve band, mid-window and full, and pack
#: SoC/temperature points from the C4 floor to full, cold to hot.
FARADS = (5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0, 5_000.0)
SOE = (3.0, 12.0, 20.0, 55.0, 100.0, 0.0)
SOC = (15.0, 20.0, 50.0, 90.0, 100.0, 35.0)
TEMP_K = (273.15, 290.0, 298.0, 310.0, 330.0, 301.5)
#: Commanded inlets and in-pack coolant temperatures for the C2/C3 clamp:
#: below the coldest producible inlet, inside the window, above T_o.
INLET_K = (250.0, 295.0, 305.0, 320.0, 288.15, 300.0)
COOLANT_K = (298.0, 300.0, 303.0, 310.0, 330.0, 300.0)

PARAMS = [bank_of_farads(f) for f in FARADS]


def scalar_columns():
    """One scalar (pack, bank) pair per column."""
    return [
        (
            BatteryPack(DEFAULT_PACK, initial_soc_percent=soc, initial_temp_k=t),
            UltracapBank(p, initial_soe_percent=soe),
        )
        for p, soe, soc, t in zip(PARAMS, SOE, SOC, TEMP_K)
    ]


def twin_columns():
    """The same columns as one (pack, bank) twin pair."""
    pack = BatteryPackVec(DEFAULT_PACK, np.array(SOC), np.array(TEMP_K))
    bank = UltracapBankVec(PARAMS)
    bank.reset(np.array(SOE))
    return pack, bank


LOOP = CoolingLoop(DEFAULT_COOLANT, DEFAULT_PACK.heat_capacity_j_per_k)


def cap_bus_limits(plant):
    """The hybrid limits at the ultracap port's efficiency, as a step reads them."""
    return plant.cap_bus_limits(1.0, plant.cap_converter.efficiency(plant.bank.voltage()))


#: name -> (build, query).  ``build`` wraps a (pack, bank) pair in the
#: object that owns the query (its twin on column storage, see
#: :data:`TWIN_OF`); ``query`` calls it.
QUERIES = {
    "bank.voltage": (lambda pk, bk: bk, lambda o: o.voltage()),
    "bank.energy_j": (lambda pk, bk: bk, lambda o: o.energy_j),
    "bank.headroom_j": (lambda pk, bk: bk, lambda o: o.headroom_j()),
    "bank.available_j": (lambda pk, bk: bk, lambda o: o.available_j()),
    "bank.reserve_j": (lambda pk, bk: bk, lambda o: o.reserve_j()),
    "bank.max_discharge_power_w": (
        lambda pk, bk: bk,
        lambda o: o.max_discharge_power_w(1.0),
    ),
    "bank.max_charge_power_w": (lambda pk, bk: bk, lambda o: o.max_charge_power_w(1.0)),
    "bank.max_discharge_power_w(dt=0)": (
        lambda pk, bk: bk,
        lambda o: o.max_discharge_power_w(0.0),
    ),
    "pack.open_circuit_voltage": (
        lambda pk, bk: pk,
        lambda o: o.open_circuit_voltage(),
    ),
    "pack.internal_resistance": (lambda pk, bk: pk, lambda o: o.internal_resistance()),
    "pack.cell_voc_res.voc": (lambda pk, bk: pk, lambda o: o.cell_voc_res()[0]),
    "pack.cell_voc_res.res": (lambda pk, bk: pk, lambda o: o.cell_voc_res()[1]),
    "pack.max_discharge_power_w": (
        lambda pk, bk: pk,
        lambda o: o.max_discharge_power_w(*o.cell_voc_res()),
    ),
    "parallel.cap_voltage": (ParallelHEES, lambda o: o.cap_voltage()),
    "parallel.sync_soe_to_battery": (
        ParallelHEES,
        lambda o: (o.sync_soe_to_battery(), o.bank.soe_percent)[1],
    ),
    "dual.cap_voltage": (DualHEES, lambda o: o.cap_voltage()),
    "hybrid.cap_bus_limits.min": (HybridHEES, lambda o: cap_bus_limits(o)[0]),
    "hybrid.cap_bus_limits.max": (HybridHEES, lambda o: cap_bus_limits(o)[1]),
}

#: The twin each scalar owner of a query becomes on column storage.
TWIN_OF = {
    ParallelHEES: ParallelHEESVec,
    DualHEES: DualHEESVec,
    HybridHEES: HybridHEESVec,
}


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", list(QUERIES))
def test_query_on_columns_equals_per_column_floats_bitwise(name):
    build, query = QUERIES[name]
    twin_build = TWIN_OF.get(build, build)
    per_column = [query(build(pack, bank)) for pack, bank in scalar_columns()]
    columns = query(twin_build(*twin_columns()))
    assert np.shape(columns) == (len(FARADS),)
    assert bits(columns) == bits(per_column)


@pytest.mark.parametrize("query", ["clamp_inlet", "cooler_power_w"])
def test_loop_query_on_columns_equals_per_column_floats_bitwise(query):
    method = getattr(LOOP, query)
    per_column = [method(i, c) for i, c in zip(INLET_K, COOLANT_K)]
    assert bits(method(np.array(INLET_K), np.array(COOLANT_K))) == bits(per_column)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_set_temperature_checks_every_column(bad):
    pack, _ = twin_columns()
    with pytest.raises(ValueError, match="temp_k"):
        pack.set_temperature(np.array(TEMP_K[:-1] + (bad,)))


def test_columns_cover_the_clamp_and_floor_branches():
    """Guard the point choice: every min/max above takes both sides."""
    _, bank = twin_columns()
    assert (bank.available_j() == 0.0).any() and (bank.available_j() > 0.0).any()
    assert (bank.headroom_j() == 0.0).any() and (bank.headroom_j() > 0.0).any()
    assert (bank.reserve_j() == 0.0).any() and (bank.reserve_j() > 0.0).any()
    clamped = LOOP.clamp_inlet(np.array(INLET_K), np.array(COOLANT_K))
    assert (clamped > np.array(INLET_K)).any()  # raised to the coldest inlet
    assert (clamped < np.array(INLET_K)).any()  # capped at T_o (C2)
    assert (clamped == np.array(INLET_K)).any()


#: (twin, scalar class) pairs of the lockstep plant.
TWINS = [
    (BatteryPackVec, BatteryPack),
    (UltracapBankVec, UltracapBank),
    (ParallelHEESVec, ParallelHEES),
    (DualHEESVec, DualHEES),
    (HybridHEESVec, HybridHEES),
]

#: What a twin may define over its scalar class: its step body and reset.
STEP_BODIES = {"apply_power", "step", "reset"}


@pytest.mark.parametrize("twin,scalar", TWINS, ids=[t.__name__ for t, _ in TWINS])
def test_twin_defines_only_its_step_body(twin, scalar):
    own = {
        name
        for name, value in vars(twin).items()
        if not name.startswith("_") and (callable(value) or isinstance(value, property))
    }
    assert {name for name in own if hasattr(scalar, name)} <= STEP_BODIES


def test_cooling_loop_keeps_no_batch_copy_of_a_query():
    batch_names = {name for name in vars(CoolingLoop) if name.endswith("_batch")}
    assert batch_names == {"step_batch"}
