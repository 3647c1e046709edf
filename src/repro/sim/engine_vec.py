"""Lockstep multi-scenario simulation engine.

The scalar :class:`repro.sim.engine.Simulator` advances one scenario at a
time; batch sweeps (Monte-Carlo ensembles, bank-size grids) run the same
controller over dozens of near-identical routes.  This module advances all
of them *simultaneously*: every piece of state (SoC, SoE, temperatures,
thermostat latches) is a struct-of-arrays column vector and each timestep is
one NumPy pass over the whole batch, so the Python interpreter executes one
loop iteration per *timestep* instead of one per timestep per scenario.

Equivalence contract
--------------------
Each plant twin subclasses its scalar class and keeps only its step body
and what builds column state: ``BatteryPackVec`` keeps ``reset`` and
``apply_power``; ``UltracapBankVec`` keeps ``__init__``, ``reset`` and
``apply_power``; ``HybridHEESVec`` keeps ``__init__`` and ``step``;
``ParallelHEESVec`` and ``DualHEESVec`` keep ``step``; ``CoolingLoop``
keeps ``step_batch`` beside ``step``.  The step
bodies stay twinned because their scalar originals are measurably faster
on floats; each mirrors its scalar counterpart expression-for-expression,
with branches re-expressed as ``np.where`` masks that never round-trip
untouched state.  Everything else is defined once and takes a float or a
column array alike: every plant query (the bank's Eq. 8 voltage and C5/C7
energy and power limits, the pack's Voc, R and C6 ceiling, the re-strung
``cap_voltage``, ``sync_soe_to_battery``, ``cap_bus_limits``, the loop's
C2/C3 inlet clamp and Eq. 16 cooler power) is a NumPy ufunc expression
the twins inherit.  Shared as well are the scalar step-result types (one
array entry per column), the :class:`~repro.hees.converter.DCDCConverter`,
the re-strung bank constants (:func:`repro.hees.parallel.restrung_bank`)
and the Eq. 17 solve (:func:`repro.cooling.loop.solve_eq17`).  The
controller interface is shared too: each step the engine builds the
scalar engine's :class:`~repro.controllers.base.Observation` with one
array entry per column (its preview is the rest of each column's route,
one row per column) and the twin returns a
:class:`~repro.controllers.base.Decision` of columns and broadcasting
scalars; a switch position is a :class:`~repro.hees.dual.DualMode` code
in both engines.  Each batched policy is built from the scalar controller
:func:`repro.sim.scenario.build_controller` returns and reads its
thresholds, solver settings and ``uses_cooling`` from it, so the two
cannot disagree on a parameter.  A column of a lockstep run is therefore
bitwise-identical to the scalar run of that scenario - verified
channel-by-channel in ``tests/sim/test_engine_vec.py``, and query by query
in ``tests/sim/test_shared_queries.py`` - except for two bookkeeping-only
channels (``loss_increment_percent``, ``converter_loss_j``) where NumPy's
vectorized and scalar libm paths can round ``pow``/``exp`` one ulp apart
(~1e-15 relative); neither feeds back into the dynamics, so the
difference never cascades.

Scope
-----
The four baseline methodologies vectorize unconditionally: their policies
are closed-form per step.  OTEM vectorizes too
(:class:`repro.controllers.batched.BatchedOTEM` +
:class:`repro.core.mpc.MPCPlannerVec` solve every column's horizon in one
lockstep wave) - but only for scenarios that request
``rollout_backend="vectorized"``: a lockstep OTEM column reproduces the
scalar engine running that scenario *with the vectorized solver backend*,
so routing a scalar-backend scenario here would silently change which
reference it matches.  Scalar-backend OTEM cells therefore stay on the
scalar engine (:func:`lockstep_supported` refuses them).  Scenarios mix
freely within a group as long as the architecture-defining fields match
(:func:`lockstep_key` - which for OTEM also pins the solver shape);
cycle lengths may be ragged - columns are zero-padded to the longest
route and truncated on output, which is exact because no operation
couples columns and the scalar preview is zero past the route end too.
:func:`run_lockstep_group` builds a baseline group's one scalar policy
(the key fixes everything that configures it) and an OTEM group's
per-column controllers, then makes the twin from them.
"""

from __future__ import annotations

import numpy as np

from repro.battery.pack import BatteryPackVec
from repro.controllers.base import Architecture, Observation
from repro.controllers.batched import BATCHED_CONTROLLERS, BatchedOTEM
from repro.cooling.loop import CoolingLoop
from repro.drivecycle.library import get_cycle
from repro.hees.dual import DualHEESVec
from repro.hees.hybrid import HybridHEESVec
from repro.hees.parallel import ParallelHEESVec
from repro.sim.engine import SimulationResult, step_channels
from repro.sim.metrics import compute_metrics
from repro.sim.scenario import Scenario, build_controller
from repro.sim.trace import CHANNELS, Trace
from repro.ultracap.bank import UltracapBankVec
from repro.vehicle.powertrain import Powertrain, PowerRequest

#: Methodologies the lockstep engine can vectorize: the closed-form
#: baselines plus OTEM (batched MPC - see :func:`lockstep_supported` for
#: the per-scenario backend condition).
LOCKSTEP_METHODOLOGIES = frozenset(BATCHED_CONTROLLERS) | {"otem"}


def lockstep_supported(scenario: Scenario) -> bool:
    """Whether ``scenario`` can run on the lockstep engine.

    Baselines qualify unconditionally.  OTEM qualifies only with
    ``rollout_backend="vectorized"``: the lockstep MPC solves on the
    batched kernel, so a scalar-backend scenario routed here would
    silently switch solver backends - that choice stays with the
    scenario, not the engine.
    """
    if scenario.methodology == "otem":
        return scenario.rollout_backend == "vectorized"
    return scenario.methodology in LOCKSTEP_METHODOLOGIES


def lockstep_key(scenario: Scenario):
    """Grouping key: scenarios sharing it can share one lockstep batch.

    The methodology fixes the controller and plant twin; the pack layout is
    shared pack state; the coolant parametrizes the loop and the batched
    thermostats.  Bank size, vehicle, initial temperature, cycle, repeat
    count, and perturbation seed all vary freely per column.  OTEM cells
    additionally pin the solver shape (weights, horizon, step, budget):
    :class:`repro.core.mpc.MPCPlannerVec` solves the group's horizons as
    one wave, so those knobs must be uniform within a group.
    """
    key = (scenario.methodology, scenario.pack, scenario.coolant)
    if scenario.methodology == "otem":
        key += (
            scenario.weights,
            scenario.mpc_horizon,
            scenario.mpc_step_s,
            scenario.mpc_max_evals,
        )
    return key


def lockstep_groups(scenarios) -> list[list[int]]:
    """The routing rule: which cells of a grid run on the lockstep engine.

    Returns the index lists of the supported cells that share a
    :func:`lockstep_key` with at least one other cell of ``scenarios``,
    one list per key, ordered by first member.  Every other cell - a
    singleton group gains nothing from vectorization, and scalar-backend
    OTEM is unsupported - runs on the scalar engine.  The rule reads only
    the grid, so it fixes each cell's engine (and fingerprint) before any
    store lookup.
    """
    groups: dict = {}
    for i, scenario in enumerate(scenarios):
        if lockstep_supported(scenario):
            groups.setdefault(lockstep_key(scenario), []).append(i)
    return [indices for indices in groups.values() if len(indices) >= 2]


def build_request(scenario: Scenario) -> PowerRequest:
    """The power-request trace ``scenario`` implies (as in ``run_scenario``)."""
    cycle = get_cycle(scenario.cycle, repeat=scenario.repeat)
    if scenario.perturb_seed is not None:
        from repro.drivecycle.perturb import perturbed

        cycle = perturbed(cycle, scenario.perturb_seed)
    return Powertrain(scenario.vehicle).power_request(cycle)


#: The lockstep twin of the plant each architecture names.
_PLANT_TWINS = {
    Architecture.PARALLEL: ParallelHEESVec,
    Architecture.DUAL: DualHEESVec,
    Architecture.HYBRID: HybridHEESVec,
}


def run_lockstep_group(
    scenarios: list[Scenario], requests: list[PowerRequest] | None = None
) -> list[SimulationResult]:
    """Advance one homogeneous group of scenarios in lockstep.

    All scenarios must share :func:`lockstep_key` and their requests must
    share ``dt`` (use :func:`run_lockstep` to group arbitrary sets).
    Each step runs the scalar engine's sequence on whole columns - the
    same :class:`~repro.controllers.base.Observation` and
    :class:`~repro.controllers.base.Decision`, holding columns - and
    records through the same :func:`repro.sim.engine.step_channels` map
    into ``(t_max, m)`` channel buffers.  Returns one
    :class:`SimulationResult` per scenario, index-aligned.
    """
    if not scenarios:
        return []
    if requests is None:
        requests = [build_request(s) for s in scenarios]
    first = scenarios[0]
    if any(lockstep_key(s) != lockstep_key(first) for s in scenarios):
        raise ValueError("lockstep group mixes methodology/pack/coolant")
    dt = requests[0].dt
    if any(r.dt != dt for r in requests):
        raise ValueError("lockstep group mixes sample periods")

    m = len(scenarios)
    lengths = np.array([len(r) for r in requests])
    t_max = int(lengths.max())
    # ragged routes: zero-pad to the longest column; finished columns keep
    # simulating at zero request (no cross-column coupling) and their trace
    # is truncated below, so the padding never leaks into results
    power = np.zeros((t_max, m))
    for j, r in enumerate(requests):
        power[: len(r), j] = r.power_w
    power.flags.writeable = False

    # the twin is built from the scalar controllers build_controller
    # returns, so each policy is defined once (see repro.controllers.batched)
    if first.methodology == "otem":
        controller = BatchedOTEM([build_controller(s) for s in scenarios], lengths)
    else:
        twin = BATCHED_CONTROLLERS[first.methodology]
        controller = twin(build_controller(first))
    controller.reset(m)
    arch = controller.architecture

    pack = BatteryPackVec(
        first.pack,
        initial_soc_percent=100.0,
        initial_temp_k=np.array([s.initial_temp_k for s in scenarios]),
    )
    bank = UltracapBankVec([s.cap_params() for s in scenarios])
    plant = _PLANT_TWINS[arch](pack, bank)
    loop = CoolingLoop(first.coolant, first.pack.heat_capacity_j_per_k)

    coolant_temp = pack.temp_k.copy()
    passive = not controller.uses_cooling

    buf = {name: np.empty((t_max, m)) for name in CHANNELS}

    for k in range(t_max):
        p_e = power[k]
        # the preview is the rest of each column's route, one row per
        # column (time along the last axis, as on the scalar engine)
        obs = Observation(
            step_index=k,
            time_s=k * dt,
            dt=dt,
            power_request_w=p_e,
            preview_w=power[k:].T,
            battery_soc_percent=pack.soc_percent,
            battery_temp_k=pack.temp_k,
            coolant_temp_k=coolant_temp,
            cap_soe_percent=bank.soe_percent,
        )
        decision = controller.control(obs)

        # price the cooling command before the plant step (the cooler
        # draws from the HEES bus); per-column thermostats may disagree
        cooling_on = decision.cooling_active
        inlet = np.where(
            cooling_on,
            loop.clamp_inlet(decision.inlet_temp_k, coolant_temp),
            coolant_temp,
        )
        cooling_power = np.where(
            cooling_on,
            loop.cooler_power_w(inlet, coolant_temp)
            + first.coolant.pump_power_w,
            0.0,
        )

        total_request = p_e + cooling_power

        if arch is Architecture.PARALLEL:
            step = plant.step(total_request, dt)
        elif arch is Architecture.HYBRID:
            step = plant.step(total_request, decision.cap_bus_w, dt)
        else:
            step = plant.step(
                total_request, decision.dual_mode, decision.recharge_power_w, dt
            )

        thermal = loop.step_batch(
            pack.temp_k,
            coolant_temp,
            inlet,
            step.battery_heat_w,
            dt,
            cooling_active=cooling_on,
            passive_ambient=passive,
        )
        pack.set_temperature(thermal.battery_temp_k)
        coolant_temp = thermal.coolant_temp_k

        channels = step_channels(k * dt, p_e, step, thermal, pack, bank, coolant_temp)
        for name, value in channels.items():
            buf[name][k] = value

    stats_fn = getattr(controller, "solver_stats", None)
    solver_stats = stats_fn() if callable(stats_fn) else None
    results = []
    for j, request in enumerate(requests):
        n = int(lengths[j])
        trace = Trace(
            **{name: buf[name][:n, j].copy() for name in CHANNELS}
        )
        results.append(
            SimulationResult(
                controller_name=controller.name,
                cycle_name=request.cycle_name,
                trace=trace,
                metrics=compute_metrics(trace),
                solver=solver_stats[j] if solver_stats is not None else None,
            )
        )
    return results


def run_lockstep(scenarios) -> list[SimulationResult]:
    """Run any mix of lockstep-supported scenarios, grouping automatically.

    Scenarios are bucketed by :func:`lockstep_key` plus sample period; each
    bucket advances as one batch.  Returns results index-aligned with the
    input.  Raises ``ValueError`` if any scenario is not lockstep-capable
    (callers decide the fallback - see ``repro.sim.batch``).
    """
    scenarios = list(scenarios)
    for s in scenarios:
        if not lockstep_supported(s):
            if s.methodology == "otem":
                raise ValueError(
                    "lockstep OTEM requires rollout_backend='vectorized' "
                    f"(got {s.rollout_backend!r}); scalar-backend MPC cells "
                    "run on the scalar engine"
                )
            raise ValueError(
                f"methodology {s.methodology!r} has no batched policy; "
                "run it on the scalar engine"
            )
    requests = [build_request(s) for s in scenarios]
    groups: dict[tuple, list[int]] = {}
    for i, (s, r) in enumerate(zip(scenarios, requests)):
        groups.setdefault((*lockstep_key(s), r.dt), []).append(i)
    results: list[SimulationResult | None] = [None] * len(scenarios)
    for indices in groups.values():
        out = run_lockstep_group(
            [scenarios[i] for i in indices], [requests[i] for i in indices]
        )
        for i, res in zip(indices, out):
            results[i] = res
    return results
