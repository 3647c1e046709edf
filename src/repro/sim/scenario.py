"""One-call experiment scenarios.

Everything the paper's evaluation varies - methodology, drive cycle, number
of repetitions, ultracapacitor size, ambient/initial temperature - is a
:class:`Scenario` field; :func:`run_scenario` builds the whole stack
(cycle -> powertrain -> controller -> simulator) and returns the
:class:`repro.sim.engine.SimulationResult`.  The benchmark harness and the
examples are thin layers over this module.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.battery.pack import DEFAULT_PACK, PackConfig
from repro.battery.params import CellParams
from repro.controllers.base import Controller
from repro.controllers.cooling_only import CoolingOnlyController
from repro.controllers.dual_threshold import DualThresholdController
from repro.controllers.parallel_passive import ParallelPassiveController
from repro.cooling.coolant import DEFAULT_COOLANT, CoolantParams
from repro.core.cost import CostWeights
from repro.core.mpc import MPCPlanner
from repro.core.otem import OTEMController
from repro.drivecycle.library import get_cycle
from repro.sim.engine import SimulationResult, Simulator
from repro.ultracap.params import UltracapParams, bank_of_farads
from repro.utils.validation import check_count, check_positive
from repro.vehicle.params import MODEL_S_LIKE, VehicleParams
from repro.vehicle.powertrain import Powertrain

#: Methodology identifiers accepted by :func:`build_controller`.  The first
#: four are the paper's evaluation set (Section IV-B); "heuristic" is the
#: beyond-paper peak-shaving manager used by the MPC-value ablation.
METHODOLOGIES = ("parallel", "cooling", "dual", "otem", "heuristic")


@dataclass(frozen=True)
class Scenario:
    """A fully specified experiment.

    Attributes
    ----------
    methodology:
        One of :data:`METHODOLOGIES`.
    cycle:
        Drive-cycle name (see :func:`repro.drivecycle.available_cycles`).
    repeat:
        Number of back-to-back cycle repetitions.
    ucap_farads:
        Ultracapacitor bank size [F] (the paper sweeps 5,000-25,000).
    initial_temp_k:
        Initial battery/coolant temperature [K] (Algorithm 1 uses 298).
    pack:
        Battery pack layout.
    vehicle:
        Vehicle parameters for the powertrain.
    coolant:
        Cooling-loop parameters.
    weights:
        OTEM objective weights (ignored by baselines).
    mpc_horizon / mpc_step_s / mpc_max_evals:
        OTEM planner knobs (ignored by baselines).
    rollout_backend:
        MPC rollout implementation, ``"scalar"`` (reference) or
        ``"vectorized"`` (batched NumPy kernel, several times faster per
        solve; ignored by baselines).
    perturb_seed:
        When not ``None``, the route is the deterministic traffic-perturbed
        variant of ``cycle`` with this seed (see
        :func:`repro.drivecycle.perturb.perturbed`) - Monte-Carlo ensembles
        become plain scenario grids.
    """

    methodology: str = "otem"
    cycle: str = "us06"
    repeat: int = 1
    ucap_farads: float = 25_000.0
    initial_temp_k: float = 298.0
    pack: PackConfig = DEFAULT_PACK
    vehicle: VehicleParams = MODEL_S_LIKE
    coolant: CoolantParams = DEFAULT_COOLANT
    weights: CostWeights = field(default_factory=CostWeights)
    mpc_horizon: int = 12
    mpc_step_s: float = 5.0
    mpc_max_evals: int = 150
    rollout_backend: str = "scalar"
    perturb_seed: int | None = None

    def __post_init__(self):
        if self.methodology not in METHODOLOGIES:
            raise ValueError(
                f"unknown methodology {self.methodology!r}; "
                f"choose from {METHODOLOGIES}"
            )
        check_positive(self.ucap_farads, "ucap_farads")
        check_positive(self.initial_temp_k, "initial_temp_k")
        check_positive(self.mpc_step_s, "mpc_step_s")
        for name in ("repeat", "mpc_horizon", "mpc_max_evals"):
            check_count(getattr(self, name), name)
        if self.rollout_backend not in MPCPlanner.BACKENDS:
            raise ValueError(
                f"unknown rollout_backend {self.rollout_backend!r}; "
                f"choose from {MPCPlanner.BACKENDS}"
            )

    def cap_params(self) -> UltracapParams:
        """The bank parameter set this scenario implies."""
        return bank_of_farads(self.ucap_farads)

    # ------------------------------------------------------------------ #
    # JSON round-trip (the sweep service's wire format)

    def to_dict(self) -> dict:
        """Recursive plain-dict view (JSON-safe; see :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild a scenario from a (possibly partial) plain dict.

        Missing fields keep their defaults, so sweep specs only name what
        they change; unknown keys raise ``ValueError`` (catches typos in
        hand-written specs).  Nested parameter blocks (``pack``,
        ``vehicle``, ``coolant``, ``weights``) may themselves be partial.
        Round-trips exactly: floats survive JSON via repr-exact encoding,
        and ``perturb_seed`` round-trips ``None`` and ints alike.
        """
        return _dataclass_from_dict(cls, data, "scenario")

    def to_json(self) -> str:
        """Canonical JSON encoding of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Inverse of :meth:`to_json` (accepts partial documents too)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"scenario JSON must be an object, got {data!r}")
        return cls.from_dict(data)


#: Dataclass-valued fields and their types, per dataclass - what
#: :func:`_dataclass_from_dict` needs to rebuild the nested tree (the
#: ``from __future__ import annotations`` string types make introspecting
#: ``dataclasses.fields`` for this unreliable).
_NESTED_FIELD_TYPES: dict = {}


def _dataclass_from_dict(cls, data, label: str):
    """Rebuild ``cls`` from a partial plain dict, recursing into nests."""
    if not isinstance(data, dict):
        raise ValueError(f"{label} must be a mapping, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(
            f"unknown {label} field(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(names))}"
        )
    nested = _NESTED_FIELD_TYPES.get(cls, {})
    kwargs = {}
    for name, value in data.items():
        if name in nested and value is not None:
            value = _dataclass_from_dict(nested[name], value, f"{label}.{name}")
        kwargs[name] = value
    return cls(**kwargs)


_NESTED_FIELD_TYPES.update(
    {
        Scenario: {
            "pack": PackConfig,
            "vehicle": VehicleParams,
            "coolant": CoolantParams,
            "weights": CostWeights,
        },
        PackConfig: {"cell": CellParams},
    }
)


def build_controller(scenario: Scenario) -> Controller:
    """Instantiate the methodology named by the scenario."""
    if scenario.methodology == "parallel":
        return ParallelPassiveController()
    if scenario.methodology == "cooling":
        return CoolingOnlyController(coolant=scenario.coolant)
    if scenario.methodology == "dual":
        return DualThresholdController()
    if scenario.methodology == "heuristic":
        from repro.controllers.heuristic import HybridHeuristicController

        return HybridHeuristicController(coolant=scenario.coolant)
    return OTEMController(
        pack_config=scenario.pack,
        cap_params=scenario.cap_params(),
        coolant=scenario.coolant,
        weights=scenario.weights,
        horizon=scenario.mpc_horizon,
        mpc_step_s=scenario.mpc_step_s,
        max_function_evals=scenario.mpc_max_evals,
        rollout_backend=scenario.rollout_backend,
    )


def run_scenario(scenario: Scenario) -> SimulationResult:
    """Build the stack for ``scenario``, run it, and return the result."""
    cycle = get_cycle(scenario.cycle, repeat=scenario.repeat)
    if scenario.perturb_seed is not None:
        from repro.drivecycle.perturb import perturbed

        cycle = perturbed(cycle, scenario.perturb_seed)
    request = Powertrain(scenario.vehicle).power_request(cycle)
    simulator = Simulator(
        build_controller(scenario),
        pack_config=scenario.pack,
        cap_params=scenario.cap_params(),
        coolant=scenario.coolant,
        initial_temp_k=scenario.initial_temp_k,
    )
    return simulator.run(request)
