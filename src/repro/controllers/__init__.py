"""Thermal/energy management policies.

The three state-of-the-art baselines the paper compares against
(Section IV-B) live here; the paper's own contribution (OTEM) lives in
:mod:`repro.core`.

Public API
----------
``Observation`` / ``Decision`` / ``Controller``
    The controller interface consumed by :class:`repro.sim.Simulator`.
``ParallelPassiveController``
    Baseline [15]: passive parallel architecture, no management.
``CoolingOnlyController``
    Baseline [25]: battery only + thermostatic active cooling.
``DualThresholdController``
    Baseline [16]: dual architecture, temperature-threshold switching.
``NoisyObservations`` / ``CoolingFailure``
    Robustness / failure-injection wrappers around any policy.

The lockstep twins (:mod:`repro.controllers.batched`), which the lockstep
engine (:mod:`repro.sim.engine_vec`) builds from the scalar policies
above, speak the same ``Observation`` / ``Decision`` interface on columns.
"""

from repro.controllers.base import Architecture, Controller, Decision, Observation
from repro.controllers.parallel_passive import ParallelPassiveController
from repro.controllers.cooling_only import CoolingOnlyController
from repro.controllers.dual_threshold import DualThresholdController
from repro.controllers.wrappers import CoolingFailure, NoisyObservations
from repro.controllers.heuristic import HybridHeuristicController

__all__ = [
    "HybridHeuristicController",
    "Architecture",
    "Controller",
    "Decision",
    "Observation",
    "ParallelPassiveController",
    "CoolingOnlyController",
    "DualThresholdController",
    "CoolingFailure",
    "NoisyObservations",
]
