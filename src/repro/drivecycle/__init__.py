"""Standard drive cycles for EV simulation.

The paper evaluates on official EPA drive cycles (US06, UDDS, HWFET, NYCC,
LA92) fed to ADVISOR.  This environment has no network access to the official
data files, so :mod:`repro.drivecycle.library` reconstructs each cycle as a
deterministic segment program whose duration, distance, speed envelope and
stop structure match the published statistics of the real cycle (see
DESIGN.md, substitution table).

Public API
----------
``DriveCycle``
    Immutable (time, speed) trace with resampling, statistics and repetition.
``get_cycle(name, repeat=1)``
    Look up a named cycle ("us06", "udds", ...).
``available_cycles()``
    Names of all built-in cycles.
``SegmentSpec`` / ``synthesize``
    The synthesis engine used by the library (also usable for custom cycles).
``perturbed``
    Deterministic traffic-variation variants for robustness studies.
"""

from repro.drivecycle.cycle import CycleStats, DriveCycle
from repro.drivecycle.synth import SegmentSpec, synthesize
from repro.drivecycle.library import available_cycles, get_cycle
from repro.drivecycle.perturb import perturbed

__all__ = [
    "CycleStats",
    "DriveCycle",
    "SegmentSpec",
    "synthesize",
    "available_cycles",
    "get_cycle",
    "perturbed",
]
