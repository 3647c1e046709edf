"""Per-step time-series recording.

The recorder writes each step into per-channel numpy buffers preallocated
to the route length (no per-step list appends, no list->array conversion
at the end) and freezes into a :class:`Trace` of read-only numpy arrays,
which is what the figure generators and tests consume.  Freezing is
zero-copy: the trace holds read-only views of the rows recorded so far,
and a later record only writes rows past them, so a frozen trace never
changes underneath its consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

#: Names of the recorded channels, in recording order.
CHANNELS = (
    "time_s",
    "request_w",
    "delivered_w",
    "battery_power_w",
    "cap_power_w",
    "cooling_power_w",
    "battery_soc_percent",
    "cap_soe_percent",
    "battery_temp_k",
    "coolant_temp_k",
    "inlet_temp_k",
    "heat_w",
    "cell_current_a",
    "chem_energy_j",
    "cap_energy_j",
    "converter_loss_j",
    "loss_increment_percent",
    "unmet_w",
)


@dataclass(frozen=True)
class Trace:
    """Frozen per-step time series of one simulation run.

    Every attribute is a read-only 1-D numpy array of equal length; energies
    and loss increments are per-step amounts, powers are step averages, and
    states are the values at the *end* of the step.
    """

    time_s: np.ndarray
    request_w: np.ndarray
    delivered_w: np.ndarray
    battery_power_w: np.ndarray
    cap_power_w: np.ndarray
    cooling_power_w: np.ndarray
    battery_soc_percent: np.ndarray
    cap_soe_percent: np.ndarray
    battery_temp_k: np.ndarray
    coolant_temp_k: np.ndarray
    inlet_temp_k: np.ndarray
    heat_w: np.ndarray
    cell_current_a: np.ndarray
    chem_energy_j: np.ndarray
    cap_energy_j: np.ndarray
    converter_loss_j: np.ndarray
    loss_increment_percent: np.ndarray
    unmet_w: np.ndarray

    def __post_init__(self):
        n = self.time_s.size
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr.size != n:
                raise ValueError(f"channel {f.name} has {arr.size} samples, expected {n}")
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.time_s.size

    @property
    def dt(self) -> float:
        """Sample period [s] (uniform)."""
        if len(self) < 2:
            return 1.0
        return float(self.time_s[1] - self.time_s[0])

    def channel(self, name: str) -> np.ndarray:
        """Look a channel up by name."""
        if name not in CHANNELS:
            raise KeyError(f"unknown channel {name!r}; available: {', '.join(CHANNELS)}")
        return getattr(self, name)


class TraceRecorder:
    """Per-step accumulator for a route of ``steps`` steps.

    Every channel buffer is allocated once at ``steps`` samples; a record
    past that raises.  :meth:`freeze` turns the rows recorded so far into a
    :class:`Trace`.
    """

    def __init__(self, steps: int):
        self._buf = {name: np.empty(steps) for name in CHANNELS}
        self._steps = steps
        self._n = 0

    def record(self, **values: float):
        """Append one step; every channel must be present exactly once."""
        if set(values) != set(CHANNELS):
            missing = set(CHANNELS) - set(values)
            extra = set(values) - set(CHANNELS)
            raise ValueError(f"bad record: missing={sorted(missing)} extra={sorted(extra)}")
        n = self._n
        if n == self._steps:
            raise IndexError(f"recorder is full: all {self._steps} steps recorded")
        for name, value in values.items():
            self._buf[name][n] = float(value)
        self._n = n + 1

    def __len__(self) -> int:
        return self._n

    def freeze(self) -> Trace:
        """Snapshot the rows recorded so far as a frozen :class:`Trace`.

        Zero-copy: the trace holds read-only *views* of those rows, which
        later records never write.
        """
        return Trace(**{name: self._buf[name][: self._n] for name in CHANNELS})
