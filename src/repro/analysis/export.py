"""CSV export of simulation traces (``repro export``).

The library deliberately has no plotting dependency; the exporter writes
every recorded channel so downstream users can render it with whatever
tooling they have.
"""

from __future__ import annotations

import csv

from repro.sim.trace import CHANNELS, Trace


def write_trace_csv(trace: Trace, path: str):
    """Write every recorded channel of a simulation trace, one row per step."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CHANNELS)
        for i in range(len(trace)):
            writer.writerow([float(trace.channel(name)[i]) for name in CHANNELS])
