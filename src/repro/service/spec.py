"""Sweep specifications: the service's JSON wire format for scenario grids.

A :class:`SweepSpec` is what ``POST /sweeps`` accepts: a base scenario
(partial dict - unnamed fields keep their defaults), cross-product axes
over scenario fields, an optional traffic-perturbation ensemble size, and
execution knobs (worker processes, a wall-clock budget).  The engine each
cell runs on is not a knob: :func:`~repro.sim.batch.run_batch` routes it.
:meth:`SweepSpec.scenarios` compiles the spec with exactly the same
semantics as the ``repro batch`` CLI: :func:`~repro.sim.batch.
scenario_grid` cross product (last axis fastest) plus a ``perturb_seed``
axis ``0..seeds-1`` reusing :attr:`Scenario.perturb_seed`.

Example document::

    {
      "base": {"cycle": "nycc", "repeat": 1},
      "axes": {"methodology": ["parallel", "dual"],
               "ucap_farads": [5000.0, 25000.0]},
      "seeds": 4,
      "workers": 2
    }
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.sim.batch import scenario_grid
from repro.sim.scenario import Scenario
from repro.utils.validation import check_count, check_positive

#: Fields of :class:`Scenario` that a spec may sweep over.
SWEEPABLE_FIELDS = tuple(f.name for f in dataclasses.fields(Scenario))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: base scenario + axes + execution knobs.

    Attributes
    ----------
    base:
        The scenario every grid cell starts from.
    axes:
        Mapping of scenario field name to the values to sweep (cross
        product, last axis varying fastest).  Empty means a single cell.
    seeds:
        When > 0, appends a ``perturb_seed`` axis with members
        ``0..seeds-1`` (deterministic traffic-perturbation ensemble).
    workers:
        Worker processes for scalar-engine cells (0 = in-process).
    timeout_s:
        Optional whole-job wall-clock budget enforced by the job manager
        (cells still pending at the deadline are cancelled, the job is
        marked failed).
    tag:
        Free-form label echoed back in status records.
    """

    base: Scenario = field(default_factory=Scenario)
    axes: dict = field(default_factory=dict)
    seeds: int = 0
    workers: int = 0
    timeout_s: float | None = None
    tag: str = ""

    def __post_init__(self):
        check_count(self.seeds, "seeds", minimum=0)
        check_count(self.workers, "workers", minimum=0)
        if self.timeout_s is not None:
            check_positive(self.timeout_s, "timeout_s")
        unknown = sorted(set(self.axes) - set(SWEEPABLE_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown axis field(s) {', '.join(unknown)}; "
                f"sweepable: {', '.join(SWEEPABLE_FIELDS)}"
            )
        if "perturb_seed" in self.axes and self.seeds:
            raise ValueError("pass a perturb_seed axis or seeds, not both")
        for name, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not list(values):
                raise ValueError(f"axis {name!r} must be a non-empty list")

    # ------------------------------------------------------------------ #
    # compilation

    def scenarios(self) -> list:
        """Compile the spec to its scenario grid (CLI-identical semantics)."""
        axes = dict(self.axes)
        if self.seeds:
            axes["perturb_seed"] = list(range(self.seeds))
        if not axes:
            return [self.base]
        return scenario_grid(self.base, **axes)

    def cell_count(self) -> int:
        """Grid size without materializing the scenarios."""
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n * (self.seeds if self.seeds else 1)

    # ------------------------------------------------------------------ #
    # wire format

    def to_dict(self) -> dict:
        """JSON-safe plain-dict view (see :meth:`from_dict`)."""
        return {
            "base": self.base.to_dict(),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "seeds": self.seeds,
            "workers": self.workers,
            "timeout_s": self.timeout_s,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Parse a request document (every field optional)."""
        if not isinstance(data, dict):
            raise ValueError(
                f"sweep spec must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep-spec field(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        kwargs = dict(data)
        base = kwargs.pop("base", None)
        if base is not None:
            kwargs["base"] = Scenario.from_dict(base)
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON encoding (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Content hash of the canonical spec (identical sweeps collide)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()
