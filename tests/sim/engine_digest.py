"""Engine digests: record and check what both engines produce, cell by cell.

A cell is one scenario run on one engine (``scalar``: :func:`repro.sim.
scenario.run_scenario`; ``lockstep``: :func:`repro.sim.engine_vec.
run_lockstep`).  Its digest is the ``SummaryMetrics`` fields as hex floats,
the solver stats, the sha256 of each of the 18 trace channels, and one
sha256 over all channels plus ``repr(SolverStats)``.

Three sets of cells:

``golden``
    The committed fixture ``engine_golden.json`` that
    ``test_engine_golden.py`` compares against: the four baselines x
    {nycc, us06} x {5,000, 25,000 F} on both engines, one scalar-backend
    OTEM NYCC cell on the scalar engine, and two vectorized-backend OTEM
    NYCC columns (perturbed seeds, ``mpc_max_evals=2``) on the lockstep
    engine.
``us06``
    The default scalar OTEM US06 cell.
``mc_ensemble``
    perfbench's 32 seed-1 ``mc_ensemble`` OTEM columns on the lockstep
    engine.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.sim.engine_digest --write [FILE]
    PYTHONPATH=src python -m tests.sim.engine_digest --check [FILE]
    PYTHONPATH=src python -m tests.sim.engine_digest --set us06 --write us06.json

``FILE`` defaults to the committed fixture (the ``golden`` set only).
``--check`` compares every digest exactly, prints each cell that differs
and exits 1 if any does.  Exact digests hold only on the machine and
NumPy build that recorded them (NumPy's SIMD kernels round differently
across CPUs), so ``--check`` is a local refactor check; the tier-1 test
compares the metrics within tolerances instead.  To show a refactor is
bitwise, record a set with ``PYTHONPATH`` pointing at the parent's
``src`` and check it at the change.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
from pathlib import Path

from repro.sim.batch import CACHE_SCHEMA
from repro.sim.engine_vec import run_lockstep
from repro.sim.scenario import Scenario, run_scenario
from repro.sim.trace import CHANNELS
from repro.utils.perf import provenance

#: The committed fixture of the ``golden`` set.
FIXTURE = Path(__file__).with_name("engine_golden.json")

BASELINES = ("parallel", "cooling", "dual", "heuristic")


def golden_cells() -> list[tuple[str, list[Scenario]]]:
    """``(engine, scenarios)`` runs of the ``golden`` set."""
    baselines = [
        Scenario(methodology=m, cycle=c, ucap_farads=f)
        for m in BASELINES
        for c in ("nycc", "us06")
        for f in (5_000.0, 25_000.0)
    ]
    vectorized_otem = [
        Scenario(
            methodology="otem",
            cycle="nycc",
            rollout_backend="vectorized",
            perturb_seed=seed,
            mpc_max_evals=2,
        )
        for seed in (1, 2)
    ]
    return [
        ("scalar", baselines),
        ("lockstep", baselines),
        ("scalar", [Scenario(methodology="otem", cycle="nycc")]),
        ("lockstep", vectorized_otem),
    ]


def us06_cells() -> list[tuple[str, list[Scenario]]]:
    return [("scalar", [Scenario(methodology="otem", cycle="us06")])]


def mc_ensemble_cells() -> list[tuple[str, list[Scenario]]]:
    from perfbench.workloads import MCEnsemble

    ensemble = MCEnsemble()
    return [("lockstep", ensemble.scenarios(1)[ensemble.MEMBERS :])]


SETS = {"golden": golden_cells, "us06": us06_cells, "mc_ensemble": mc_ensemble_cells}


def cell_id(engine: str, s: Scenario) -> str:
    route = s.cycle if s.perturb_seed is None else f"{s.cycle}~{s.perturb_seed}"
    return f"{engine}/{s.methodology}/{route}/{s.ucap_farads:g}F"


def digest(result) -> dict:
    """One result's metrics (hex floats), solver stats and channel digests."""
    trace, solver = result.trace, result.solver
    whole = hashlib.sha256()
    for name in CHANNELS:
        whole.update(trace.channel(name).tobytes())
    whole.update(repr(solver).encode())
    stats = None
    if solver is not None:
        stats = dataclasses.asdict(solver)
        stats["last_cost"] = float(solver.last_cost).hex()
    return {
        "metrics": {
            f.name: float(getattr(result.metrics, f.name)).hex()
            for f in dataclasses.fields(result.metrics)
        },
        "solver": stats,
        "channels": {
            name: hashlib.sha256(trace.channel(name).tobytes()).hexdigest()
            for name in CHANNELS
        },
        "sha256": whole.hexdigest(),
    }


def run_set(name: str) -> dict:
    """``{cell id: digest}`` for every cell of set ``name``."""
    cells = {}
    for engine, scenarios in SETS[name]():
        if engine == "scalar":
            results = [run_scenario(s) for s in scenarios]
        else:
            results = run_lockstep(scenarios)
        for s, result in zip(scenarios, results):
            cells[cell_id(engine, s)] = digest(result)
    return cells


def header(name: str) -> dict:
    return {
        "set": name,
        **provenance(),
        "machine": platform.machine(),
        "cache_schema": CACHE_SCHEMA,
    }


def differences(recorded: dict, cells: dict) -> list[str]:
    """One line per cell whose digest is not exactly the recorded one."""
    lines = []
    for cid in sorted(set(recorded) | set(cells)):
        old, new = recorded.get(cid), cells.get(cid)
        if old is None or new is None:
            lines.append(f"{cid}: only in {'the run' if old is None else 'the record'}")
        elif old != new:
            parts = [key for key in ("metrics", "solver") if old[key] != new[key]]
            old_ch, new_ch = old["channels"], new["channels"]
            parts += [ch for ch in CHANNELS if old_ch[ch] != new_ch[ch]]
            lines.append(f"{cid}: differs in {', '.join(parts) or 'sha256'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--set", choices=sorted(SETS), default="golden")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the set to FILE")
    mode.add_argument("--check", action="store_true", help="compare the set with FILE")
    parser.add_argument("file", nargs="?", type=Path)
    args = parser.parse_args(argv)
    path = args.file
    if path is None:
        if args.set != "golden":
            parser.error(f"--set {args.set} needs a FILE")
        path = FIXTURE

    cells = run_set(args.set)
    if args.write:
        path.write_text(
            json.dumps({"header": header(args.set), "cells": cells}, indent=1) + "\n"
        )
        print(f"wrote {len(cells)} cells to {path}")
        return 0

    recorded = json.loads(path.read_text())
    lines = differences(recorded["cells"], cells)
    print(f"recorded at {recorded['header']}")
    print(f"checked at  {header(args.set)}")
    for line in lines:
        print(line)
    print(f"{len(cells) - len(lines)} of {len(cells)} cells match exactly")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
