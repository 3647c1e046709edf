"""Parallel batch execution of scenario grids, cached in the experiment store.

Every sweep in the evaluation - Table I's bank sizes, the ambient
temperature extension, the Monte-Carlo robustness ensemble - is an
embarrassingly parallel grid of independent :class:`~repro.sim.scenario.
Scenario` cells.  :func:`run_batch` fans such a grid out across worker
processes and aggregates the per-cell :class:`~repro.sim.metrics.
SummaryMetrics` into a :class:`BatchResult`:

* **deterministic ordering** - cell ``i`` of the result is always scenario
  ``i`` of the input, regardless of which worker finished first;
* **crash isolation** - a diverging solve (or any exception) fails *that
  cell* (``cell.error``) instead of the sweep;
* **per-scenario timeout** - a best-effort wall-clock budget per cell
  (a cell that exceeds it is marked failed; its worker still runs to the
  end, and the batch waits for it);
* **content-addressed caching** - pass ``store=`` (a
  :class:`repro.store.ExperimentStore`) to key every cell by a fingerprint
  of the full scenario (controller, pack, vehicle, coolant, weights, MPC
  knobs) plus the engine backend assigned to it, so repeated sweeps, CI
  re-runs and the sweep service after a restart skip already-computed
  cells;
* **lockstep vectorization** - cells that share an architecture (and,
  for OTEM, a solver shape) are batched onto the struct-of-arrays engine
  (:mod:`repro.sim.engine_vec`), advancing the whole group per NumPy step
  instead of per-cell Python loops.  This covers the four baselines *and*
  OTEM cells running the vectorized rollout backend, whose replan waves
  are solved in lockstep by :class:`repro.core.mpc.MPCPlannerVec`;
  scalar-backend OTEM cells and singleton groups stay on the scalar
  engine (the one routing rule is :func:`~repro.sim.engine_vec.
  lockstep_groups`).  A lockstep group that raises is rerun cell by cell
  on the scalar engine, and every rerouted cell records the exception in
  ``BatchCell.fallback``.

Serial execution (``workers=0``) goes through exactly the same cell
runner, so parallel results are bitwise identical to serial ones (see
tests/sim/test_batch.py).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy
import scipy

from repro.core.mpc import SolverStats
from repro.sim.engine_vec import lockstep_groups, run_lockstep
from repro.sim.metrics import SummaryMetrics
from repro.sim.scenario import Scenario, run_scenario
from repro.utils.validation import check_count, check_positive

#: Bump when the cached payload layout or the simulation semantics change
#: in a way that must invalidate existing cache entries.
#: 2: SolverStats gained ``backend``; Scenario gained ``rollout_backend``.
#: 3: CellPayload gained ``engine_backend``; fingerprints include the
#:    engine backend assigned to the cell (lockstep engine added).
#: 4: OTEM cells may be lockstep-assigned (batched MPC); SolverStats
#:    gained warm-start winner attribution (``wins_*``).
#: 5: the scalar OTEM solve takes the rollout's exact gradient instead of
#:    forward differences, so every scalar OTEM row changes.
#: 6: fingerprints hash the NumPy and SciPy versions instead of the
#:    package version, so rows stored under another toolchain miss.
CACHE_SCHEMA = 6

#: Error string marking cells skipped by a :func:`run_batch` ``cancel``
#: hook (the sweep service matches on the ``"cancelled"`` prefix).
_CANCELLED_ERROR = "cancelled: sweep cancelled before this cell ran"


# ---------------------------------------------------------------------- #
# fingerprinting


def scenario_fingerprint(scenario: Scenario, engine_backend: str = "scalar") -> str:
    """Content hash of everything that determines a scenario's result.

    Recursively serializes the scenario's dataclass tree (pack, vehicle,
    coolant, weights, MPC knobs included) into canonical JSON and hashes
    it together with the cache schema, the NumPy and SciPy versions, and
    the engine backend the cell is assigned to, so any parameter change -
    however deep - yields a different key.  The toolchain is part of the
    key because SciPy's L-BFGS-B (driven through its private ``setulb`` on
    the lockstep path) and NumPy's kernels are part of every result.  The
    backend is part of the key because lockstep results match scalar ones
    only to ~1e-15 relative (transcendental SIMD kernels), and a cache
    must never blur which engine produced a number.  Assignment is decided from the full input grid
    *before* any cache lookup, so fingerprints are deterministic for a
    given ``run_batch`` call regardless of cache state.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "engine_backend": engine_backend,
        "scenario": dataclasses.asdict(scenario),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------- #
# the per-cell payload (what workers return and the store keeps)


@dataclass(frozen=True)
class CellPayload:
    """Picklable result of one scenario run (no trace - summaries only).

    ``engine_backend`` records which engine computed the cell
    (``"scalar"`` or ``"lockstep"``); lockstep cells report their share of
    the group wall time (group wall / group size) as ``wall_s``.
    """

    controller_name: str
    cycle_name: str
    metrics: SummaryMetrics
    solver: SolverStats | None
    wall_s: float
    engine_backend: str = "scalar"


@dataclass(frozen=True)
class BatchCell:
    """One grid cell of a :class:`BatchResult`.

    ``metrics`` is ``None`` exactly when ``error`` is set; ``cached`` marks
    cells served from the store (their ``wall_s`` is the original compute
    time, not the lookup time).  ``engine_backend`` names the engine that
    computed the cell (``"scalar"`` or ``"lockstep"``).  ``fallback`` is
    ``"<ExcType>: msg"`` when the lockstep group the cell was assigned to
    raised and the cell was rerouted to the scalar engine, else ``None``.
    """

    index: int
    scenario: Scenario
    metrics: SummaryMetrics | None = None
    solver: SolverStats | None = None
    controller_name: str = ""
    cycle_name: str = ""
    wall_s: float = 0.0
    cached: bool = False
    error: str | None = None
    engine_backend: str = "scalar"
    fallback: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the cell computed successfully."""
        return self.error is None


# ---------------------------------------------------------------------- #
# the runner


def _payload(result, wall_s: float, engine_backend: str) -> CellPayload:
    """Reduce a :class:`~repro.sim.engine.SimulationResult` to its payload."""
    return CellPayload(
        controller_name=result.controller_name,
        cycle_name=result.cycle_name,
        metrics=result.metrics,
        solver=result.solver,
        wall_s=wall_s,
        engine_backend=engine_backend,
    )


def _execute_cell(scenario: Scenario) -> CellPayload:
    """Run one scenario on the scalar engine and reduce it to a payload.

    Module-level so worker processes can import it under any start method.
    """
    start = time.perf_counter()
    result = run_scenario(scenario)
    return _payload(result, time.perf_counter() - start, "scalar")


def _guarded_cell(scenario: Scenario) -> tuple[CellPayload | None, str | None]:
    """Crash-isolation wrapper: exceptions become an error string."""
    try:
        return _execute_cell(scenario), None
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return None, f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class BatchResult:
    """Aggregated output of one :func:`run_batch` call.

    ``cells`` is index-aligned with the input scenarios.  The tidy-row
    accessors feed :mod:`repro.analysis` and the perf-trajectory JSON.
    """

    cells: tuple
    wall_s: float
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    #: How the cells actually executed: ``"serial"`` (requested),
    #: ``"process-pool"``, or ``"serial-fallback"`` (parallel requested but
    #: degraded because the host has a single CPU).  When the lockstep
    #: engine handled cells, the string is ``"lockstep"`` (every cell
    #: lockstep-assigned) or a ``"lockstep+<scalar mode>"`` composition
    #: (mixed grids, or lockstep groups that fell back to scalar cells).
    methodology: str = "serial"

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def ok(self) -> bool:
        """Whether every cell computed successfully."""
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> tuple:
        """The failed cells (empty on a clean sweep)."""
        return tuple(cell for cell in self.cells if not cell.ok)

    def metrics(self) -> list:
        """Index-aligned ``SummaryMetrics`` list (``None`` for failures)."""
        return [cell.metrics for cell in self.cells]

    def raise_on_failure(self) -> "BatchResult":
        """Raise ``RuntimeError`` listing failed cells, else return self."""
        if not self.ok:
            lines = [
                f"  cell {c.index} ({c.scenario.methodology}/{c.scenario.cycle}): "
                f"{c.error}"
                for c in self.failures
            ]
            raise RuntimeError(
                f"{len(self.failures)} of {len(self)} batch cells failed:\n"
                + "\n".join(lines)
            )
        return self

    def rows(self) -> list:
        """Tidy rows (one dict per cell): scenario knobs + metrics + stats.

        The flat format :mod:`repro.analysis.tables`/``figures`` and the
        ``BENCH_*.json`` trajectory files consume.
        """
        return [cell_row(cell) for cell in self.cells]

    def bench_payload(self) -> dict:
        """The ``BENCH_batch.json`` fragment describing this run."""
        return {
            "cells": len(self.cells),
            "failures": len(self.failures),
            "wall_s": self.wall_s,
            "workers": self.workers,
            "methodology": self.methodology,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "rows": self.rows(),
        }


def cell_row(cell: BatchCell) -> dict:
    """One tidy row for ``cell``: scenario knobs + metrics + solver stats.

    Module-level so incremental consumers (the sweep service's progress
    callback) can build rows cell-by-cell as a batch completes, instead of
    waiting for the whole :class:`BatchResult`.
    """
    s = cell.scenario
    row = {
        "index": cell.index,
        "methodology": s.methodology,
        "cycle": s.cycle,
        "repeat": s.repeat,
        "ucap_farads": s.ucap_farads,
        "initial_temp_k": s.initial_temp_k,
        "rollout_backend": s.rollout_backend,
        "perturb_seed": s.perturb_seed,
        "controller": cell.controller_name,
        "wall_s": cell.wall_s,
        "cached": cell.cached,
        "engine_backend": cell.engine_backend,
        "fallback": cell.fallback,
        "error": cell.error,
    }
    if cell.metrics is not None:
        for f in dataclasses.fields(cell.metrics):
            row[f.name] = getattr(cell.metrics, f.name)
    if cell.solver is not None:
        row["solver_solves"] = cell.solver.solves
        row["solver_iterations"] = cell.solver.total_iterations
        # None (JSON null), never NaN: a controller that never replanned
        # leaves last_cost at its NaN sentinel, which json.dumps emits as
        # bare `NaN` - invalid JSON to strict consumers.
        row["solver_last_cost"] = cell.solver.last_cost_or_none
        row["solver_backend"] = cell.solver.backend
        # winner attribution: which start seed won each replan race
        row["solver_wins_warm"] = cell.solver.wins_warm
        row["solver_wins_neutral"] = cell.solver.wins_neutral
        row["solver_wins_full_cool"] = cell.solver.wins_full_cool
    return row


def run_batch(
    scenarios: Iterable[Scenario] | Sequence[Scenario],
    workers: int = 0,
    store=None,
    timeout_s: float | None = None,
    on_cell_done: Callable[[BatchCell], None] | None = None,
    cancel: Callable[[], bool] | None = None,
) -> BatchResult:
    """Run a grid of scenarios, optionally in parallel and cached.

    Each cell's engine follows one rule, :func:`~repro.sim.engine_vec.
    lockstep_groups`: a lockstep-supported cell with at least one group-mate
    in the grid runs on the lockstep struct-of-arrays engine - the four
    baselines grouped by architecture, and OTEM cells running the
    vectorized rollout backend grouped by solver shape (MPC ensembles
    replan in lockstep waves); every other cell runs on the scalar engine.
    A lockstep group that raises re-routes its cells to the scalar engine
    one by one, preserving crash isolation; each rerouted cell carries the
    group's exception as ``fallback``.  To pick an engine explicitly, call
    :func:`~repro.sim.scenario.run_scenario` or
    :func:`~repro.sim.engine_vec.run_lockstep` directly.

    Parameters
    ----------
    scenarios:
        The grid, in the order results should come back.
    workers:
        ``0`` or ``1`` runs serially in-process; ``n >= 2`` fans out over a
        ``ProcessPoolExecutor`` with ``n`` workers.  Parallel cells produce
        bitwise-identical ``SummaryMetrics`` to serial ones.  On a
        single-CPU host a parallel request auto-degrades to in-process
        serial execution (pool spawn overhead cannot pay off there - see
        the sub-1.0 "parallel_speedup" it produced in BENCH_batch.json);
        the degradation is visible as ``BatchResult.methodology ==
        "serial-fallback"``.  Workers only ever compute scalar cells;
        lockstep groups run in-process (they are one NumPy loop).
    store:
        A :class:`repro.store.ExperimentStore`: cells whose fingerprint is
        already stored are served from it (across processes, sessions and
        service restarts) and fresh results are stored: each lockstep
        group with one ``put`` (one transaction) before its cells are
        reported, each scalar cell alone as soon as it finishes.  ``None``
        (default) disables caching.
    timeout_s:
        Best-effort per-cell wall-clock budget (scalar pool mode only): a
        cell still pending that long after its turn comes up is marked
        failed with a timeout error.  Its worker is not stopped, so the
        call returns only once that worker has finished the cell.
    on_cell_done:
        Progress callback invoked with each finished :class:`BatchCell`
        in completion order: store hits first, then each lockstep group
        as it completes, then the scalar cells in grid order.
    cancel:
        Cooperative cancellation hook: a zero-argument callable polled
        before each pending cell (and each lockstep group) starts.  Once
        it returns True, every cell that has not started is marked failed
        with a ``"cancelled: ..."`` error instead of being computed.
        Finished cells, store hits and pool cells a worker has already
        taken are unaffected: those run to the end and are collected.

    Returns
    -------
    BatchResult
        Cells index-aligned with ``scenarios``.
    """
    scenarios = list(scenarios)
    check_count(workers, "workers", minimum=0)
    if timeout_s is not None:
        check_positive(timeout_s, "timeout_s")
    scalar_methodology = "serial"
    if workers >= 2:
        if (os.cpu_count() or 1) <= 1:
            workers = 1
            scalar_methodology = "serial-fallback"
        else:
            scalar_methodology = "process-pool"
    cancelled = cancel if cancel is not None else (lambda: False)

    groups = lockstep_groups(scenarios)
    backends = ["scalar"] * len(scenarios)
    for indices in groups:
        for i in indices:
            backends[i] = "lockstep"

    start = time.perf_counter()
    cells: list = [None] * len(scenarios)
    keys: dict = {}
    #: index -> "<ExcType>: msg" of the lockstep group that rerouted it
    fallbacks: dict = {}
    #: this batch's own store lookups (the store's counters are shared by
    #: every caller holding the same store object)
    lookups = {"hits": 0, "misses": 0}

    def complete(
        index: int,
        payload: CellPayload | None = None,
        error: str | None = None,
        cached: bool = False,
    ) -> None:
        """Record cell ``index`` (a payload or an error) and report it."""
        # every CellPayload field is the BatchCell field of the same name
        computed = (
            {}
            if payload is None
            else {f.name: getattr(payload, f.name) for f in dataclasses.fields(payload)}
        )
        cell = BatchCell(
            index=index,
            scenario=scenarios[index],
            cached=cached,
            error=error,
            fallback=fallbacks.get(index),
            **computed,
        )
        cells[index] = cell
        if on_cell_done is not None:
            on_cell_done(cell)

    def save(payloads: dict) -> None:
        """Store ``{index: payload}`` in one ``put``, then complete each."""
        if store is not None:
            store.put({keys[i]: payload for i, payload in payloads.items()})
        for i, payload in payloads.items():
            complete(i, payload)

    def served(index: int) -> bool:
        """Serve cell ``index`` from the store under its engine's key."""
        if store is None:
            return False
        keys[index] = scenario_fingerprint(
            scenarios[index], engine_backend=backends[index]
        )
        payload = store.get(keys[index])
        lookups["misses" if payload is None else "hits"] += 1
        if payload is not None:
            complete(index, payload, cached=True)
        return payload is not None

    # serve store hits first; only the cells left unfinished need compute
    for i in range(len(scenarios)):
        served(i)
    scalar_pending = [
        i for i, cell in enumerate(cells) if cell is None and backends[i] == "scalar"
    ]
    lockstep_pending = [[i for i in indices if cells[i] is None] for indices in groups]

    # lockstep groups first, by first pending cell (in-process, one NumPy
    # loop per group); a group that fails re-routes its cells to the scalar
    # loop below, where each cell is crash-isolated individually and
    # records why it was rerouted
    for indices in sorted(filter(None, lockstep_pending)):
        if cancelled():
            for i in indices:
                complete(i, error=_CANCELLED_ERROR)
            continue
        t0 = time.perf_counter()
        try:
            results = run_lockstep([scenarios[i] for i in indices])
        except Exception as exc:  # noqa: BLE001 - fall back, isolate per cell
            for i in indices:
                backends[i] = "scalar"
                fallbacks[i] = f"{type(exc).__name__}: {exc}"
                if not served(i):
                    scalar_pending.append(i)
            continue
        per_cell_s = (time.perf_counter() - t0) / len(indices)
        save(
            {
                i: _payload(result, per_cell_s, "lockstep")
                for i, result in zip(indices, results)
            }
        )
    scalar_pending.sort()

    # the scalar cells, in grid order, in-process or on the process pool
    with contextlib.ExitStack() as stack:
        futures: dict = {}
        if workers >= 2 and scalar_pending and not cancelled():
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            )
            futures = {
                i: pool.submit(_guarded_cell, scenarios[i]) for i in scalar_pending
            }
        for i in scalar_pending:
            future = futures.get(i)
            # a cell a worker already took cannot be cancelled: collect it
            if cancelled() and (future is None or future.cancel()):
                complete(i, error=_CANCELLED_ERROR)
                continue
            if future is None:
                payload, error = _guarded_cell(scenarios[i])
            else:
                try:
                    payload, error = future.result(timeout=timeout_s)
                except concurrent.futures.TimeoutError:
                    future.cancel()
                    payload, error = None, f"timeout: exceeded {timeout_s:g} s budget"
                except concurrent.futures.process.BrokenProcessPool as exc:
                    payload, error = None, f"worker died: {exc}"
            if error is None:
                save({i: payload})  # alone, as soon as it finishes
            else:
                complete(i, error=error)

    n_lockstep = backends.count("lockstep")
    if not n_lockstep:
        methodology = scalar_methodology
    elif n_lockstep == len(scenarios):
        methodology = "lockstep"
    else:
        methodology = f"lockstep+{scalar_methodology}"

    return BatchResult(
        cells=tuple(cells),
        wall_s=time.perf_counter() - start,
        workers=workers,
        cache_hits=lookups["hits"],
        cache_misses=lookups["misses"],
        methodology=methodology,
    )


def scenario_grid(base: Scenario, **axes: Sequence) -> list:
    """Cross-product grid of scenarios around ``base``.

    Each keyword names a :class:`Scenario` field and supplies the values
    to sweep; the cross product is enumerated with the *last* axis varying
    fastest (like nested loops in keyword order).

    >>> grid = scenario_grid(
    ...     Scenario(cycle="nycc"),
    ...     methodology=("parallel", "otem"),
    ...     ucap_farads=(5_000.0, 25_000.0),
    ... )
    >>> [(s.methodology, s.ucap_farads) for s in grid]  # doctest: +SKIP
    """
    grid = [base]
    for name, values in axes.items():
        values = list(values)  # once: an iterator axis would be spent by the check
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        grid = [
            dataclasses.replace(s, **{name: value})
            for s in grid
            for value in values
        ]
    return grid
