"""The batch runner: parallel == serial, caching, crash isolation."""

import dataclasses
import multiprocessing
import pickle
import time

import pytest

import repro.sim.batch as batch_mod
from repro.sim.batch import (
    BatchCell,
    CellPayload,
    run_batch,
    scenario_fingerprint,
    scenario_grid,
)
from repro.sim.scenario import Scenario
from repro.store import ExperimentStore

#: A small grid of fast (baseline-only) scenarios on the shortest cycle:
#: two lockstep groups of two (one per methodology).
GRID = scenario_grid(
    Scenario(cycle="nycc"),
    methodology=("parallel", "dual"),
    ucap_farads=(5_000.0, 25_000.0),
)

#: Fast baseline cells with no group-mates: every cell runs on the scalar
#: engine, so a process pool still gets work.
SINGLETONS = scenario_grid(
    Scenario(cycle="nycc"),
    methodology=("parallel", "cooling", "dual", "heuristic"),
)


def _unrunnable(scenario):
    """``scenario`` on a route that cannot be built, so its cell crashes.

    ``Scenario`` refuses an unknown cycle when it is constructed; the field
    is set past that check, so the failure happens where the cell runs.
    """
    bad = dataclasses.replace(scenario)
    object.__setattr__(bad, "cycle", "no-such-cycle")
    return bad


class TestScenarioGrid:
    def test_cross_product_last_axis_fastest(self):
        combos = [(s.methodology, s.ucap_farads) for s in GRID]
        assert combos == [
            ("parallel", 5_000.0),
            ("parallel", 25_000.0),
            ("dual", 5_000.0),
            ("dual", 25_000.0),
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            scenario_grid(Scenario(), ucap_farads=())

    def test_iterator_axis_is_enumerated(self):
        grid = scenario_grid(Scenario(), methodology=iter(["parallel", "dual"]))
        assert [s.methodology for s in grid] == ["parallel", "dual"]


class TestFingerprint:
    def test_stable_for_equal_scenarios(self):
        assert scenario_fingerprint(Scenario()) == scenario_fingerprint(Scenario())

    def test_sensitive_to_every_swept_knob(self):
        base = Scenario()
        for change in (
            {"methodology": "dual"},
            {"cycle": "nycc"},
            {"repeat": 2},
            {"ucap_farads": 5_000.0},
            {"initial_temp_k": 310.0},
            {"mpc_max_evals": 1},
            {"rollout_backend": "vectorized"},
            {"perturb_seed": 1},
        ):
            varied = dataclasses.replace(base, **change)
            assert scenario_fingerprint(varied) != scenario_fingerprint(base), change

    def test_sensitive_to_nested_params(self):
        from repro.core.cost import CostWeights

        varied = dataclasses.replace(Scenario(), weights=CostWeights(w1=123.0))
        assert scenario_fingerprint(varied) != scenario_fingerprint(Scenario())


class TestSerialRun:
    def test_matches_run_scenario(self):
        from repro.sim.scenario import run_scenario

        batch = run_batch(GRID[:1])
        assert batch.ok
        assert batch.cells[0].metrics == run_scenario(GRID[0]).metrics

    def test_deterministic_ordering_and_rows(self):
        batch = run_batch(GRID)
        assert [c.index for c in batch.cells] == [0, 1, 2, 3]
        assert [c.scenario for c in batch.cells] == GRID
        rows = batch.rows()
        assert [r["methodology"] for r in rows] == ["parallel"] * 2 + ["dual"] * 2
        assert all(r["qloss_percent"] > 0 for r in rows)

    def test_progress_callback(self):
        seen = []
        run_batch(GRID[:2], on_cell_done=seen.append)
        assert [c.index for c in seen] == [0, 1]
        assert all(isinstance(c, BatchCell) for c in seen)


class TestParallelRun:
    def test_parallel_equals_serial_bitwise(self):
        from repro.sim.scenario import run_scenario

        serial = [run_scenario(s).metrics for s in SINGLETONS]
        in_process = run_batch(SINGLETONS, workers=0)
        parallel = run_batch(SINGLETONS, workers=2)
        assert in_process.methodology == "serial"
        # a single-CPU host degrades the pool to serial (same cell runner)
        assert parallel.ok
        assert parallel.methodology in ("process-pool", "serial-fallback")
        if parallel.methodology == "process-pool":
            assert parallel.workers == 2
        # SummaryMetrics is a frozen dataclass of floats: == is bitwise
        assert [c.metrics for c in in_process.cells] == serial
        assert [c.metrics for c in parallel.cells] == serial
        assert [c.index for c in parallel.cells] == [0, 1, 2, 3]

    def test_worker_crash_isolated_to_its_cell(self):
        bad = _unrunnable(GRID[1])
        batch = run_batch([GRID[0], bad, GRID[2]], workers=2)
        assert not batch.ok
        assert [c.ok for c in batch.cells] == [True, False, True]
        assert "no-such-cycle" in batch.cells[1].error
        assert batch.cells[1].metrics is None
        assert batch.failures == (batch.cells[1],)
        with pytest.raises(RuntimeError, match="1 of 3"):
            batch.raise_on_failure()

    def test_serial_path_isolates_crashes_too(self):
        bad = _unrunnable(GRID[0])
        batch = run_batch([bad, GRID[3]], workers=0)
        assert [c.ok for c in batch.cells] == [False, True]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers only see the patched cell runner when forked",
    )
    def test_timeout_fails_only_the_slow_cell(self, monkeypatch):
        # precomputed payloads keep the fast cells well inside the budget
        payloads = {s.methodology: batch_mod._execute_cell(s) for s in SINGLETONS}

        def slow_cooling_cell(scenario):
            if scenario.methodology == "cooling":
                time.sleep(2.0)
            return payloads[scenario.methodology]

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(batch_mod, "_execute_cell", slow_cooling_cell)
        batch = run_batch(SINGLETONS, workers=2, timeout_s=0.3)
        assert batch.methodology == "process-pool"
        slow = batch.cells[1]
        assert slow.scenario.methodology == "cooling"
        assert slow.error.startswith("timeout:"), slow.error
        assert slow.metrics is None
        others = [c for c in batch.cells if c.index != 1]
        assert all(c.ok for c in others), [c.error for c in others]
        assert [c.metrics for c in others] == [
            payloads[c.scenario.methodology].metrics for c in others
        ]


class TestCache:
    def test_second_run_hits(self, tmp_path):
        store = ExperimentStore(tmp_path)
        first = run_batch(GRID, store=store)
        assert first.cache_hits == 0 and first.cache_misses == len(GRID)
        second = run_batch(GRID, store=store)
        assert second.cache_hits == len(GRID) and second.cache_misses == 0
        assert all(c.cached for c in second.cells)
        assert [c.metrics for c in second.cells] == [c.metrics for c in first.cells]

    def test_parameter_change_invalidates(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_batch(GRID[:1], store=store)
        varied = [dataclasses.replace(GRID[0], initial_temp_k=305.0)]
        rerun = run_batch(varied, store=store)
        assert rerun.cache_hits == 0 and rerun.cache_misses == 1

    def test_failures_are_not_cached(self, tmp_path):
        store = ExperimentStore(tmp_path)
        bad = [_unrunnable(GRID[0])]
        run_batch(bad, store=store)
        rerun = run_batch(bad, store=store)
        assert rerun.cache_hits == 0
        assert not rerun.ok
        assert len(store) == 0

    def test_payload_roundtrip(self, tmp_path):
        """The payload a run_batch stores comes back equal to the cell it
        produced, and stays picklable for the process pool."""
        store = ExperimentStore(tmp_path)
        batch = run_batch(GRID[:1], store=store)
        cell = batch.cells[0]
        payload = store.get(
            scenario_fingerprint(GRID[0], engine_backend=cell.engine_backend)
        )
        assert payload == CellPayload(
            controller_name=cell.controller_name,
            cycle_name=cell.cycle_name,
            metrics=cell.metrics,
            solver=cell.solver,
            wall_s=cell.wall_s,
            engine_backend=cell.engine_backend,
        )
        assert pickle.loads(pickle.dumps(payload)) == payload


class TestSerialFallback:
    """Parallel requests degrade to in-process serial on single-CPU hosts
    (pool spawn overhead produced the sub-1.0 "parallel speedup" recorded
    in BENCH_batch.json)."""

    def test_single_cpu_degrades(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        batch = run_batch(SINGLETONS[:2], workers=4)
        assert batch.ok
        assert batch.methodology == "serial-fallback"
        assert batch.workers == 1
        assert batch.bench_payload()["methodology"] == "serial-fallback"

    def test_unknown_cpu_count_degrades(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        batch = run_batch(GRID[:1], workers=2)
        assert batch.methodology == "serial-fallback"

    def test_multi_cpu_keeps_pool(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        batch = run_batch(GRID[:1], workers=2)
        assert batch.ok
        assert batch.methodology == "process-pool"
        assert batch.workers == 2

    def test_serial_request_stays_serial(self):
        batch = run_batch(GRID[:1], workers=0)
        assert batch.methodology == "serial"

    @pytest.mark.parametrize("workers", [-1, 2.5, True])
    def test_rejects_bad_worker_count(self, workers):
        with pytest.raises(ValueError, match="workers must be an integer >= 0"):
            run_batch(GRID[:1], workers=workers)

    @pytest.mark.parametrize("timeout_s", [0.0, float("nan"), "5"])
    def test_rejects_bad_timeout(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be a"):
            run_batch(GRID[:1], timeout_s=timeout_s)

    def test_fallback_matches_serial_bitwise(self, monkeypatch):
        serial = run_batch(SINGLETONS[:2], workers=0)
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        fallback = run_batch(SINGLETONS[:2], workers=4)
        assert [c.metrics for c in fallback.cells] == [
            c.metrics for c in serial.cells
        ]


class TestSolverStatsPlumbing:
    def test_otem_cell_carries_solver_stats(self):
        scenario = Scenario(
            methodology="otem",
            cycle="nycc",
            mpc_horizon=4,
            mpc_step_s=30.0,
            mpc_max_evals=1,
        )
        batch = run_batch([scenario])
        cell = batch.cells[0]
        assert cell.ok
        assert cell.solver is not None and cell.solver.solves > 0
        assert cell.solver.total_iterations >= cell.solver.solves
        row = batch.rows()[0]
        assert row["solver_solves"] == cell.solver.solves
        assert row["solver_backend"] == "scalar"
        assert isinstance(row["solver_last_cost"], float)

    def test_vectorized_cell_records_backend(self):
        scenario = Scenario(
            methodology="otem",
            cycle="nycc",
            mpc_horizon=4,
            mpc_step_s=30.0,
            mpc_max_evals=1,
            rollout_backend="vectorized",
        )
        batch = run_batch([scenario])
        assert batch.cells[0].ok
        row = batch.rows()[0]
        assert row["solver_backend"] == "vectorized"
        assert row["rollout_backend"] == "vectorized"

    def test_baseline_cell_has_no_solver_stats(self):
        batch = run_batch(GRID[:1])
        assert batch.cells[0].solver is None
        assert "solver_solves" not in batch.rows()[0]

    def test_nan_last_cost_serializes_as_null(self):
        """A controller that never replanned leaves last_cost at its NaN
        sentinel; the row must carry None (JSON null), never bare NaN."""
        import json
        import math

        from repro.core.mpc import SolverStats
        from repro.sim.batch import BatchResult

        stats = SolverStats(solves=0, total_iterations=0, last_cost=float("nan"))
        assert math.isnan(stats.last_cost)
        cell = BatchCell(index=0, scenario=GRID[0], solver=stats)
        result = BatchResult(cells=(cell,), wall_s=0.0, workers=0)
        row = result.rows()[0]
        assert row["solver_last_cost"] is None
        # strict consumers reject NaN tokens; the payload must survive
        json.dumps(result.bench_payload(), allow_nan=False)



class TestLockstepRouting:
    """Engine routing: group-mates go lockstep, and the fallback."""

    def test_auto_routes_architecture_groups_to_lockstep(self):
        batch = run_batch(GRID)  # parallel x2 + dual x2: two groups of two
        assert batch.ok
        assert batch.methodology == "lockstep"
        assert [c.engine_backend for c in batch.cells] == ["lockstep"] * 4

    def test_auto_keeps_singletons_scalar(self):
        grid = [GRID[0], GRID[1], Scenario(methodology="cooling", cycle="nycc")]
        batch = run_batch(grid)
        assert batch.ok
        assert batch.methodology == "lockstep+serial"
        assert [c.engine_backend for c in batch.cells] == [
            "lockstep",
            "lockstep",
            "scalar",
        ]

    def test_scalar_backend_mpc_cells_stay_scalar(self):
        """Routing a scalar-backend OTEM cell through lockstep would
        silently switch its solver backend, so it stays on the scalar
        engine even when it has group-mates."""
        otem = Scenario(
            methodology="otem",
            cycle="nycc",
            mpc_horizon=4,
            mpc_step_s=30.0,
            mpc_max_evals=1,
        )
        grid = [GRID[0], GRID[1], otem, dataclasses.replace(otem, ucap_farads=5_000.0)]
        batch = run_batch(grid)
        assert batch.ok
        assert batch.methodology == "lockstep+serial"
        assert [c.engine_backend for c in batch.cells] == [
            "lockstep",
            "lockstep",
            "scalar",
            "scalar",
        ]
        assert all(c.solver is not None for c in batch.cells[2:])

    def test_unknown_execution_rejected(self):
        """The engine is routed, never chosen by the caller."""
        with pytest.raises(TypeError, match="execution"):
            run_batch(GRID[:1], execution="scalar")

    def test_lockstep_matches_scalar_within_ulp_tolerance(self):
        """Cross-engine agreement at the documented 1e-9 relative bound
        (see tests/sim/test_engine_vec.py for the exact/ulp split)."""
        from repro.sim.scenario import run_scenario

        lockstep = run_batch(GRID)
        assert lockstep.methodology == "lockstep"
        for cell in lockstep.cells:
            scalar = run_scenario(cell.scenario).metrics
            for field in dataclasses.fields(cell.metrics):
                x = getattr(cell.metrics, field.name)
                y = getattr(scalar, field.name)
                assert x == pytest.approx(y, rel=1e-9, abs=1e-12), field.name

    def test_group_failure_reroutes_cells_to_scalar(self):
        """A broken cell poisons its whole lockstep group; every member is
        re-run on the crash-isolated scalar path instead."""
        bad = _unrunnable(GRID[1])
        batch = run_batch([GRID[0], bad])
        assert [c.ok for c in batch.cells] == [True, False]
        assert "no-such-cycle" in batch.cells[1].error
        assert batch.cells[0].engine_backend == "scalar"
        assert batch.methodology == "serial"  # nothing stayed on lockstep
        # both cells say why they left the lockstep engine
        assert all("no-such-cycle" in c.fallback for c in batch.cells)

    def test_group_failure_is_recorded_on_every_cell(self, monkeypatch, tmp_path):
        """The rerouted cells carry the group's exception, whether they are
        computed or served from the store, so resubmitted rows match."""
        from repro.service.jobs import service_row

        def explode(scenarios):
            raise RuntimeError("lockstep wave diverged")

        monkeypatch.setattr(batch_mod, "run_lockstep", explode)
        store = ExperimentStore(tmp_path)
        expected = "RuntimeError: lockstep wave diverged"
        first = run_batch(GRID, store=store)
        assert first.ok
        assert [c.engine_backend for c in first.cells] == ["scalar"] * 4
        assert [r["fallback"] for r in first.rows()] == [expected] * 4
        second = run_batch(GRID, store=store)
        assert all(c.cached for c in second.cells)
        assert [c.fallback for c in second.cells] == [expected] * 4
        assert [service_row(c) for c in second.cells] == [
            service_row(c) for c in first.cells
        ]


#: A fast lockstep-eligible OTEM scenario (vectorized backend, tiny solver).
OTEM_VEC = Scenario(
    methodology="otem",
    cycle="nycc",
    rollout_backend="vectorized",
    mpc_horizon=4,
    mpc_step_s=30.0,
    mpc_max_evals=1,
)


class TestMPCLockstepRouting:
    """OTEM ensembles on the lockstep engine (vectorized backend only)."""

    def test_auto_routes_mpc_groups_to_lockstep(self):
        grid = [
            OTEM_VEC,
            dataclasses.replace(OTEM_VEC, ucap_farads=5_000.0),
        ]
        batch = run_batch(grid)
        assert batch.ok
        assert batch.methodology == "lockstep"
        assert [c.engine_backend for c in batch.cells] == ["lockstep"] * 2
        assert all(c.solver is not None and c.solver.solves > 0 for c in batch.cells)

    def test_auto_keeps_mpc_singletons_scalar(self):
        batch = run_batch([OTEM_VEC])
        assert batch.ok
        assert batch.cells[0].engine_backend == "scalar"

    def test_solver_shape_splits_groups(self):
        """Two OTEM cells with different horizons cannot share a replan
        wave; each becomes a singleton and stays scalar under auto."""
        grid = [OTEM_VEC, dataclasses.replace(OTEM_VEC, mpc_horizon=5)]
        batch = run_batch(grid)
        assert batch.ok
        assert [c.engine_backend for c in batch.cells] == ["scalar"] * 2

    def test_rows_surface_winner_attribution(self):
        grid = [OTEM_VEC, dataclasses.replace(OTEM_VEC, perturb_seed=1)]
        batch = run_batch(grid)
        for row, cell in zip(batch.rows(), batch.cells):
            assert row["solver_backend"] == "vectorized"
            wins = (
                row["solver_wins_warm"]
                + row["solver_wins_neutral"]
                + row["solver_wins_full_cool"]
            )
            assert wins == cell.solver.solves > 0

    def test_mpc_group_failure_reroutes_mixed_grid(self, monkeypatch):
        """A failing lockstep MPC group re-routes every member to the
        crash-isolated scalar path while baseline groups stay lockstep."""
        real = batch_mod.run_lockstep

        def explode_on_otem(scenarios):
            if any(s.methodology == "otem" for s in scenarios):
                raise RuntimeError("solver wave diverged")
            return real(scenarios)

        monkeypatch.setattr(batch_mod, "run_lockstep", explode_on_otem)
        grid = [
            GRID[0],
            OTEM_VEC,
            GRID[1],
            dataclasses.replace(OTEM_VEC, ucap_farads=5_000.0),
        ]
        batch = run_batch(grid)
        assert batch.ok  # every cell recovered on the scalar path
        assert [c.engine_backend for c in batch.cells] == [
            "lockstep",
            "scalar",
            "lockstep",
            "scalar",
        ]
        assert batch.methodology == "lockstep+serial"
        assert all(
            c.solver is not None
            for c in batch.cells
            if c.scenario.methodology == "otem"
        )
        assert [c.fallback for c in batch.cells] == [
            None,
            "RuntimeError: solver wave diverged",
            None,
            "RuntimeError: solver wave diverged",
        ]

    def test_driver_probe_failure_fails_cells(self, replace_setulb):
        """On a scipy whose setulb the lockstep driver cannot drive, the
        vectorized OTEM group records the error as its fallback, and the
        scalar-engine rerun fails each cell with that same error."""

        def old_setulb(*args):
            raise TypeError("setulb() takes 18 arguments")

        replace_setulb(old_setulb)
        grid = [OTEM_VEC, dataclasses.replace(OTEM_VEC, ucap_farads=5_000.0)]
        batch = run_batch(grid)
        expected = "TypeError: setulb() takes 18 arguments"
        assert not batch.ok
        assert [c.fallback for c in batch.cells] == [expected] * 2
        assert [c.error for c in batch.cells] == [expected] * 2


class TestEngineBackendCache:
    """CACHE_SCHEMA 3: the engine backend is part of the cache key."""

    def test_fingerprint_separates_backends(self):
        s = GRID[0]
        assert scenario_fingerprint(s, engine_backend="scalar") != (
            scenario_fingerprint(s, engine_backend="lockstep")
        )
        # default is the scalar backend (pre-lockstep keys' semantics)
        assert scenario_fingerprint(s) == scenario_fingerprint(
            s, engine_backend="scalar"
        )

    def test_rows_carry_engine_backend(self):
        rows = run_batch(GRID).rows()
        assert [r["engine_backend"] for r in rows] == ["lockstep"] * 4
        assert [r["fallback"] for r in rows] == [None] * 4

    def test_lockstep_cells_share_group_wall_time(self):
        batch = run_batch(GRID[:2])  # one lockstep group of two
        walls = [c.wall_s for c in batch.cells]
        assert walls[0] == walls[1] > 0.0


class TestBenchPayload:
    def test_shape(self):
        payload = run_batch(SINGLETONS[:2], workers=0).bench_payload()
        assert payload["cells"] == 2
        assert payload["failures"] == 0
        assert payload["methodology"] == "serial"
        assert payload["cache"] == {"hits": 0, "misses": 0}
        assert len(payload["rows"]) == 2
        assert all(r["rollout_backend"] == "scalar" for r in payload["rows"])
        import json

        json.dumps(payload, allow_nan=False)  # strict-JSON-serializable as-is


class TestProgressCallback:
    def test_on_cell_done_fires_per_cell_on_scalar_path(self):
        seen = []
        run_batch(SINGLETONS, workers=0, on_cell_done=seen.append)
        assert [c.index for c in seen] == [0, 1, 2, 3]
        assert all(isinstance(c, BatchCell) and c.ok for c in seen)
        assert all(c.engine_backend == "scalar" for c in seen)

    def test_on_cell_done_fires_per_cell_on_lockstep_path(self):
        seen = []
        batch = run_batch(GRID, on_cell_done=seen.append)
        assert batch.methodology == "lockstep"
        assert sorted(c.index for c in seen) == [0, 1, 2, 3]
        assert all(c.engine_backend == "lockstep" for c in seen)

    def test_on_cell_done_fires_on_pool_path(self):
        seen = []
        batch = run_batch(SINGLETONS, workers=2, on_cell_done=seen.append)
        assert batch.ok
        assert sorted(c.index for c in seen) == [0, 1, 2, 3]

    def test_failed_cells_still_reported(self):
        bad = _unrunnable(GRID[0])
        seen = []
        run_batch([bad, GRID[1]], workers=0, on_cell_done=seen.append)
        assert [c.ok for c in sorted(seen, key=lambda c: c.index)] == [False, True]


class TestCancellation:
    """One scalar loop serves in-process and pool execution, so cancelling
    behaves the same on both."""

    def test_cancel_before_start_skips_every_cell(self):
        for workers in (0, 2):
            batch = run_batch(SINGLETONS, workers=workers, cancel=lambda: True)
            assert not batch.ok
            assert all("cancelled" in c.error for c in batch.cells)
            assert all(c.metrics is None for c in batch.cells)

    def test_cancel_mid_run_keeps_finished_cells_scalar(self):
        for workers in (0, 2):
            done = []
            batch = run_batch(
                SINGLETONS,
                workers=workers,
                on_cell_done=done.append,
                cancel=lambda: len(done) >= 2,
            )
            oks = [c.ok for c in batch.cells]
            if workers == 0:
                assert oks == [True, True, False, False]
            else:
                # pool cells a worker took before the cancel still finish;
                # only the still-queued tail of the grid is cancelled
                assert oks[:2] == [True, True], oks
                assert oks == sorted(oks, reverse=True), oks
            assert all(c.engine_backend == "scalar" for c in batch.cells)
            failed = [c for c in batch.cells if not c.ok]
            assert all(c.error.startswith("cancelled:") for c in failed), workers

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers only see the patched cell runner when forked",
    )
    def test_pool_cancel_keeps_the_cells_workers_took(self, tmp_path, monkeypatch):
        payloads = {s.methodology: batch_mod._execute_cell(s) for s in SINGLETONS}

        def slow_cell(scenario):
            # a marker file per started cell: workers are separate processes
            (tmp_path / scenario.methodology).touch()
            time.sleep(0.5)
            return payloads[scenario.methodology]

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr(batch_mod, "_execute_cell", slow_cell)
        store = ExperimentStore(tmp_path / "store")
        done = []
        batch = run_batch(
            SINGLETONS,
            workers=2,
            store=store,
            on_cell_done=done.append,
            cancel=lambda: bool(done),
        )
        assert batch.methodology == "process-pool"
        started = {
            c.index for c in batch.cells if (tmp_path / c.scenario.methodology).exists()
        }
        assert {0, 1} <= started  # both workers held a cell when cell 0 finished
        assert {c.index for c in batch.cells if c.ok} == started
        failed = [c for c in batch.cells if not c.ok]
        assert all(c.error.startswith("cancelled:") for c in failed)
        assert len(store) == len(started)

    def test_cancel_mid_run_keeps_finished_groups_lockstep(self):
        # GRID forms two lockstep groups of two (one per methodology);
        # cancelling after the first group leaves its cells intact
        done = []

        def cancel_after_first_group():
            return len(done) >= 2

        batch = run_batch(
            GRID,
            on_cell_done=done.append,
            cancel=cancel_after_first_group,
        )
        assert sum(c.ok for c in batch.cells) == 2
        skipped = [c for c in batch.cells if not c.ok]
        assert len(skipped) == 2
        assert all("cancelled" in c.error for c in skipped)

    def test_cancelled_cells_are_not_cached(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_batch(SINGLETONS, store=store, cancel=lambda: True)
        rerun = run_batch(SINGLETONS, store=store)
        assert rerun.cache_hits == 0 and rerun.ok
