"""The experiment store: durability, corruption quarantine, old-directory
compatibility, and the run_batch(store=...) no-recompute guarantee."""

import dataclasses
import json
import os
import sqlite3

import numpy as np
import pytest

import repro.sim.batch as batch_mod
from repro.sim.batch import (
    CellPayload,
    run_batch,
    scenario_fingerprint,
    scenario_grid,
)
from repro.sim.scenario import Scenario, run_scenario
from repro.store import ExperimentStore
from repro.store.experiment import BLOB_DIR, INDEX_DB, QUARANTINE_DIR

#: Fast baseline grid on the shortest cycle (two lockstep groups of two).
GRID = scenario_grid(
    Scenario(cycle="nycc"),
    methodology=("parallel", "dual"),
    ucap_farads=(5_000.0, 25_000.0),
)


def _payload(scenario=GRID[0]) -> CellPayload:
    result = run_scenario(scenario)
    return CellPayload(
        controller_name=result.controller_name,
        cycle_name=result.cycle_name,
        metrics=result.metrics,
        solver=result.solver,
        wall_s=0.25,
    )


class TestRoundTrip:
    def test_payload_roundtrip_is_exact(self, tmp_path):
        store = ExperimentStore(tmp_path)
        payload = _payload()
        store.put("k1", payload)
        loaded = store.get("k1")
        # floats survive the JSON encoding bit-for-bit (repr round-trip)
        assert loaded == payload
        assert store.hits == 1 and store.misses == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        store = ExperimentStore(tmp_path)
        assert store.get("nope") is None
        assert store.misses == 1

    def test_solver_stats_roundtrip(self, tmp_path):
        scenario = Scenario(
            methodology="otem",
            cycle="nycc",
            mpc_horizon=4,
            mpc_step_s=30.0,
            mpc_max_evals=10,
        )
        store = ExperimentStore(tmp_path)
        payload = _payload(scenario)
        assert payload.solver is not None
        store.put("otem", payload)
        assert store.get("otem").solver == payload.solver

    def test_trace_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path)
        result = run_scenario(GRID[0])
        payload = _payload()
        store.put("with-trace", payload, trace=result.trace)
        trace = store.get_trace("with-trace")
        assert np.array_equal(trace.battery_temp_k, result.trace.battery_temp_k)
        assert np.array_equal(trace.time_s, result.trace.time_s)

    def test_get_trace_none_when_stored_without(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put("no-trace", _payload())
        assert store.get_trace("no-trace") is None

    def test_get_trace_none_for_unknown_key(self, tmp_path):
        """An absent blob is a plain miss, not a corruption."""
        store = ExperimentStore(tmp_path)
        assert store.get_trace("0" * 64) is None
        assert store.quarantined == 0
        assert not os.path.exists(os.path.join(tmp_path, QUARANTINE_DIR))

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put("k1", _payload())
        blob_root = tmp_path / BLOB_DIR
        leftovers = [
            p for p in blob_root.rglob("*") if ".tmp" in p.name
        ]
        assert leftovers == []

    def test_contains_and_len(self, tmp_path):
        store = ExperimentStore(tmp_path)
        assert not store.contains("k1") and len(store) == 0
        store.put("k1", _payload())
        assert store.contains("k1") and len(store) == 1


class TestIndexWrites:
    """A hit only reads the index; older store directories keep working."""

    #: The ``cells`` DDL of store directories written by earlier versions,
    #: verbatim: ``last_used_s`` is NOT NULL with no default.
    LEGACY_CELLS_DDL = """
CREATE TABLE IF NOT EXISTS cells (
    key            TEXT PRIMARY KEY,
    schema         INTEGER NOT NULL,
    created_s      REAL    NOT NULL,
    last_used_s    REAL    NOT NULL,
    nbytes         INTEGER NOT NULL,
    controller     TEXT    NOT NULL,
    cycle          TEXT    NOT NULL,
    engine_backend TEXT    NOT NULL,
    has_trace      INTEGER NOT NULL DEFAULT 0
);
"""

    def test_hit_runs_only_selects(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path)
        payload = _payload()
        store.put("k1", payload)
        statements = []
        connect = store._connect

        def traced_connect():
            con = connect()
            con.set_trace_callback(statements.append)
            return con

        monkeypatch.setattr(store, "_connect", traced_connect)
        assert store.get("k1") == payload
        assert statements
        assert all(sql.startswith("SELECT") for sql in statements), statements

    def test_directory_with_legacy_cells_table(self, tmp_path):
        with sqlite3.connect(tmp_path / INDEX_DB) as con:
            con.executescript(self.LEGACY_CELLS_DDL)
        store = ExperimentStore(tmp_path)
        payload = _payload()
        store.put("k1", payload)
        assert store.get("k1") == payload
        assert store.hits == 1 and len(store) == 1


class TestCorruption:
    """Truncated/garbage blobs are quarantined and recomputed, never raised."""

    def test_truncated_blob_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put("k1", _payload())
        blob = store._blob_path("k1")
        with open(blob, "r+b") as fh:
            fh.truncate(16)
        assert store.get("k1") is None
        assert store.quarantined == 1 and store.misses == 1
        assert not os.path.exists(blob)
        assert os.path.exists(
            os.path.join(tmp_path, QUARANTINE_DIR, "k1.npz")
        )
        assert not store.contains("k1")

    def test_garbage_blob_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put("k1", _payload())
        with open(store._blob_path("k1"), "wb") as fh:
            fh.write(b"not an npz archive")
        assert store.get("k1") is None
        assert store.quarantined == 1

    def test_missing_blob_behind_index_row_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put("k1", _payload())
        os.remove(store._blob_path("k1"))
        assert store.get("k1") is None
        assert not store.contains("k1")

    def test_corrupt_cell_is_recomputed_by_run_batch(self, tmp_path):
        """The acceptance path: truncate a blob on disk, assert the cell is
        quarantined and recomputed rather than raising."""
        store = ExperimentStore(tmp_path)
        first = run_batch(GRID, store=store)
        assert first.ok and first.cache_misses == len(GRID)
        key = scenario_fingerprint(GRID[1], engine_backend="lockstep")
        with open(store._blob_path(key), "r+b") as fh:
            fh.truncate(10)
        rerun = run_batch(GRID, store=store)
        assert rerun.ok
        assert rerun.cache_hits == len(GRID) - 1
        assert rerun.cache_misses == 1
        assert store.quarantined == 1
        # the recompute landed back in the store
        final = run_batch(GRID, store=store)
        assert final.cache_hits == len(GRID)
        assert [c.metrics for c in final.cells] == [c.metrics for c in first.cells]


class TestSchemaInvalidation:
    """The fingerprint embeds the schema and the engine backend, so a bump
    or a backend switch makes every old key unreachable."""

    def test_schema_bump_invalidates_old_entries(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path)
        run_batch(GRID[:1], store=store)
        monkeypatch.setattr("repro.sim.batch.CACHE_SCHEMA", 99)
        stale = run_batch(GRID[:1], store=store)
        assert stale.cache_hits == 0 and stale.cache_misses == 1

    def test_backend_switch_never_serves_stale_rows(self, tmp_path):
        """Same cell, different engine: a group-mate joining or leaving
        switches the cell's engine, and a hit across backends would
        silently blur which engine produced a number."""
        store = ExperimentStore(tmp_path)
        alone = run_batch(GRID[:1], store=store)  # singleton: scalar
        assert alone.cells[0].engine_backend == "scalar"
        assert alone.cache_misses == 1
        joined = run_batch(GRID[:2], store=store)  # a mate joins: lockstep
        assert joined.cache_hits == 0 and joined.cache_misses == 2
        assert all(c.engine_backend == "lockstep" for c in joined.cells)
        rerun = run_batch(GRID[:2], store=store)
        assert rerun.cache_hits == 2
        left = run_batch(GRID[:1], store=store)  # the mate leaves: scalar
        assert left.cache_hits == 1
        assert left.cells[0].engine_backend == "scalar"
        assert left.cells[0].metrics == alone.cells[0].metrics


class TestRunBatchIntegration:
    def test_second_run_recomputes_nothing_and_rows_are_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance criterion, with a recompute-counter spy: a sweep
        submitted twice returns byte-identical rows and the second run
        never enters a cell runner."""
        from repro.service.jobs import service_row

        store = ExperimentStore(tmp_path)
        grid = GRID + [
            Scenario(
                methodology="otem",
                cycle="nycc",
                mpc_horizon=4,
                mpc_step_s=30.0,
                mpc_max_evals=10,
            )
        ]
        first = run_batch(grid, store=store)
        assert first.ok and first.cache_misses == len(grid)

        compute_calls = {"scalar": 0, "lockstep": 0}
        real_execute = batch_mod._execute_cell
        real_lockstep = batch_mod.run_lockstep

        def spy_execute(scenario):
            compute_calls["scalar"] += 1
            return real_execute(scenario)

        def spy_lockstep(scenarios):
            compute_calls["lockstep"] += 1
            return real_lockstep(scenarios)

        monkeypatch.setattr(batch_mod, "_execute_cell", spy_execute)
        monkeypatch.setattr(batch_mod, "run_lockstep", spy_lockstep)

        second = run_batch(grid, store=store)
        assert compute_calls == {"scalar": 0, "lockstep": 0}
        assert second.cache_hits == len(grid) and second.cache_misses == 0

        rows_first = json.dumps(
            [service_row(c) for c in first.cells], sort_keys=True
        )
        rows_second = json.dumps(
            [service_row(c) for c in second.cells], sort_keys=True
        )
        assert rows_first.encode() == rows_second.encode()

    def test_store_counts_reported_per_batch(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_batch(GRID[:2], store=store)
        second = run_batch(GRID, store=store)
        assert second.cache_hits == 2 and second.cache_misses == 2


class TestSweepRecords:
    def test_sweep_record_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path)
        record = {"sweep_id": "abc", "status": "queued", "total": 4}
        store.put_sweep("abc", record)
        assert store.get_sweep("abc") == record
        record["status"] = "done"
        store.put_sweep("abc", record)
        assert store.get_sweep("abc")["status"] == "done"
        assert store.get_sweep("missing") is None

    def test_rows_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put_sweep("abc", {"sweep_id": "abc", "status": "done"})
        rows = [{"index": 0, "qloss_percent": 0.01}]
        store.put_rows("abc", rows)
        assert store.get_rows("abc") == rows
        assert store.get_rows("missing") is None

    def test_rows_require_known_sweep(self, tmp_path):
        store = ExperimentStore(tmp_path)
        with pytest.raises(KeyError):
            store.put_rows("nope", [])

    def test_list_sweeps_oldest_first(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put_sweep("a", {"sweep_id": "a", "status": "done"})
        store.put_sweep("b", {"sweep_id": "b", "status": "queued"})
        assert [r["sweep_id"] for r in store.list_sweeps()] == ["a", "b"]


class TestStats:
    def test_stats_shape(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put("k1", _payload())
        store.get("k1")
        store.get("missing")
        stats = store.stats()
        assert stats.cells == 1
        assert stats.total_bytes > 0
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_hit_rate_zero_before_lookups(self, tmp_path):
        assert ExperimentStore(tmp_path).stats().hit_rate == 0.0


def test_store_keys_are_batch_fingerprints():
    """The store is keyed by the batch runner's scenario fingerprints:
    stable for equal scenarios, distinct for any changed knob."""
    s = dataclasses.replace(GRID[0], perturb_seed=7)
    assert scenario_fingerprint(s) == scenario_fingerprint(s)
    assert scenario_fingerprint(s) != scenario_fingerprint(GRID[0])
