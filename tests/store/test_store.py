"""The experiment store: durability, corruption quarantine, old-directory
compatibility, and the run_batch(store=...) no-recompute guarantee."""

import dataclasses
import json
import os
import sqlite3

import numpy as np
import pytest
import scipy

import repro.sim.batch as batch_mod
from repro.sim.batch import (
    CellPayload,
    run_batch,
    scenario_fingerprint,
    scenario_grid,
)
from repro.sim.scenario import Scenario, run_scenario
from repro.store import ExperimentStore
from repro.store.experiment import INDEX_DB

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
        store.put({"k1": payload})
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
        store.put({"otem": payload})
        assert store.get("otem").solver == payload.solver

    def test_atomic_write_stores_nothing_on_failure(self, tmp_path):
        store = ExperimentStore(tmp_path)
        unserializable = dataclasses.replace(_payload(), wall_s=object())
        with pytest.raises(TypeError):
            store.put({"k1": unserializable})
        assert len(store) == 0
        assert store.get("k1") is None

    def test_contains_and_len(self, tmp_path):
        store = ExperimentStore(tmp_path)
        assert len(store) == 0
        store.put({"k1": _payload()})
        assert len(store) == 1
        store.put({"k1": _payload()})  # an upsert, not a second cell
        assert len(store) == 1


def _traced(monkeypatch, store) -> tuple:
    """Record every statement ``store`` runs and every connection it opens."""
    statements, connections = [], []
    connect = store._connect

    def traced_connect():
        con = connect()
        con.set_trace_callback(statements.append)
        connections.append(con)
        return con

    monkeypatch.setattr(store, "_connect", traced_connect)
    return statements, connections


class TestPutMany:
    """A put writes its whole mapping in one transaction, or nothing."""

    def test_three_cells_one_insert_batch_one_commit(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path)
        payload = _payload()
        statements, connections = _traced(monkeypatch, store)
        store.put({f"k{i}": payload for i in range(3)})
        assert len(connections) == 1
        assert [sql.split()[0] for sql in statements] == [
            "BEGIN",
            "INSERT",
            "INSERT",
            "INSERT",
            "COMMIT",
        ], statements
        assert len(store) == 3
        assert all(store.get(f"k{i}") == payload for i in range(3))

    def test_unserializable_payload_stores_none_of_three(self, tmp_path):
        store = ExperimentStore(tmp_path)
        good = _payload()
        bad = dataclasses.replace(good, wall_s=object())
        with pytest.raises(TypeError):
            store.put({"k0": good, "k1": bad, "k2": good})
        assert len(store) == 0
        assert store.get("k0") is None and store.get("k2") is None

    def test_empty_put_opens_no_connection(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path)
        statements, connections = _traced(monkeypatch, store)
        store.put({})
        assert connections == [] and statements == []

    def test_run_batch_puts_each_lockstep_group_once(self, tmp_path, monkeypatch):
        """One put per lockstep group and one per scalar cell; a computed
        cell is stored before its completion is reported."""
        store = ExperimentStore(tmp_path)
        grid = GRID + [Scenario(methodology="cooling", cycle="nycc")]
        puts = []
        put = store.put

        def spy(payloads):
            puts.append(set(payloads))
            put(payloads)

        monkeypatch.setattr(store, "put", spy)
        stored_when_done = []
        result = run_batch(
            grid,
            store=store,
            on_cell_done=lambda cell: stored_when_done.append(len(store)),
        )
        assert result.ok and [c.engine_backend for c in result.cells] == [
            "lockstep"
        ] * 4 + ["scalar"]
        keys = [
            scenario_fingerprint(s, engine_backend=c.engine_backend)
            for s, c in zip(grid, result.cells)
        ]
        # GRID's lockstep groups are its parallel and its dual cells
        assert puts == [{keys[0], keys[1]}, {keys[2], keys[3]}, {keys[4]}]
        assert stored_when_done == [2, 2, 4, 4, 5]


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

    #: The ``sweeps`` DDL of the same directories (unchanged since).
    LEGACY_SWEEPS_DDL = """
CREATE TABLE IF NOT EXISTS sweeps (
    sweep_id    TEXT PRIMARY KEY,
    created_s   REAL NOT NULL,
    updated_s   REAL NOT NULL,
    status      TEXT NOT NULL,
    record_json TEXT NOT NULL,
    rows_json   TEXT
);
"""

    def test_hit_runs_only_selects(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path)
        payload = _payload()
        store.put({"k1": payload})
        statements, _ = _traced(monkeypatch, store)
        assert store.get("k1") == payload
        assert statements
        assert all(sql.startswith("SELECT") for sql in statements), statements

    def test_directory_with_legacy_cells_table(self, tmp_path):
        with sqlite3.connect(tmp_path / INDEX_DB) as con:
            con.executescript(self.LEGACY_CELLS_DDL)
        store = ExperimentStore(tmp_path)
        payload = _payload()
        store.put({"k1": payload})
        assert store.get("k1") == payload
        assert store.hits == 1 and len(store) == 1

    def test_directory_written_by_the_npz_store(self, tmp_path):
        """A directory of the earlier two-tier layout (index ``cells`` row
        + ``.npz`` blob per cell) opens; its cells are plain misses and its
        sweep records are served as before."""
        key = "ab" + "0" * 62
        payload = _payload()
        doc = {
            "schema": batch_mod.CACHE_SCHEMA,
            "controller_name": payload.controller_name,
            "cycle_name": payload.cycle_name,
            "wall_s": payload.wall_s,
            "engine_backend": payload.engine_backend,
            "metrics": dataclasses.asdict(payload.metrics),
            "solver": None,
        }
        blob = tmp_path / "blobs" / key[:2] / f"{key}.npz"
        blob.parent.mkdir(parents=True)
        np.savez_compressed(blob, payload_json=np.array(json.dumps(doc)))
        record = {"sweep_id": "old", "status": "done", "total": 1}
        with sqlite3.connect(tmp_path / INDEX_DB) as con:
            con.executescript(self.LEGACY_CELLS_DDL + self.LEGACY_SWEEPS_DDL)
            con.execute(
                "INSERT INTO cells VALUES (?, 4, 0.0, 0.0, ?, ?, ?, ?, 0)",
                (
                    key,
                    blob.stat().st_size,
                    payload.controller_name,
                    payload.cycle_name,
                    payload.engine_backend,
                ),
            )
            con.execute(
                "INSERT INTO sweeps VALUES ('old', 0.0, 0.0, 'done', ?, '[]')",
                (json.dumps(record),),
            )

        store = ExperimentStore(tmp_path)
        assert store.get(key) is None
        assert store.misses == 1 and store.quarantined == 0
        assert len(store) == 0
        store.put({key: payload})
        assert store.get(key) == payload
        assert store.get_sweep("old") == record
        assert store.get_rows("old") == []
        assert [r["sweep_id"] for r in store.list_sweeps()] == ["old"]
        assert blob.exists()  # old files are left for removal by hand


def _damage(store, key, text) -> None:
    """Overwrite the stored ``payload_json`` of ``key`` with ``text``."""
    with sqlite3.connect(os.path.join(store.directory, INDEX_DB)) as con:
        con.execute("UPDATE results SET payload_json = ? WHERE key = ?", (text, key))


def _quarantined_copies(store) -> list:
    with sqlite3.connect(os.path.join(store.directory, INDEX_DB)) as con:
        return con.execute("SELECT key, payload_json FROM quarantine").fetchall()


class TestCorruption:
    """Truncated/garbage payloads are quarantined and recomputed, never
    raised; a corrupt sweep record reads as absent and is counted."""

    def test_truncated_blob_quarantined(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put({"k1": _payload()})
        with sqlite3.connect(tmp_path / INDEX_DB) as con:
            (text,) = con.execute("SELECT payload_json FROM results").fetchone()
        truncated = text[: len(text) // 2]
        _damage(store, "k1", truncated)
        assert store.get("k1") is None
        assert store.quarantined == 1 and store.misses == 1
        # the raw text is kept for post-mortems, the row is gone
        assert _quarantined_copies(store) == [("k1", truncated)]
        assert len(store) == 0
        assert store.get("k1") is None and store.quarantined == 1

    def test_garbage_blob_quarantined(self, tmp_path):
        """Valid JSON whose fields are not a payload is corrupt too."""
        store = ExperimentStore(tmp_path)
        store.put({"k1": _payload()})
        _damage(store, "k1", '{"not": "a payload"}')
        assert store.get("k1") is None
        assert store.quarantined == 1
        assert _quarantined_copies(store) == [("k1", '{"not": "a payload"}')]

    def test_corrupt_cell_is_recomputed_by_run_batch(self, tmp_path):
        """The acceptance path: truncate a stored payload, assert the cell
        is quarantined and recomputed rather than raising."""
        store = ExperimentStore(tmp_path)
        first = run_batch(GRID, store=store)
        assert first.ok and first.cache_misses == len(GRID)
        key = scenario_fingerprint(GRID[1], engine_backend="lockstep")
        _damage(store, key, "{")
        rerun = run_batch(GRID, store=store)
        assert rerun.ok
        assert rerun.cache_hits == len(GRID) - 1
        assert rerun.cache_misses == 1
        assert store.quarantined == 1
        assert _quarantined_copies(store) == [(key, "{")]
        # the recompute landed back in the store
        final = run_batch(GRID, store=store)
        assert final.cache_hits == len(GRID)
        assert [c.metrics for c in final.cells] == [c.metrics for c in first.cells]

    def test_corrupt_sweep_record_is_counted(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put_sweep("abc", {"sweep_id": "abc", "status": "done"})
        with sqlite3.connect(tmp_path / INDEX_DB) as con:
            con.execute("UPDATE sweeps SET record_json = '{'")
        assert store.get_sweep("abc") is None
        assert store.quarantined == 1
        assert store.list_sweeps() == []
        assert store.quarantined == 2

    def test_corrupt_sweep_rows_are_counted(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put_sweep("abc", {"sweep_id": "abc", "status": "done"})
        store.put_rows("abc", [{"index": 0}])
        with sqlite3.connect(tmp_path / INDEX_DB) as con:
            con.execute("UPDATE sweeps SET rows_json = '[{'")
        assert store.get_rows("abc") is None
        assert store.quarantined == 1
        assert store.get_sweep("abc")["status"] == "done"


class TestSchemaInvalidation:
    """The fingerprint embeds the schema, the NumPy and SciPy versions and
    the engine backend, so a bump, another toolchain or a backend switch
    makes every old key unreachable."""

    def test_schema_bump_invalidates_old_entries(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path)
        run_batch(GRID[:1], store=store)
        monkeypatch.setattr("repro.sim.batch.CACHE_SCHEMA", 99)
        stale = run_batch(GRID[:1], store=store)
        assert stale.cache_hits == 0 and stale.cache_misses == 1

    def test_other_scipy_version_misses_every_cell(self, tmp_path, monkeypatch):
        """Rows stored under one SciPy are never served under another."""
        store = ExperimentStore(tmp_path)
        first = run_batch(GRID, store=store)
        assert first.cache_misses == len(GRID)
        assert run_batch(GRID, store=store).cache_hits == len(GRID)
        monkeypatch.setattr(scipy, "__version__", scipy.__version__ + ".other")
        stale = run_batch(GRID, store=store)
        assert stale.cache_hits == 0 and stale.cache_misses == len(GRID)

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

    def test_counts_ignore_other_lookups_on_the_same_store(self, tmp_path):
        """Only the batch's own lookups count: another user of the same
        store object (e.g. the service's second job thread) looking keys
        up meanwhile is not booked to this batch."""
        store = ExperimentStore(tmp_path)
        run_batch(GRID, store=store)
        warm = run_batch(
            GRID, store=store, on_cell_done=lambda cell: store.get("0" * 64)
        )
        assert all(cell.cached for cell in warm.cells)
        assert warm.cache_hits == len(GRID) and warm.cache_misses == 0
        assert store.misses == 2 * len(GRID)


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
        store.put({"k1": _payload()})
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
