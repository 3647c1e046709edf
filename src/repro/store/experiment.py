"""Content-addressed on-disk experiment store (SQLite index + npz blobs).

The store is the durability layer the ROADMAP's serving goal needs: batch
sweeps land their per-cell results here once and every later consumer -
repeat ``run_batch`` calls, other processes, the sweep service after a
restart - is served from disk instead of recomputing.  Design points:

* **content addressing** - cells are keyed by the batch runner's
  ``CACHE_SCHEMA``-versioned :func:`~repro.sim.batch.scenario_fingerprint`,
  so any parameter / schema / engine-backend change yields a different key
  and stale entries are simply never looked up again;
* **two-tier layout** - a SQLite index (cell metadata) next to one
  compressed ``.npz`` blob per cell (metrics + solver stats as
  canonical JSON, optional full trace channels as arrays);
* **atomic writes** - blobs and the index row are written tmp-then-rename
  so concurrent readers never observe a partial entry;
* **corruption quarantine** - a blob that fails to load (truncated,
  garbage, missing keys) is moved to ``quarantine/`` and its index row
  dropped; the lookup reports a miss, so the caller recomputes instead of
  raising;
* **sweep records** - the sweep service persists job records and tidy row
  sets here, which is what makes restarts resume instead of recompute.

It is the one result cache of the package: ``run_batch(store=...)``, the
``repro batch`` CLI and the sweep service all read and write cells here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sqlite3
import time
from dataclasses import dataclass

import numpy as np

from repro.core.mpc import SolverStats
from repro.sim.metrics import SummaryMetrics
from repro.sim.trace import CHANNELS, Trace

#: Index database file name under the store directory.
INDEX_DB = "index.sqlite3"

#: Subdirectory holding the content-addressed blobs.
BLOB_DIR = "blobs"

#: Subdirectory corrupt blobs are moved to (kept for post-mortems).
QUARANTINE_DIR = "quarantine"

_SCHEMA_SQL = """
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
CREATE TABLE IF NOT EXISTS sweeps (
    sweep_id    TEXT PRIMARY KEY,
    created_s   REAL NOT NULL,
    updated_s   REAL NOT NULL,
    status      TEXT NOT NULL,
    record_json TEXT NOT NULL,
    rows_json   TEXT
);
"""


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time counters of one :class:`ExperimentStore` instance.

    ``hits``/``misses``/``quarantined`` are per-instance session
    counters; ``cells``/``total_bytes`` describe the on-disk
    population.
    """

    cells: int
    total_bytes: int
    hits: int
    misses: int
    quarantined: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ExperimentStore:
    """Persistent, content-addressed store of batch-sweep results.

    Parameters
    ----------
    directory:
        Store root (created on first use).
    """

    def __init__(self, directory: str | os.PathLike):
        self._dir = os.fspath(directory)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        os.makedirs(self._dir, exist_ok=True)
        with self._connect() as con:
            con.executescript(_SCHEMA_SQL)

    # ------------------------------------------------------------------ #
    # plumbing

    @property
    def directory(self) -> str:
        """Root directory of the store."""
        return self._dir

    def _connect(self) -> sqlite3.Connection:
        # one short-lived connection per operation: SQLite's file locking
        # then arbitrates between service threads and between processes
        con = sqlite3.connect(
            os.path.join(self._dir, INDEX_DB), timeout=30.0
        )
        con.execute("PRAGMA busy_timeout = 30000")
        return con

    def _blob_path(self, key: str) -> str:
        return os.path.join(self._dir, BLOB_DIR, key[:2], f"{key}.npz")

    def _quarantine_path(self, key: str) -> str:
        return os.path.join(self._dir, QUARANTINE_DIR, f"{key}.npz")

    # ------------------------------------------------------------------ #
    # cell payloads

    def put(self, key: str, payload, trace: Trace | None = None) -> None:
        """Store one cell payload (atomically), optionally with its trace.

        ``payload`` is a :class:`repro.sim.batch.CellPayload`; the import
        is deferred to keep ``repro.store`` importable on its own.
        """
        from repro.sim.batch import CACHE_SCHEMA

        doc = {
            "schema": CACHE_SCHEMA,
            "controller_name": payload.controller_name,
            "cycle_name": payload.cycle_name,
            "wall_s": payload.wall_s,
            "engine_backend": payload.engine_backend,
            "metrics": dataclasses.asdict(payload.metrics),
            "solver": (
                dataclasses.asdict(payload.solver)
                if payload.solver is not None
                else None
            ),
        }
        arrays: dict = {"payload_json": np.array(json.dumps(doc, sort_keys=True))}
        if trace is not None:
            for name in CHANNELS:
                arrays[f"trace_{name}"] = np.asarray(getattr(trace, name))

        path = self._blob_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + f".tmp{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **arrays)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(OSError):
                os.remove(tmp)

        # nothing reads last_used_s, but the cells table - here and in every
        # existing store directory - declares it NOT NULL with no default
        now = time.time()
        with self._connect() as con:
            con.execute(
                "INSERT OR REPLACE INTO cells "
                "(key, schema, created_s, last_used_s, nbytes, controller, "
                " cycle, engine_backend, has_trace) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    doc["schema"],
                    now,
                    now,
                    os.path.getsize(path),
                    payload.controller_name,
                    payload.cycle_name,
                    payload.engine_backend,
                    int(trace is not None),
                ),
            )

    def get(self, key: str):
        """Look a payload up; ``None`` (a miss) when absent or corrupt.

        A blob that exists but cannot be decoded is *quarantined* (moved
        aside, index row dropped) so the caller transparently recomputes
        the cell - corruption never propagates as an exception.
        """
        with self._connect() as con:
            row = con.execute(
                "SELECT key FROM cells WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            self.misses += 1
            return None
        try:
            payload = self._load_payload(key)
        except Exception:  # noqa: BLE001 - any decode failure is corruption
            self._quarantine(key)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _load_payload(self, key: str):
        from repro.sim.batch import CellPayload

        with np.load(self._blob_path(key)) as blob:
            doc = json.loads(str(blob["payload_json"]))
        metrics = SummaryMetrics(**doc["metrics"])
        solver = (
            SolverStats(**doc["solver"]) if doc["solver"] is not None else None
        )
        return CellPayload(
            controller_name=doc["controller_name"],
            cycle_name=doc["cycle_name"],
            metrics=metrics,
            solver=solver,
            wall_s=doc["wall_s"],
            engine_backend=doc["engine_backend"],
        )

    def get_trace(self, key: str) -> Trace | None:
        """The stored full trace of a cell, or ``None`` when absent.

        An unknown key or a missing blob is a plain ``None``; only a blob
        that exists but fails to decode is quarantined (as in :meth:`get`).
        """
        try:
            with np.load(self._blob_path(key)) as blob:
                names = [f"trace_{name}" for name in CHANNELS]
                if any(name not in blob for name in names):
                    return None
                channels = {
                    name: blob[f"trace_{name}"].copy() for name in CHANNELS
                }
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - same quarantine contract as get
            self._quarantine(key)
            return None
        return Trace(**channels)

    def contains(self, key: str) -> bool:
        """Whether the index knows ``key`` (no blob validation)."""
        with self._connect() as con:
            row = con.execute(
                "SELECT 1 FROM cells WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._connect() as con:
            (n,) = con.execute("SELECT COUNT(*) FROM cells").fetchone()
        return int(n)

    def total_bytes(self) -> int:
        """Sum of indexed blob sizes [bytes]."""
        with self._connect() as con:
            (n,) = con.execute(
                "SELECT COALESCE(SUM(nbytes), 0) FROM cells"
            ).fetchone()
        return int(n)

    def _quarantine(self, key: str) -> None:
        os.makedirs(os.path.join(self._dir, QUARANTINE_DIR), exist_ok=True)
        with contextlib.suppress(OSError):
            os.replace(self._blob_path(key), self._quarantine_path(key))
        with self._connect() as con:
            con.execute("DELETE FROM cells WHERE key = ?", (key,))
        self.quarantined += 1

    # ------------------------------------------------------------------ #
    # sweep records (the service's durable job state)

    def put_sweep(self, sweep_id: str, record: dict) -> None:
        """Persist (upsert) one sweep job record (JSON-safe dict)."""
        now = time.time()
        with self._connect() as con:
            con.execute(
                "INSERT INTO sweeps "
                "(sweep_id, created_s, updated_s, status, record_json) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(sweep_id) DO UPDATE SET "
                "updated_s = excluded.updated_s, status = excluded.status, "
                "record_json = excluded.record_json",
                (
                    sweep_id,
                    now,
                    now,
                    record.get("status", "unknown"),
                    json.dumps(record, sort_keys=True),
                ),
            )

    def get_sweep(self, sweep_id: str) -> dict | None:
        """Load one sweep record, or ``None`` when unknown."""
        with self._connect() as con:
            row = con.execute(
                "SELECT record_json FROM sweeps WHERE sweep_id = ?",
                (sweep_id,),
            ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError:
            return None

    def list_sweeps(self) -> list:
        """All sweep records, oldest first."""
        with self._connect() as con:
            rows = con.execute(
                "SELECT record_json FROM sweeps ORDER BY created_s"
            ).fetchall()
        out = []
        for (blob,) in rows:
            with contextlib.suppress(json.JSONDecodeError):
                out.append(json.loads(blob))
        return out

    def put_rows(self, sweep_id: str, rows: list) -> None:
        """Attach the tidy row set of a finished sweep to its record."""
        with self._connect() as con:
            updated = con.execute(
                "UPDATE sweeps SET rows_json = ?, updated_s = ? "
                "WHERE sweep_id = ?",
                (json.dumps(rows, sort_keys=True), time.time(), sweep_id),
            )
            if updated.rowcount == 0:
                raise KeyError(f"unknown sweep {sweep_id!r}")

    def get_rows(self, sweep_id: str) -> list | None:
        """The stored tidy rows of a sweep, or ``None`` when absent."""
        with self._connect() as con:
            row = con.execute(
                "SELECT rows_json FROM sweeps WHERE sweep_id = ?",
                (sweep_id,),
            ).fetchone()
        if row is None or row[0] is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError:
            return None

    # ------------------------------------------------------------------ #
    # stats

    def stats(self) -> StoreStats:
        """Current population + session counters."""
        return StoreStats(
            cells=len(self),
            total_bytes=self.total_bytes(),
            hits=self.hits,
            misses=self.misses,
            quarantined=self.quarantined,
        )
