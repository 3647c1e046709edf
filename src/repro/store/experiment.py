"""Content-addressed on-disk experiment store (one SQLite file).

The store is the durability layer the ROADMAP's serving goal needs: batch
sweeps land their per-cell results here once and every later consumer -
repeat ``run_batch`` calls, other processes, the sweep service after a
restart - is served from disk instead of recomputing.  Design points:

* **content addressing** - cells are keyed by the batch runner's
  ``CACHE_SCHEMA``-versioned :func:`~repro.sim.batch.scenario_fingerprint`,
  so any parameter / schema / engine-backend change yields a different key
  and stale entries are simply never looked up again;
* **one tier** - everything lives in ``index.sqlite3``: the ``results``
  table holds one row per cell, its payload (metrics + solver stats) as
  canonical JSON.  A ``put`` writes a mapping of cells (the batch
  runner's finished lockstep group, or one scalar cell) in one
  ``executemany`` transaction, so readers never observe a partial entry
  or a partial group, and a hit is one ``SELECT``;
* **corruption quarantine** - a row whose JSON or fields fail to decode
  is copied (key + raw text) into the ``quarantine`` table and deleted;
  the lookup reports a miss, so the caller recomputes instead of raising;
* **sweep records** - the sweep service persists job records and tidy row
  sets in the ``sweeps`` table, which is what makes restarts resume
  instead of recompute.  A record that fails to decode reads as absent.

Directories written by earlier versions (an index ``cells`` table beside
``blobs/`` and ``quarantine/``) open unchanged: their cells are misses,
recomputed once into ``results``, and their sweep records are served as
before.  Nothing reads or deletes the old table and directories.

It is the one result cache of the package: ``run_batch(store=...)``, the
``repro batch`` CLI and the sweep service all read and write cells here.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import time
from dataclasses import dataclass

from repro.core.mpc import SolverStats
from repro.sim.metrics import SummaryMetrics

#: Index database file name under the store directory.
INDEX_DB = "index.sqlite3"

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    payload_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    key          TEXT NOT NULL,
    payload_json TEXT NOT NULL
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
    counters (``quarantined`` counts corrupt cells and sweep-record decode
    failures); ``cells``/``total_bytes`` describe the stored population,
    ``total_bytes`` being the length of the cells' payload JSON, not a
    file size.
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

    # ------------------------------------------------------------------ #
    # cell payloads

    def put(self, payloads: dict) -> None:
        """Store (upsert) ``{key: CellPayload}`` in one transaction.

        The batch runner puts each finished lockstep group in one call
        and each scalar cell alone, so a group costs one connection and
        one commit.  Every payload is encoded before the connection
        opens: a payload that fails to encode stores none of them, and
        an empty mapping opens no connection.
        """
        rows = [(key, _encode_payload(p)) for key, p in payloads.items()]
        if not rows:
            return
        with self._connect() as con:
            con.executemany(
                "INSERT OR REPLACE INTO results (key, payload_json) VALUES (?, ?)",
                rows,
            )

    def get(self, key: str):
        """Look a payload up; ``None`` (a miss) when absent or corrupt.

        A row that exists but cannot be decoded is *quarantined* (copied to
        the ``quarantine`` table, then deleted) so the caller transparently
        recomputes the cell - corruption never propagates as an exception.
        """
        with self._connect() as con:
            row = con.execute(
                "SELECT payload_json FROM results WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            self.misses += 1
            return None
        try:
            payload = _decode_payload(row[0])
        except Exception:  # noqa: BLE001 - any decode failure is corruption
            self._quarantine(key, row[0])
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def __len__(self) -> int:
        with self._connect() as con:
            (n,) = con.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(n)

    def total_bytes(self) -> int:
        """Total length of the stored payload JSON [bytes]."""
        with self._connect() as con:
            (n,) = con.execute(
                "SELECT COALESCE(SUM(LENGTH(payload_json)), 0) FROM results"
            ).fetchone()
        return int(n)

    def _quarantine(self, key: str, text: str) -> None:
        with self._connect() as con:
            con.execute(
                "INSERT INTO quarantine (key, payload_json) VALUES (?, ?)",
                (key, text),
            )
            # only the row that failed: a concurrent recompute may have
            # replaced it with a good one meanwhile
            con.execute(
                "DELETE FROM results WHERE key = ? AND payload_json = ?",
                (key, text),
            )
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
        return None if row is None else self._load_sweep_json(row[0])

    def list_sweeps(self) -> list:
        """All sweep records, oldest first."""
        with self._connect() as con:
            rows = con.execute(
                "SELECT record_json FROM sweeps ORDER BY created_s"
            ).fetchall()
        records = (self._load_sweep_json(text) for (text,) in rows)
        return [record for record in records if record is not None]

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
        return self._load_sweep_json(row[0])

    def _load_sweep_json(self, text: str):
        """Decode a ``record_json``/``rows_json`` value; ``None`` when it
        fails to decode.  Each failure counts in ``quarantined``; the row
        stays in place for post-mortems, so every read of it counts."""
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            self.quarantined += 1
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


def _encode_payload(payload) -> str:
    """The ``payload_json`` of one :class:`~repro.sim.batch.CellPayload`.

    The import is deferred to keep ``repro.store`` importable on its own.
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
    return json.dumps(doc, sort_keys=True)


def _decode_payload(text: str):
    """The :class:`~repro.sim.batch.CellPayload` of one ``payload_json``."""
    from repro.sim.batch import CellPayload

    doc = json.loads(text)
    solver = doc["solver"]
    return CellPayload(
        controller_name=doc["controller_name"],
        cycle_name=doc["cycle_name"],
        metrics=SummaryMetrics(**doc["metrics"]),
        solver=SolverStats(**solver) if solver is not None else None,
        wall_s=doc["wall_s"],
        engine_backend=doc["engine_backend"],
    )
