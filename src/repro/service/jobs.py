"""Background sweep jobs: a worker pool dispatching specs through run_batch.

:class:`JobManager` owns a queue of :class:`SweepJob` records and a pool of
daemon worker threads.  Each job compiles its :class:`~repro.service.spec.
SweepSpec` to a scenario grid and runs it through :func:`~repro.sim.batch.
run_batch` with the manager's :class:`~repro.store.ExperimentStore`
attached, so

* progress is live (``run_batch``'s ``on_cell_done`` callback feeds the
  job's counters and its incrementally built row set);
* cancellation (:meth:`JobManager.cancel`) and per-job timeouts ride
  ``run_batch``'s cooperative ``cancel`` hook - pending cells are skipped,
  finished cells are kept;
* a crash anywhere inside a job fails *that job*, never the service;
* every finished cell lands in the store, so a restarted service (or a
  resubmitted identical sweep) is served from disk instead of recomputing
  - and finished sweep records/rows remain queryable across restarts.

Row sets served to clients are the batch runner's tidy rows minus the
volatile ``cached`` flag, which makes a resubmitted sweep's rows
byte-identical to the original's (cache hits preserve the original
compute wall time).
"""

from __future__ import annotations

import queue
import threading
import time
import uuid

from repro.sim.batch import cell_row, run_batch
from repro.service.spec import SweepSpec
from repro.store import ExperimentStore

#: Lifecycle states of a sweep job.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "interrupted")

#: Error message recorded on jobs that exceed their wall-clock budget.
_TIMEOUT_ERROR = "timeout: job exceeded its wall-clock budget"


def service_row(cell) -> dict:
    """The tidy row of ``cell`` as served to clients.

    Drops the volatile ``cached`` flag (visible in ``/metrics`` as the
    store hit rate instead) so identical sweeps return byte-identical row
    sets whether computed or served from the store.
    """
    row = cell_row(cell)
    row.pop("cached", None)
    return row


class SweepJob:
    """One submitted sweep: spec, live progress, and its result rows."""

    def __init__(self, sweep_id: str, spec: SweepSpec):
        self.sweep_id = sweep_id
        self.spec = spec
        self.status = "queued"
        self.total = spec.cell_count()
        self.done_cells = 0
        self.failed_cells = 0
        self.error: str | None = None
        self.submitted_s = time.time()
        self.started_s: float | None = None
        self.finished_s: float | None = None
        self.rows: list = []
        self.engine_backends: dict = {}
        self.lock = threading.Lock()
        self.cancel_event = threading.Event()
        self.timed_out = False

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.status in ("done", "failed", "cancelled")

    def snapshot(self) -> dict:
        """JSON-safe status record (what ``GET /sweeps/<id>`` returns)."""
        with self.lock:
            return {
                "sweep_id": self.sweep_id,
                "status": self.status,
                "spec": self.spec.to_dict(),
                "spec_hash": self.spec.spec_hash(),
                "tag": self.spec.tag,
                "total": self.total,
                "done_cells": self.done_cells,
                "failed_cells": self.failed_cells,
                "progress": (self.done_cells / self.total) if self.total else 0.0,
                "error": self.error,
                "submitted_s": self.submitted_s,
                "started_s": self.started_s,
                "finished_s": self.finished_s,
                "engine_backends": dict(self.engine_backends),
            }


class JobManager:
    """Worker pool executing sweep jobs against one experiment store.

    Parameters
    ----------
    store:
        The durable result store; also holds sweep records, so a new
        manager over the same directory sees (and serves) earlier sweeps.
    worker_threads:
        Concurrent jobs (each job may additionally fan its scalar cells
        out over processes via its spec's ``workers``).
    default_timeout_s:
        Job wall-clock budget applied when a spec does not set its own.
    """

    def __init__(
        self,
        store: ExperimentStore,
        worker_threads: int = 2,
        default_timeout_s: float | None = None,
    ):
        if worker_threads < 1:
            raise ValueError("worker_threads must be >= 1")
        self._store = store
        self._default_timeout_s = default_timeout_s
        self._jobs: dict = {}
        self._jobs_lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._started_s = time.time()
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"sweep-worker-{i}", daemon=True
            )
            for i in range(worker_threads)
        ]
        self._mark_interrupted_sweeps()
        for t in self._threads:
            t.start()

    @property
    def store(self) -> ExperimentStore:
        """The durable result store jobs run against."""
        return self._store

    def _mark_interrupted_sweeps(self) -> None:
        # records left queued/running by a dead process can never finish -
        # surface them as "interrupted" instead of forever-pending
        for record in self._store.list_sweeps():
            if record.get("status") in ("queued", "running"):
                record["status"] = "interrupted"
                record["error"] = "service stopped before the sweep finished"
                self._store.put_sweep(record["sweep_id"], record)

    # ------------------------------------------------------------------ #
    # submission / cancellation

    def submit(self, spec: SweepSpec) -> str:
        """Queue a sweep; returns its id immediately."""
        if self._shutdown:
            raise RuntimeError("manager is shut down")
        spec.scenarios()  # validate eagerly: a bad spec fails the submit
        sweep_id = uuid.uuid4().hex[:12]
        job = SweepJob(sweep_id, spec)
        with self._jobs_lock:
            self._jobs[sweep_id] = job
        self._store.put_sweep(sweep_id, job.snapshot())
        self._queue.put(sweep_id)
        return sweep_id

    def cancel(self, sweep_id: str) -> bool:
        """Request cancellation; True if the job existed and was live.

        A queued job is cancelled before it starts; a running job stops
        at its next cell boundary (finished cells are kept and stored).
        """
        with self._jobs_lock:
            job = self._jobs.get(sweep_id)
        if job is None or job.finished:
            return False
        job.cancel_event.set()
        return True

    # ------------------------------------------------------------------ #
    # queries

    def get(self, sweep_id: str) -> dict | None:
        """Status record of a live job, or the stored record, or None."""
        with self._jobs_lock:
            job = self._jobs.get(sweep_id)
        if job is not None:
            return job.snapshot()
        return self._store.get_sweep(sweep_id)

    def rows(self, sweep_id: str, filters: dict | None = None) -> dict | None:
        """Rows payload of a sweep (live partial rows or stored final rows).

        ``filters`` select rows whose field equals the given value (values
        are compared as strings, matching URL query semantics).
        """
        record = self.get(sweep_id)
        if record is None:
            return None
        with self._jobs_lock:
            job = self._jobs.get(sweep_id)
        if job is not None:
            with job.lock:
                rows = sorted(job.rows, key=lambda r: r["index"])
        else:
            rows = self._store.get_rows(sweep_id) or []
        if filters:
            rows = [
                r
                for r in rows
                if all(str(r.get(k)) == str(v) for k, v in filters.items())
            ]
        return {
            "sweep_id": sweep_id,
            "status": record["status"],
            "complete": record["status"] in ("done", "failed", "cancelled"),
            "total": record["total"],
            "rows": rows,
        }

    def list(self) -> list:
        """Status records of every known sweep (live + stored), oldest first."""
        with self._jobs_lock:
            live = {sid: job.snapshot() for sid, job in self._jobs.items()}
        records = {r["sweep_id"]: r for r in self._store.list_sweeps()}
        records.update(live)
        return sorted(records.values(), key=lambda r: r["submitted_s"])

    def metrics(self) -> dict:
        """Service counters: job states, cell totals, store stats, backends."""
        states = {state: 0 for state in JOB_STATES}
        done_cells = failed_cells = 0
        backends: dict = {}
        for record in self.list():
            states[record["status"]] = states.get(record["status"], 0) + 1
            done_cells += record.get("done_cells", 0)
            failed_cells += record.get("failed_cells", 0)
            for backend, n in record.get("engine_backends", {}).items():
                backends[backend] = backends.get(backend, 0) + n
        stats = self._store.stats()
        return {
            "uptime_s": time.time() - self._started_s,
            "jobs": states,
            "cells": {"done": done_cells, "failed": failed_cells},
            "engine_backends": backends,
            "store": {
                "cells": stats.cells,
                "bytes": stats.total_bytes,
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": stats.hit_rate,
                "quarantined": stats.quarantined,
            },
        }

    # ------------------------------------------------------------------ #
    # execution

    def _worker(self) -> None:
        while True:
            sweep_id = self._queue.get()
            if sweep_id is None:
                return
            with self._jobs_lock:
                job = self._jobs.get(sweep_id)
            if job is None:
                continue
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 - job crash isolation
                with job.lock:
                    job.status = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.finished_s = time.time()
            self._store.put_sweep(job.sweep_id, job.snapshot())
            if job.rows:
                with job.lock:
                    rows = sorted(job.rows, key=lambda r: r["index"])
                self._store.put_rows(job.sweep_id, rows)

    def _run_job(self, job: SweepJob) -> None:
        if job.cancel_event.is_set():
            with job.lock:
                job.status = "cancelled"
                job.finished_s = time.time()
            return
        with job.lock:
            job.status = "running"
            job.started_s = time.time()
        self._store.put_sweep(job.sweep_id, job.snapshot())

        spec = job.spec
        scenarios = spec.scenarios()
        with job.lock:
            job.total = len(scenarios)
        timeout_s = (
            spec.timeout_s
            if spec.timeout_s is not None
            else self._default_timeout_s
        )
        # started_s is wall time for the record; the budget runs on the
        # monotonic clock, which a wall-clock step cannot move
        deadline = (time.monotonic() + timeout_s) if timeout_s else None

        def should_stop() -> bool:
            if job.cancel_event.is_set():
                return True
            if deadline is not None and time.monotonic() > deadline:
                job.timed_out = True
                return True
            return False

        def on_cell_done(cell) -> None:
            with job.lock:
                job.done_cells += 1
                if not cell.ok:
                    job.failed_cells += 1
                job.engine_backends[cell.engine_backend] = (
                    job.engine_backends.get(cell.engine_backend, 0) + 1
                )
                job.rows.append(service_row(cell))

        run_batch(
            scenarios,
            workers=spec.workers,
            store=self._store,
            on_cell_done=on_cell_done,
            cancel=should_stop,
        )

        with job.lock:
            job.finished_s = time.time()
            if job.timed_out:
                job.status = "failed"
                job.error = _TIMEOUT_ERROR
            elif job.cancel_event.is_set():
                job.status = "cancelled"
            else:
                # individual cell failures are isolated, not job failures
                job.status = "done"

    def shutdown(self, wait: bool = True, timeout_s: float = 10.0) -> None:
        """Stop the workers (running jobs finish their current cell loop)."""
        self._shutdown = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for t in self._threads:
                t.join(timeout=timeout_s)
