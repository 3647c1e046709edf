"""HTTP front end: stdlib ThreadingHTTPServer over the job manager.

Endpoints (all JSON unless noted):

* ``POST /sweeps`` - submit a sweep spec; 202 with the sweep id.
* ``GET /sweeps`` - list every known sweep (live + stored).
* ``GET /sweeps/<id>`` - status + progress of one sweep.
* ``GET /sweeps/<id>/rows`` - tidy rows (live partial or stored final);
  query parameters filter by row-field equality, e.g.
  ``?methodology=otem&cycle=nycc``.
* ``DELETE /sweeps/<id>`` - cancel a queued/running sweep.
* ``GET /healthz`` - liveness.
* ``GET /metrics`` - Prometheus-style text exposition: job states, cell
  counts, store hit rate, engine backend mix.  ``repro_store_bytes`` is
  the stored cells' payload JSON length, not a file size;
  ``repro_store_quarantined`` counts corrupt cells and sweep records
  that failed to decode.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.service.jobs import JobManager
from repro.service.spec import SweepSpec
from repro.store import ExperimentStore

#: Default service port (overridable; tests bind port 0 for an ephemeral one).
DEFAULT_PORT = 8563


def render_metrics(metrics: dict) -> str:
    """Prometheus text exposition of :meth:`JobManager.metrics`."""
    lines = [
        "# TYPE repro_uptime_seconds gauge",
        f"repro_uptime_seconds {metrics['uptime_s']:.3f}",
        "# TYPE repro_jobs gauge",
    ]
    for state, n in sorted(metrics["jobs"].items()):
        lines.append(f'repro_jobs{{state="{state}"}} {n}')
    lines += [
        "# TYPE repro_cells_done counter",
        f"repro_cells_done {metrics['cells']['done']}",
        "# TYPE repro_cells_failed counter",
        f"repro_cells_failed {metrics['cells']['failed']}",
        "# TYPE repro_engine_cells counter",
    ]
    for backend, n in sorted(metrics["engine_backends"].items()):
        lines.append(f'repro_engine_cells{{backend="{backend}"}} {n}')
    store = metrics["store"]
    lines += [
        "# TYPE repro_store_cells gauge",
        f"repro_store_cells {store['cells']}",
        "# TYPE repro_store_bytes gauge",
        f"repro_store_bytes {store['bytes']}",
        "# TYPE repro_store_hits counter",
        f"repro_store_hits {store['hits']}",
        "# TYPE repro_store_misses counter",
        f"repro_store_misses {store['misses']}",
        "# TYPE repro_store_hit_rate gauge",
        f"repro_store_hit_rate {store['hit_rate']:.6f}",
        "# TYPE repro_store_quarantined counter",
        f"repro_store_quarantined {store['quarantined']}",
    ]
    return "\n".join(lines) + "\n"


class _SweepRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-sweeps/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # plumbing

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, obj) -> None:
        body = json.dumps(obj, sort_keys=True).encode()
        self._send(code, body, "application/json")

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_json(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body (expected a JSON sweep spec)")
        return json.loads(raw)

    # ------------------------------------------------------------------ #
    # routing

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["healthz"]:
            self._send_json(200, {"status": "ok"})
        elif parts == ["metrics"]:
            body = render_metrics(self.manager.metrics()).encode()
            self._send(200, body, "text/plain; version=0.0.4")
        elif parts == ["sweeps"]:
            self._send_json(200, {"sweeps": self.manager.list()})
        elif len(parts) == 2 and parts[0] == "sweeps":
            record = self.manager.get(parts[1])
            if record is None:
                self._error(404, f"unknown sweep {parts[1]!r}")
            else:
                self._send_json(200, record)
        elif len(parts) == 3 and parts[0] == "sweeps" and parts[2] == "rows":
            filters = dict(parse_qsl(url.query))
            payload = self.manager.rows(parts[1], filters)
            if payload is None:
                self._error(404, f"unknown sweep {parts[1]!r}")
            else:
                self._send_json(200, payload)
        else:
            self._error(404, f"no route for GET {url.path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts != ["sweeps"]:
            self._error(404, f"no route for POST {url.path}")
            return
        try:
            spec = SweepSpec.from_dict(self._read_json())
            sweep_id = self.manager.submit(spec)
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._error(400, str(exc))
            return
        self._send_json(
            202,
            {
                "sweep_id": sweep_id,
                "status": "queued",
                "total": spec.cell_count(),
                "spec_hash": spec.spec_hash(),
            },
        )

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) != 2 or parts[0] != "sweeps":
            self._error(404, f"no route for DELETE {url.path}")
            return
        record = self.manager.get(parts[1])
        if record is None:
            self._error(404, f"unknown sweep {parts[1]!r}")
        elif self.manager.cancel(parts[1]):
            self._send_json(200, {"sweep_id": parts[1], "cancelled": True})
        else:
            self._error(
                409, f"sweep {parts[1]!r} already finished ({record['status']})"
            )


class SweepServer:
    """The sweep service: store + job manager + threaded HTTP server.

    Parameters
    ----------
    store_dir:
        Experiment-store directory (created on first use); restarting a
        server over the same directory resumes from its results.
    host / port:
        Bind address; port 0 picks an ephemeral port (see :attr:`url`).
    worker_threads:
        Concurrent sweep jobs.
    default_timeout_s:
        Job wall-clock budget for specs that do not set their own.
    quiet:
        Suppress per-request stderr logging (tests, CI).
    """

    def __init__(
        self,
        store_dir,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        worker_threads: int = 2,
        default_timeout_s: float | None = None,
        quiet: bool = True,
    ):
        self.store = ExperimentStore(store_dir)
        self.manager = JobManager(
            self.store,
            worker_threads=worker_threads,
            default_timeout_s=default_timeout_s,
        )
        self._http = ThreadingHTTPServer((host, port), _SweepRequestHandler)
        self._http.daemon_threads = True
        self._http.manager = self.manager  # type: ignore[attr-defined]
        self._http.quiet = quiet  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """Base URL of the bound server (resolves ephemeral ports)."""
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "SweepServer":
        """Serve in a daemon thread (tests / embedding); returns self."""
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="sweep-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` CLI)."""
        self._http.serve_forever()

    def shutdown(self) -> None:
        """Stop the HTTP loop and the job workers."""
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.manager.shutdown()
