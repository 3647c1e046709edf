"""Async sweep service: submit scenario grids over HTTP, query durable results.

Stdlib-only serving layer on top of :func:`repro.sim.batch.run_batch` and
:class:`repro.store.ExperimentStore`:

* :class:`~repro.service.spec.SweepSpec` - the JSON sweep-spec wire format,
  compiled to :class:`~repro.sim.scenario.Scenario` grids with the same
  cross-product + ``perturb_seed`` semantics as ``repro batch``;
* :class:`~repro.service.jobs.JobManager` - background worker pool with
  per-job progress, cancellation, timeout, crash isolation, and
  store-backed resume across restarts;
* :class:`~repro.service.server.SweepServer` - ``ThreadingHTTPServer``
  exposing ``POST /sweeps``, ``GET /sweeps/<id>``, ``GET
  /sweeps/<id>/rows``, ``DELETE /sweeps/<id>``, ``GET /healthz``, and a
  Prometheus-style ``GET /metrics``;
* :class:`~repro.service.client.SweepClient` - urllib client the CLI's
  ``repro submit`` / ``repro query`` ride on.
"""

from repro.service.client import ServiceError, SweepClient
from repro.service.jobs import JOB_STATES, JobManager
from repro.service.server import SweepServer
from repro.service.spec import SweepSpec

__all__ = [
    "JOB_STATES",
    "JobManager",
    "ServiceError",
    "SweepClient",
    "SweepServer",
    "SweepSpec",
]
