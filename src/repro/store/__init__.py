"""Persistent experiment store: durable, queryable sweep results.

:class:`ExperimentStore` is the durability layer under the batch runner
and the sweep service: a content-addressed on-disk store (one SQLite
file holding each cell's payload JSON) keyed by the same
``CACHE_SCHEMA``-versioned fingerprints
:func:`repro.sim.batch.scenario_fingerprint` produces, so
``run_batch(store=...)`` transparently skips previously computed cells
across processes, sessions, and service restarts.
"""

from repro.store.experiment import ExperimentStore, StoreStats

__all__ = ["ExperimentStore", "StoreStats"]
