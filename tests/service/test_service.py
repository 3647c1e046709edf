"""The sweep service end to end: job manager semantics and the HTTP API."""

import json
import time

import pytest

import repro.service.jobs as jobs_mod
from repro.service import JobManager, ServiceError, SweepClient, SweepServer, SweepSpec
from repro.store import ExperimentStore
from repro.sim.scenario import Scenario

#: A fast 4-cell spec (two lockstep groups on the shortest cycle).
SPEC = SweepSpec(
    base=Scenario(cycle="nycc"),
    axes={
        "methodology": ["parallel", "dual"],
        "ucap_farads": [5_000.0, 25_000.0],
    },
)


def wait_terminal(manager, sweep_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = manager.get(sweep_id)
        if record["status"] in ("done", "failed", "cancelled", "interrupted"):
            return record
        time.sleep(0.02)
    raise TimeoutError(f"sweep {sweep_id} not terminal after {timeout_s} s")


@pytest.fixture
def manager(tmp_path):
    mgr = JobManager(ExperimentStore(tmp_path), worker_threads=1)
    yield mgr
    mgr.shutdown()


class TestJobManager:
    def test_submit_runs_to_done(self, manager):
        sweep_id = manager.submit(SPEC)
        record = wait_terminal(manager, sweep_id)
        assert record["status"] == "done"
        assert record["done_cells"] == record["total"] == 4
        assert record["failed_cells"] == 0
        assert record["error"] is None
        assert record["engine_backends"] == {"lockstep": 4}
        payload = manager.rows(sweep_id)
        assert payload["complete"] and len(payload["rows"]) == 4
        assert [r["index"] for r in payload["rows"]] == [0, 1, 2, 3]

    def test_rows_filterable_by_field(self, manager):
        sweep_id = manager.submit(SPEC)
        wait_terminal(manager, sweep_id)
        rows = manager.rows(sweep_id, {"methodology": "dual"})["rows"]
        assert len(rows) == 2
        assert all(r["methodology"] == "dual" for r in rows)
        assert manager.rows(sweep_id, {"methodology": "nope"})["rows"] == []

    def test_rows_filter_compares_numbers_as_numbers(self, manager):
        """A query string's ``25000`` selects the rows holding ``25000.0``."""
        sweep_id = manager.submit(SPEC)
        wait_terminal(manager, sweep_id)
        for text in ("25000", "25000.0", "25e3"):
            rows = manager.rows(sweep_id, {"ucap_farads": text})["rows"]
            assert [r["ucap_farads"] for r in rows] == [25_000.0, 25_000.0], text
        rows = manager.rows(sweep_id, {"methodology": "dual", "ucap_farads": "5000"})
        assert [(r["methodology"], r["ucap_farads"]) for r in rows["rows"]] == [
            ("dual", 5_000.0)
        ]
        assert manager.rows(sweep_id, {"ucap_farads": "abc"})["rows"] == []
        assert manager.rows(sweep_id, {"fallback": "null"})["rows"] != []
        assert manager.rows(sweep_id, {"ucap_farads": "true"})["rows"] == []

    def test_rows_never_expose_cached_flag(self, manager):
        sweep_id = manager.submit(SPEC)
        wait_terminal(manager, sweep_id)
        assert all("cached" not in r for r in manager.rows(sweep_id)["rows"])

    def test_unknown_sweep_returns_none(self, manager):
        assert manager.get("nope") is None
        assert manager.rows("nope") is None
        assert manager.cancel("nope") is False

    def test_cancel_queued_job(self, manager):
        # the single worker is busy with the first sweep, so the second is
        # still queued when we cancel it
        busy = manager.submit(SPEC)
        victim = manager.submit(
            SweepSpec(base=Scenario(cycle="nycc"), axes={"repeat": [1, 2]})
        )
        assert manager.cancel(victim) is True
        record = wait_terminal(manager, victim)
        assert record["status"] == "cancelled"
        assert record["done_cells"] == 0
        assert wait_terminal(manager, busy)["status"] == "done"

    def test_cancel_finished_job_returns_false(self, manager):
        sweep_id = manager.submit(SPEC)
        wait_terminal(manager, sweep_id)
        assert manager.cancel(sweep_id) is False

    @pytest.mark.parametrize("threads", [0, 1.5, True])
    def test_rejects_bad_worker_threads(self, tmp_path, threads):
        with pytest.raises(ValueError, match="worker_threads must be an integer"):
            JobManager(ExperimentStore(tmp_path), worker_threads=threads)

    def test_rejects_nan_default_timeout(self, tmp_path):
        """A NaN budget would never expire."""
        with pytest.raises(ValueError, match="default_timeout_s must be a finite"):
            JobManager(ExperimentStore(tmp_path), default_timeout_s=float("nan"))

    def test_timeout_fails_the_job(self, tmp_path):
        mgr = JobManager(ExperimentStore(tmp_path / "t"), worker_threads=1)
        try:
            spec = SweepSpec(
                base=Scenario(cycle="nycc"),
                axes={"methodology": ["parallel", "dual"]},
                timeout_s=1e-3,
            )
            record = wait_terminal(mgr, mgr.submit(spec))
            assert record["status"] == "failed"
            assert "timeout" in record["error"]
        finally:
            mgr.shutdown()

    def test_wall_clock_jump_does_not_time_out_the_job(self, manager, monkeypatch):
        real_time, real_run_batch = time.time, jobs_mod.run_batch
        jump = {"s": 0.0}

        def run_batch_after_jump(*args, **kwargs):
            jump["s"] = 3600.0  # the wall clock steps 1 h forward mid-job
            return real_run_batch(*args, **kwargs)

        monkeypatch.setattr(time, "time", lambda: real_time() + jump["s"])
        monkeypatch.setattr(jobs_mod, "run_batch", run_batch_after_jump)
        spec = SweepSpec(base=SPEC.base, axes=SPEC.axes, timeout_s=60.0)
        record = wait_terminal(manager, manager.submit(spec))
        assert jump["s"] == 3600.0
        assert record["status"] == "done", record
        assert record["error"] is None

    def test_submit_after_shutdown_rejected(self, tmp_path):
        mgr = JobManager(ExperimentStore(tmp_path / "s"), worker_threads=1)
        mgr.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            mgr.submit(SPEC)

    def test_metrics_shape(self, manager):
        wait_terminal(manager, manager.submit(SPEC))
        metrics = manager.metrics()
        assert metrics["jobs"]["done"] == 1
        assert metrics["cells"]["done"] == 4
        assert metrics["engine_backends"] == {"lockstep": 4}
        assert metrics["store"]["cells"] == 4
        assert metrics["uptime_s"] > 0

    def test_restart_resumes_from_store(self, tmp_path):
        first = JobManager(ExperimentStore(tmp_path), worker_threads=1)
        sweep_id = first.submit(SPEC)
        wait_terminal(first, sweep_id)
        rows_before = first.rows(sweep_id)
        first.shutdown()

        second = JobManager(ExperimentStore(tmp_path), worker_threads=1)
        try:
            # the finished sweep survives the restart, rows intact
            assert second.get(sweep_id)["status"] == "done"
            assert second.rows(sweep_id)["rows"] == rows_before["rows"]
            # resubmitting the identical sweep is served from the store:
            # byte-identical rows, zero recomputed cells
            resubmit = second.submit(SPEC)
            wait_terminal(second, resubmit)
            assert json.dumps(second.rows(resubmit)["rows"]) == json.dumps(
                rows_before["rows"]
            )
            assert second.store.hits == 4 and second.store.misses == 0
        finally:
            second.shutdown()

    def test_restart_marks_abandoned_sweeps_interrupted(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.put_sweep(
            "dead", {"sweep_id": "dead", "status": "running", "total": 4}
        )
        mgr = JobManager(store, worker_threads=1)
        try:
            record = mgr.get("dead")
            assert record["status"] == "interrupted"
            assert "stopped" in record["error"]
        finally:
            mgr.shutdown()

    def test_job_crash_fails_job_not_service(self, manager, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr("repro.service.jobs.run_batch", boom)
        record = wait_terminal(manager, manager.submit(SPEC))
        assert record["status"] == "failed"
        assert "kaboom" in record["error"]
        # the manager still runs jobs afterwards
        monkeypatch.undo()
        assert wait_terminal(manager, manager.submit(SPEC))["status"] == "done"


@pytest.fixture
def server(tmp_path):
    srv = SweepServer(tmp_path / "store", port=0, worker_threads=1).start()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    return SweepClient(server.url, timeout_s=10.0)


class TestHTTP:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok"}

    def test_submit_poll_rows_cycle(self, client):
        accepted = client.submit(SPEC.to_dict())
        assert accepted["status"] == "queued" and accepted["total"] == 4
        assert accepted["spec_hash"] == SPEC.spec_hash()
        record = client.wait(accepted["sweep_id"], timeout_s=60.0)
        assert record["status"] == "done"
        assert record["progress"] == 1.0
        payload = client.rows(accepted["sweep_id"])
        assert payload["complete"] and len(payload["rows"]) == 4
        filtered = client.rows(accepted["sweep_id"], methodology="dual")
        assert len(filtered["rows"]) == 2
        filtered = client.rows(accepted["sweep_id"], ucap_farads=25000)
        assert len(filtered["rows"]) == 2
        assert accepted["sweep_id"] in [s["sweep_id"] for s in client.list()]

    def test_resubmitted_sweep_is_byte_identical(self, client):
        first = client.submit(SPEC.to_dict())
        client.wait(first["sweep_id"], timeout_s=60.0)
        second = client.submit(SPEC.to_dict())
        client.wait(second["sweep_id"], timeout_s=60.0)
        rows_a = json.dumps(client.rows(first["sweep_id"])["rows"])
        rows_b = json.dumps(client.rows(second["sweep_id"])["rows"])
        assert rows_a.encode() == rows_b.encode()
        assert "repro_store_hits 4" in client.metrics_text()

    def test_metrics_exposition(self, client):
        accepted = client.submit(SPEC.to_dict())
        client.wait(accepted["sweep_id"], timeout_s=60.0)
        text = client.metrics_text()
        assert 'repro_jobs{state="done"} 1' in text
        assert "repro_cells_done 4" in text
        assert 'repro_engine_cells{backend="lockstep"} 4' in text
        assert "repro_store_cells 4" in text
        assert "repro_store_hit_rate" in text

    def test_bad_spec_is_a_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"axes": {"warp_factor": [9]}})
        assert err.value.status == 400
        assert "unknown axis" in str(err.value)

    def test_bad_scenario_value_is_a_400(self, client):
        for spec, message in (
            ({"base": {"initial_temp_k": -5.0}}, "must be a finite positive number"),
            ({"axes": {"ucap_farads": [5_000.0, 0.0]}}, "must be a finite positive"),
            ({"base": {"ucap_farads": "25000"}}, "ucap_farads must be a number"),
            ({"axes": {"initial_temp_k": [298.0, "298"]}}, "initial_temp_k must be a"),
        ):
            with pytest.raises(ServiceError) as err:
                client.submit(spec)
            assert err.value.status == 400
            assert message in str(err.value)

    def test_unrunnable_route_is_a_400(self, client):
        """Refused at submit, not when a cell tries to build the route."""
        for spec, message in (
            ({"axes": {"cycle": ["nycc", "bogus"]}}, "unknown cycle 'bogus'"),
            ({"base": {"cycle": 5}}, "unknown cycle 5"),
            ({"base": {"perturb_seed": "3"}}, "perturb_seed must be an integer"),
            ({"base": {"perturb_seed": -1}}, "perturb_seed must be an integer"),
            ({"base": {"perturb_seed": True}}, "perturb_seed must be an integer"),
        ):
            with pytest.raises(ServiceError) as err:
                client.submit(spec)
            assert err.value.status == 400
            assert message in str(err.value)

    def test_bad_execution_knob_is_a_400(self, client):
        """Refused at submit, not after the job starts and dies in run_batch."""
        for spec, message in (
            ({"workers": 2.5}, "workers must be an integer >= 0"),
            ({"seeds": True}, "seeds must be an integer >= 0"),
            ({"timeout_s": float("nan")}, "timeout_s must be a finite positive"),
        ):
            with pytest.raises(ServiceError) as err:
                client.submit(spec)
            assert err.value.status == 400
            assert message in str(err.value)

    def test_bad_mpc_setting_is_a_400(self, client):
        for spec, message in (
            ({"base": {"mpc_horizon": 0}}, "mpc_horizon must be an integer >= 1"),
            ({"axes": {"mpc_step_s": [5.0, 0.0]}}, "mpc_step_s must be a finite"),
            ({"base": {"mpc_max_evals": -1}}, "mpc_max_evals must be an integer"),
        ):
            with pytest.raises(ServiceError) as err:
                client.submit(spec)
            assert err.value.status == 400
            assert message in str(err.value)

    def test_unknown_sweep_is_a_404(self, client):
        for call in (client.status, client.rows, client.cancel):
            with pytest.raises(ServiceError) as err:
                call("feedfacecafe")
            assert err.value.status == 404

    def test_unknown_route_is_a_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_cancel_finished_sweep_is_a_409(self, client):
        accepted = client.submit(SPEC.to_dict())
        client.wait(accepted["sweep_id"], timeout_s=60.0)
        with pytest.raises(ServiceError) as err:
            client.cancel(accepted["sweep_id"])
        assert err.value.status == 409

    def test_restarted_server_serves_stored_sweeps(self, tmp_path):
        store_dir = tmp_path / "store"
        first = SweepServer(store_dir, port=0, worker_threads=1).start()
        try:
            c = SweepClient(first.url, timeout_s=10.0)
            sweep_id = c.submit(SPEC.to_dict())["sweep_id"]
            c.wait(sweep_id, timeout_s=60.0)
            rows = c.rows(sweep_id)["rows"]
        finally:
            first.shutdown()

        second = SweepServer(store_dir, port=0, worker_threads=1).start()
        try:
            c = SweepClient(second.url, timeout_s=10.0)
            assert c.status(sweep_id)["status"] == "done"
            assert c.rows(sweep_id)["rows"] == rows
            resubmit = c.submit(SPEC.to_dict())["sweep_id"]
            c.wait(resubmit, timeout_s=60.0)
            assert c.rows(resubmit)["rows"] == rows
            assert "repro_store_hits 4" in c.metrics_text()
        finally:
            second.shutdown()
