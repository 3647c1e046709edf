"""CLI tests (fast paths only; heavy commands run on the shortest cycle)."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_methodology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "-m", "magic"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.methodology == "otem"
        assert args.cycle == "us06"
        assert args.repeat == 1


class TestCycles:
    def test_lists_all_cycles(self):
        code, text = run_cli(["cycles"])
        assert code == 0
        for name in ("us06", "udds", "hwfet", "nycc", "la92"):
            assert name in text

    def test_has_stats_columns(self):
        _, text = run_cli(["cycles"])
        assert "dist [km]" in text
        assert "stops" in text


class TestRun:
    def test_run_baseline_on_short_cycle(self):
        code, text = run_cli(["run", "-m", "dual", "-c", "nycc"])
        assert code == 0
        assert "capacity loss" in text
        assert "Dual [16]" in text

    def test_run_reports_blt(self):
        _, text = run_cli(["run", "-m", "parallel", "-c", "nycc"])
        assert "routes to end-of-life" in text

    def test_initial_temperature_flag(self):
        code, text = run_cli(
            ["run", "-m", "parallel", "-c", "nycc", "--initial-temp-c", "35"]
        )
        assert code == 0
        assert "peak temp" in text


class TestCompare:
    def test_compare_prints_the_four_paper_methodologies(self):
        from repro.analysis.figures import ALL_METHODOLOGIES, METHOD_LABELS

        code, text = run_cli(
            ["compare", "-c", "nycc", "--rollout-backend", "vectorized"]
        )
        assert code == 0
        header, *rows = text.strip().splitlines()
        assert "Qloss" in header
        assert len(rows) == 4
        for row, m in zip(rows, ALL_METHODOLOGIES):
            assert row.lstrip().startswith(METHOD_LABELS[m])


class TestBatch:
    def _argv(self, tmp_path):
        return [
            "batch",
            "-m",
            "parallel",
            "-m",
            "dual",
            "-c",
            "nycc",
            "--store-dir",
            str(tmp_path / "store"),
        ]

    def test_batch_grid_runs(self, tmp_path):
        json_path = tmp_path / "batch.json"
        code, text = run_cli(self._argv(tmp_path) + ["--json", str(json_path)])
        assert code == 0
        assert "2 cells" in text
        assert "0 failure(s)" in text
        assert json_path.exists()

    def test_batch_rerun_hits_cache(self, tmp_path):
        run_cli(self._argv(tmp_path))
        code, text = run_cli(self._argv(tmp_path))
        assert code == 0
        assert "2 cache hit(s)" in text
        assert "cached" in text

    def test_batch_failure_sets_exit_code(self, tmp_path):
        code, text = run_cli(
            ["batch", "-m", "parallel", "-c", "no-such-cycle", "--no-cache"]
        )
        assert code == 1
        assert "FAILED" in text


class TestExport:
    def test_export_writes_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        code, text = run_cli(["export", "-m", "parallel", "-c", "nycc", str(path)])
        assert code == 0
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert "battery_temp_k" in header
        assert "wrote" in text


class TestServiceCommands:
    @pytest.fixture
    def server(self, tmp_path):
        from repro.service import SweepServer

        srv = SweepServer(tmp_path / "store", port=0, worker_threads=1).start()
        yield srv
        srv.shutdown()

    def test_parser_accepts_service_commands(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--quiet"])
        assert args.command == "serve" and args.port == 0
        args = parser.parse_args(["submit", "-m", "dual", "--wait", "--tag", "x"])
        assert args.command == "submit" and args.wait and args.tag == "x"
        args = parser.parse_args(
            ["query", "abc", "--rows", "--filter", "methodology=dual", "--json"]
        )
        assert args.filters == ["methodology=dual"] and args.as_json

    def test_submit_wait_and_query_roundtrip(self, server):
        argv = ["-m", "parallel", "-m", "dual", "-c", "nycc", "--url", server.url]
        code, text = run_cli(["submit"] + argv + ["--wait", "--tag", "smoke"])
        assert code == 0
        assert "submitted" in text
        assert "done: 2 row(s), 0 failed cell(s)" in text

        code, text = run_cli(["query", "--url", server.url])
        assert code == 0 and "smoke" in text and "done" in text
        sweep_id = text.splitlines()[1].split()[0]

        code, text = run_cli(["query", sweep_id, "--url", server.url])
        assert code == 0 and '"status": "done"' in text

        code, text = run_cli(
            ["query", sweep_id, "--rows", "--url", server.url,
             "--filter", "methodology=dual"]
        )
        assert code == 0
        assert "dual" in text and "parallel" not in text

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_submit_from_spec_file(self, server, tmp_path):
        from repro.service import SweepSpec
        from repro.sim.scenario import Scenario

        spec = SweepSpec(
            base=Scenario(cycle="nycc"), axes={"methodology": ["parallel"]}
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        code, text = run_cli(
            ["submit", "--spec", str(path), "--url", server.url, "--wait"]
        )
        assert code == 0 and "1 cells" in text

    def test_bad_filter_is_usage_error(self, server):
        code, text = run_cli(
            ["query", "abc", "--rows", "--url", server.url, "--filter", "nope"]
        )
        assert code == 2 and "bad filter" in text

    def test_unreachable_service_fails_cleanly(self):
        code, text = run_cli(
            ["submit", "-m", "parallel", "-c", "nycc",
             "--url", "http://127.0.0.1:1"]
        )
        assert code == 1 and "submit failed" in text
