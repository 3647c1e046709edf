"""CSV-export tests."""

import csv

import numpy as np

from repro.analysis.export import write_trace_csv
from repro.sim.trace import CHANNELS, Trace


def make_trace(n=5):
    arrays = {name: np.arange(n, dtype=float) for name in CHANNELS}
    return Trace(**arrays)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestTraceCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(make_trace(5), str(path))
        rows = read_csv(path)
        assert rows[0] == list(CHANNELS)
        assert len(rows) == 6

    def test_values_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(make_trace(3), str(path))
        rows = read_csv(path)
        assert float(rows[2][0]) == 1.0
