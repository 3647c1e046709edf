"""Trace recording tests."""

import numpy as np
import pytest

from repro.sim.trace import CHANNELS, Trace, TraceRecorder


def full_record(**overrides):
    rec = {name: 0.0 for name in CHANNELS}
    rec.update(overrides)
    return rec


class TestRecorder:
    def test_record_and_freeze(self):
        rec = TraceRecorder(2)
        rec.record(**full_record(time_s=0.0, request_w=5.0))
        rec.record(**full_record(time_s=1.0, request_w=6.0))
        trace = rec.freeze()
        assert len(trace) == 2
        assert trace.request_w.tolist() == [5.0, 6.0]

    def test_missing_channel_rejected(self):
        rec = TraceRecorder(1)
        bad = full_record()
        del bad["heat_w"]
        with pytest.raises(ValueError, match="heat_w"):
            rec.record(**bad)

    def test_extra_channel_rejected(self):
        rec = TraceRecorder(1)
        with pytest.raises(ValueError, match="bogus"):
            rec.record(**full_record(), bogus=1.0)

    def test_len_tracks_records(self):
        rec = TraceRecorder(1)
        assert len(rec) == 0
        rec.record(**full_record())
        assert len(rec) == 1

    def test_record_past_steps_rejected(self):
        rec = TraceRecorder(1)
        rec.record(**full_record())
        with pytest.raises(IndexError, match="1 steps"):
            rec.record(**full_record())
        assert len(rec) == 1

    def test_records_after_freeze_leave_the_trace_unchanged(self):
        rec = TraceRecorder(3)
        rec.record(**full_record(request_w=5.0))
        trace = rec.freeze()
        rec.record(**full_record(request_w=6.0))
        rec.record(**full_record(request_w=7.0))
        assert trace.request_w.tolist() == [5.0]
        assert rec.freeze().request_w.tolist() == [5.0, 6.0, 7.0]


class TestTrace:
    def test_channels_readonly(self):
        rec = TraceRecorder(1)
        rec.record(**full_record())
        trace = rec.freeze()
        with pytest.raises(ValueError):
            trace.request_w[0] = 99.0

    def test_mismatched_lengths_rejected(self):
        arrays = {name: np.zeros(3) for name in CHANNELS}
        arrays["heat_w"] = np.zeros(2)
        with pytest.raises(ValueError, match="heat_w"):
            Trace(**arrays)

    def test_dt_from_time_axis(self):
        arrays = {name: np.zeros(3) for name in CHANNELS}
        arrays["time_s"] = np.array([0.0, 2.0, 4.0])
        assert Trace(**arrays).dt == 2.0

    def test_channel_lookup(self):
        arrays = {name: np.zeros(2) for name in CHANNELS}
        trace = Trace(**arrays)
        assert trace.channel("heat_w") is trace.heat_w

    def test_channel_lookup_unknown(self):
        arrays = {name: np.zeros(2) for name in CHANNELS}
        with pytest.raises(KeyError):
            Trace(**arrays).channel("nope")
