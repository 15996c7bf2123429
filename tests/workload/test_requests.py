"""Tests for request-level stream generation."""

import numpy as np

from repro.workload import ArrivalTrace, RequestStreamGenerator, VirtualStore


def _generator(counts=(5, 0, 12), seed=0):
    trace = ArrivalTrace(np.asarray(counts, dtype=float), 30.0)
    return RequestStreamGenerator(trace, store=VirtualStore(seed=seed), seed=seed)


class TestBinStream:
    def test_counts_respected(self):
        generator = _generator()
        assert generator.bin_stream(0).count == 5
        assert generator.bin_stream(1).count == 0
        assert generator.bin_stream(2).count == 12

    def test_times_inside_bin_and_sorted(self):
        generator = _generator()
        stream = generator.bin_stream(2)
        assert np.all(stream.arrival_times >= 60.0)
        assert np.all(stream.arrival_times <= 90.0)
        assert np.all(np.diff(stream.arrival_times) >= 0)

    def test_works_in_store_range(self):
        stream = _generator().bin_stream(0)
        assert np.all(stream.works >= 0.010)
        assert np.all(stream.works <= 0.025)

    def test_empty_bin_mean_work_zero(self):
        assert _generator().bin_stream(1).mean_work == 0.0

    def test_bins_cover_trace(self):
        generator = _generator()
        streams = [generator.bin_stream(i) for i in range(len(generator.trace))]
        assert len(streams) == 3
        assert sum(s.count for s in streams) == 17
