"""Tests for queueing metrics."""

import pytest

from helpers import mm1_mean_queue_length, mm1_mean_response_time

from repro.common import ConfigurationError
from repro.queueing import ResponseStats


class TestMm1:
    def test_response_time(self):
        assert mm1_mean_response_time(50.0, 100.0) == pytest.approx(0.02)

    def test_queue_length_littles_law(self):
        lam, mu = 30.0, 100.0
        length = mm1_mean_queue_length(lam, mu)
        wait = mm1_mean_response_time(lam, mu)
        assert length == pytest.approx(lam * wait)  # Little's law

    def test_rejects_unstable(self):
        with pytest.raises(ConfigurationError):
            mm1_mean_response_time(100.0, 100.0)


class TestResponseStats:
    def test_empty_stats(self):
        stats = ResponseStats(target=4.0)
        assert stats.mean == 0.0
        assert stats.violation_fraction == 0.0
        assert stats.percentile(95) == 0.0
        assert stats.count == 0

    def test_mean_and_violations(self):
        stats = ResponseStats(target=4.0)
        stats.record_many([1.0, 3.0, 5.0, 7.0])
        assert stats.mean == pytest.approx(4.0)
        assert stats.violation_fraction == pytest.approx(0.5)
        assert stats.count == 4

    def test_percentile(self):
        stats = ResponseStats(target=1.0)
        stats.record_many(range(1, 101))
        assert stats.percentile(95) == pytest.approx(95.05, rel=0.01)

    def test_rejects_negative_sample(self):
        stats = ResponseStats(target=1.0)
        with pytest.raises(ConfigurationError):
            stats.record(-0.1)

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            ResponseStats(target=0.0)
