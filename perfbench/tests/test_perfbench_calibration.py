"""Arithmetic of the benchmark's host-speed calibration."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench_calibration as calibration  # noqa: E402


def test_a_steady_host_scales_every_chunk_alike():
    samples = [2 * calibration.REFERENCE_S] * 6
    assert calibration.chunk_scales(samples) == pytest.approx([0.5] * 5)


def test_one_disturbed_sample_moves_no_chunk():
    ref = calibration.REFERENCE_S
    samples = [ref] * 8
    samples[4] = 10 * ref
    assert calibration.chunk_scales(samples) == pytest.approx([1.0] * 7)


def test_each_chunk_follows_the_samples_around_it():
    ref = calibration.REFERENCE_S
    slow, fast = [2 * ref] * 5, [ref] * 5
    scales = calibration.chunk_scales(slow + fast)
    assert len(scales) == 9
    assert scales[:3] == pytest.approx([0.5] * 3)
    assert scales[-3:] == pytest.approx([1.0] * 3)


def test_sample_times_the_kernel():
    assert calibration.sample() > 0
