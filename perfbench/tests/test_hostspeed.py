"""Tests for the host-speed reference kernel and its factor."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostspeed import NOMINAL_S, HostSpeed, kernel  # noqa: E402


def test_kernel_is_deterministic():
    assert kernel() == kernel()


def test_sample_records_both_clocks():
    host = HostSpeed()
    assert host.sample(3) == 0
    assert host.sample(2) == 3
    assert len(host.cpu_s) == len(host.wall_s) == 5
    assert all(t > 0 for t in host.cpu_s + host.wall_s)


def test_factor_is_median_over_nominal():
    host = HostSpeed()
    host.cpu_s = [NOMINAL_S, 2 * NOMINAL_S, 100 * NOMINAL_S]
    host.wall_s = [3 * NOMINAL_S]
    assert host.factor("cpu") == pytest.approx(2.0)
    assert host.factor("wall") == pytest.approx(3.0)
    summary = host.summary()
    assert summary["samples"] == 3 and summary["nominal_s"] == NOMINAL_S


def test_factor_over_a_window():
    host = HostSpeed()
    host.cpu_s = [10 * NOMINAL_S, 10 * NOMINAL_S, NOMINAL_S, 3 * NOMINAL_S]
    assert host.factor("cpu", start=2) == pytest.approx(2.0)
    assert host.factor("cpu") == pytest.approx(6.5)


def test_factor_needs_samples():
    with pytest.raises(RuntimeError):
        HostSpeed().factor()



def test_factor_of_the_nearest_samples():
    host = HostSpeed()
    host.at = [0.0, 1.0, 2.0, 3.0, 10.0]
    host.cpu_s = [NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S, 4 * NOMINAL_S,
                  100 * NOMINAL_S]
    assert host.factor_nearest(0.9, k=3) == pytest.approx(2.0)
    assert host.factor_nearest(2.6, k=2) == pytest.approx(4.0)
    assert host.factor_nearest(50.0, k=1) == pytest.approx(100.0)
    with pytest.raises(RuntimeError):
        HostSpeed().factor_nearest(0.0, k=1)
