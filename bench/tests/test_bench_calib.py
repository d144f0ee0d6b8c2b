"""Scaling of timings by the calibration probes."""

import gc
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH)]

import pytest  # noqa: E402

import calib  # noqa: E402


def test_scale_is_the_reference_over_the_mean_probe_time():
    ticks = iter([0.0, 0.001, 1.0, 1.005, 2.0, 2.003])
    cal = calib.Calibration("kernel", clock=lambda: next(ticks))
    assert gc.isenabled()
    for _ in range(3):
        cal.sample()
    assert gc.isenabled()
    assert cal.took == pytest.approx([0.001, 0.005, 0.003])
    assert cal.mean_s() == pytest.approx(0.003)
    assert cal.scale() == pytest.approx(calib.PROBES["kernel"][1] / 0.003)


def test_child_probe_starts_a_fresh_interpreter():
    cal = calib.Calibration("child")
    cal.sample()
    assert len(cal.took) == 1 and cal.took[0] > 0


def test_kernel_is_deterministic():
    assert calib.kernel() == calib.kernel() == 276
