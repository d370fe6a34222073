"""Calibration helper: the scaling rule, pinning, and proportionality.

The proportionality checks run the real kernel on the real clock, so
they take medians over several repetitions to ride out speed phases.
"""

import os
import statistics

import pytest

import calib
from common import OpOutcome
from run import run_ops


def test_scale_is_c_ref_over_geometric_mean():
    clock = calib.Clock(0.01, probe=lambda: 0.02)
    assert clock.scale(0.02, 0.02) == pytest.approx(0.5)
    assert clock.scale(0.005, 0.02) == pytest.approx(1.0)
    ref, value = clock.timed(lambda: 42)
    assert value == 42
    assert clock.readings == [0.02, 0.02]
    assert clock.speed() == [0.5, 0.5]
    assert ref == pytest.approx(clock.raw_total * 0.5)
    assert clock.ref_total == pytest.approx(ref)


def test_timed_accounts_a_failing_call_and_reraises():
    clock = calib.Clock(1.0, probe=lambda: 1.0)

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        clock.timed(boom)
    assert len(clock.readings) == 2
    assert clock.raw_total > 0


def test_rejects_non_positive_c_ref():
    with pytest.raises(ValueError):
        calib.Clock(0.0)


def test_pin_sets_affinity():
    before = os.sched_getaffinity(0)
    core = min(before)
    try:
        calib.pin(core)
        assert os.sched_getaffinity(0) == {core}
    finally:
        os.sched_setaffinity(0, before)


def _median_ref(clock, fn, reps: int) -> float:
    return statistics.median(clock.timed(fn)[0] for _ in range(reps))


def test_k_times_the_kernel_reports_k_times_its_reference_time():
    c_ref = 0.004
    clock = calib.Clock(c_ref)

    def kernels(k):
        return lambda: [calib.kernel() for _ in range(k)]

    one = _median_ref(clock, kernels(1), 15)
    four = _median_ref(clock, kernels(4), 9)
    twelve = _median_ref(clock, kernels(12), 7)
    # A reading is the best of a few runs, so one run is about c_ref.
    assert one == pytest.approx(c_ref, rel=0.25)
    assert four / one == pytest.approx(4.0, rel=0.2)
    assert twelve / one == pytest.approx(12.0, rel=0.2)


class _SyntheticWorkload:
    """An operation of fixed work, optionally slowed by repeating its call."""

    def __init__(self, slowdown: int):
        self.slowdown = slowdown

    @staticmethod
    def _call():
        for _ in range(6):
            calib.kernel()

    def op(self, clock, op_id):
        for _ in range(self.slowdown):
            clock.timed(self._call)
        return OpOutcome(ticks=100, ok=True)


def test_slowed_call_moves_op_p50_by_its_factor():
    clock = calib.Clock(0.004)

    def op_p50(slowdown: int) -> float:
        records = run_ops(_SyntheticWorkload(slowdown), clock, None, 1.0, False)
        return statistics.median(r.ref_s for r in records)

    base = statistics.median(op_p50(1) for _ in range(3))
    slowed = statistics.median(op_p50(2) for _ in range(3))
    assert slowed / base == pytest.approx(2.0, rel=0.15)
