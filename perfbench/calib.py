"""Calibration: turn wall seconds into reference seconds.

A shared virtual CPU can run the same code at very different speeds
from one second to the next (each vCPU drifts between fast and slow
phases, independently per core). Raw wall time then measures the host
as much as the program. Every timed call is therefore bracketed by a
fixed calibration kernel run on the same pinned core, and its time is
rescaled to what it would have taken on a core where the kernel takes
``c_ref`` seconds::

    ref_s = raw_s * c_ref / sqrt(c_before * c_after)

The kernel mixes the costs that dominate this code base: a pure Python
integer loop (interpreter dispatch) and small-array numpy calls mixed
with small-object work (per-call overhead of tiny vector ops).
``c_ref`` is a constant fixed in ``BENCHMARK.json`` (the ``--c-ref``
argument); changing it rebases every reported number.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

#: Kernel sizing: about 2.5 ms of integer loop and 1 ms of mixed small
#: numpy and object work on a 2 GHz x86 core. Each reading is the faster
#: of two runs, which sheds one-off interrupts.
_LOOP_ITERS = 30_000
_MIX_ROUNDS = 30
_RUNS_PER_READING = 2


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def at(self, x: float) -> float:
        return self.a * x + self.b


def kernel() -> float:
    """The fixed calibration workload; returns a checksum so no work is elided.

    Two thirds is a tight integer loop (interpreter dispatch); one third
    mixes tiny numpy calls (ufuncs, sort, searchsorted, a 6x6 matmul,
    where, concatenate) with small-object and dict work, the way the
    simulator, the forecaster and the serving engine do. On a shared
    2-vCPU VM this split tracked the replay and ingest layers' speed
    phases best among the splits tried (1:2, 1:1, 2:1): repeated runs
    of one input spread about 4-6% after scaling, against 17-27% raw.
    """
    acc = 0
    for i in range(_LOOP_ITERS):
        acc = (acc * 31 + i) & 0xFFFFF
    total = float(acc)
    vec = np.linspace(0.0, 1.0, 24)
    eye = np.eye(6)
    table: dict[int, int] = {}
    for i in range(_MIX_ROUNDS):
        w = np.exp(-vec * 0.5) + np.maximum(vec, 0.3)
        k = int(np.searchsorted(np.sort(w), 1.0))
        total += float(w.sum()) + k + float((eye @ w[:6]).max())
        total += float(np.concatenate([np.where(w > 1.0, w, 0.0), vec]).mean())
        table[i % 17] = table.get(i % 17, 0) + k
        total += sum(_Point(j, 1.0).at(0.5) for j in range(12)) * 1e-3
    return total + len(table)


def kernel_seconds() -> float:
    """One calibration reading: the faster of two kernel runs, in seconds."""
    best = math.inf
    for _ in range(_RUNS_PER_READING):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def allowed_cores() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def pin(core: int) -> None:
    """Pin the calling process to one core."""
    os.sched_setaffinity(0, {core})


class Clock:
    """Reference-time stopwatch for calls into the library.

    ``timed(fn)`` brackets one call between two calibration readings on
    the current core and adds its reference time to ``ref_total``;
    callers measure a multi-call operation as the difference of
    ``ref_total`` across it. Raw seconds accumulate in ``raw_total``
    and every reading lands in ``readings`` (for ``calib.speed``).

    ``probe`` lets a caller substitute the reading source (tests use a
    deterministic one). While ``recorder`` is set (a traced operation),
    it receives the scale factor of each call so spans recorded inside
    it are converted to reference time.
    """

    def __init__(self, c_ref: float, *, probe=kernel_seconds):
        if not c_ref > 0:
            raise ValueError("c_ref must be positive")
        self.c_ref = float(c_ref)
        self.probe = probe
        self.recorder = None
        self.ref_total = 0.0
        self.raw_total = 0.0
        self.readings: list[float] = []

    def reading(self) -> float:
        c = self.probe()
        self.readings.append(c)
        return c

    def scale(self, *readings: float) -> float:
        """``c_ref`` over the geometric mean of ``readings``."""
        log_mean = sum(math.log(c) for c in readings) / len(readings)
        return self.c_ref / math.exp(log_mean)

    def timed(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; returns ``(ref_s, result)``."""
        c_before = self.reading()
        mark = self.recorder.begin_call() if self.recorder is not None else None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            c_after = self.reading()
            factor = self.scale(c_before, c_after)
            if mark is not None:
                self.recorder.end_call(mark, factor)
            self.raw_total += raw
            self.ref_total += raw * factor
        return raw * factor, result

    def add(self, raw_s: float, factor: float) -> float:
        """Account a call timed elsewhere (e.g. across two cores)."""
        self.raw_total += raw_s
        self.ref_total += raw_s * factor
        return raw_s * factor

    def speed(self) -> list[float]:
        """``c_ref / c`` per reading: >1 means a faster phase than reference."""
        return [self.c_ref / c for c in self.readings]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
