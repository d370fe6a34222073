"""Span recorder: patching, from-import bindings, self time, scaling."""

import sys
import time
import types

from spans import SpanRecorder


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _toy_modules():
    lib = types.ModuleType("repro_spantoy_lib")

    def inner():
        _busy(0.02)
        return 3

    def outer():
        _busy(0.01)
        return lib.inner() + 1

    lib.inner, lib.outer = inner, outer
    consumer = types.ModuleType("repro_spantoy_consumer")
    consumer.inner = inner  # what ``from repro_spantoy_lib import inner`` binds
    sys.modules[lib.__name__] = lib
    sys.modules[consumer.__name__] = consumer
    return lib, consumer


def test_patches_from_import_bindings_and_restores():
    lib, consumer = _toy_modules()
    original = lib.inner
    recorder = SpanRecorder()
    recorder.prepare([("repro_spantoy_lib", "inner", "in")])
    recorder.install()
    try:
        assert lib.inner is not original and consumer.inner is lib.inner
    finally:
        recorder.uninstall()
    assert lib.inner is original and consumer.inner is original


def test_self_time_excludes_children_and_applies_scale():
    lib, _ = _toy_modules()
    recorder = SpanRecorder()
    recorder.prepare(
        [
            ("repro_spantoy_lib", "outer", "out"),
            ("repro_spantoy_lib", "inner", "in", lambda r: {"in.value": r}),
        ]
    )
    recorder.install()
    try:
        recorder.op = 7
        mark = recorder.begin_call()
        assert lib.outer() == 4
        recorder.end_call(mark, 2.0)
        lib.outer()  # outside a timed call: not recorded
    finally:
        recorder.uninstall()
    assert [s[0] for s in recorder.spans] == ["out", "in"]
    assert recorder.spans[1][3] == 0 and recorder.spans[0][3] == -1
    selfs = recorder.self_times()
    # ~10 ms and ~20 ms of busy work, doubled by the scale factor.
    assert 0.015 < selfs[(7, "out")] < 0.035
    assert 0.035 < selfs[(7, "in")] < 0.060
    assert recorder.counts[(7, "in.calls")] == 1
    assert recorder.counts[(7, "in.value")] == 3
