"""Lightweight perf-counter spans for the throughput benches.

The benches each carried an ad-hoc ``_timed`` helper around
``time.perf_counter``. :class:`Timer` centralises that: named spans
accumulate wall-clock seconds in :attr:`Timer.spans`, and setting
``REPRO_PERF=1`` echoes every span as it closes, which makes a bench's
internal phase breakdown visible without editing it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.env import env_flag

T = TypeVar("T")


class Timer:
    """Collects named perf-counter spans.

    Args:
        echo: print each span as it closes. None reads ``REPRO_PERF``
            (``1`` enables echoing).
    """

    def __init__(self, *, echo: bool | None = None):
        if echo is None:
            echo = env_flag("REPRO_PERF")
        self.echo = echo
        #: Accumulated seconds per span name (re-entering a name adds).
        self.spans: dict[str, float] = {}
        #: Elapsed seconds of the most recently closed span.
        self.last_s = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator["Timer"]:
        """Time a ``with`` block under ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.last_s = time.perf_counter() - start
            self.spans[name] = self.spans.get(name, 0.0) + self.last_s
            if self.echo:
                print(f"[perf] {name}: {self.last_s:.3f}s", flush=True)

    def timed(self, name: str, fn: Callable[[], T]) -> tuple[float, T]:
        """Run ``fn`` under ``span(name)``; returns (elapsed_s, result)."""
        with self.span(name):
            result = fn()
        return self.last_s, result

    def __getitem__(self, name: str) -> float:
        return self.spans[name]
