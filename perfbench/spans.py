"""Span recording for the traced run.

The traced run wraps the public entry points of each layer in span
recorders that live here, in the benchmark, not in the library. A
function imported with ``from module import name`` is bound a second
time in the consuming module, so every ``repro.*`` module holding the
same function object is patched too. Wrappers are installed only around
traced operations; untraced operations run the library unmodified.

A span is ``[name, start_ns, end_ns, parent, op, scale]``: ``parent``
is the index of the span that was open when it started (-1 for none),
``op`` the operation id, and ``scale`` the reference-time factor of
the timed call it ran inside (see :class:`calib.Clock`). Spans stay in
memory until the run ends; a layer's self time is its spans' duration
minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class SpanRecorder:
    """In-memory spans plus per-name counters, with install/uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        #: (op, "<span name>.calls" or a count_fn key) -> count.
        self.counts: dict[tuple, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._active = False
        #: (owner, attribute, original, wrapper) for every binding patched.
        self._sites: list[tuple] = []

    # -- timed-call hooks (called by calib.Clock) ------------------------

    def begin_call(self) -> int:
        self._active = True
        return len(self.spans)

    def end_call(self, mark: int, factor: float) -> None:
        self._active = False
        for span in self.spans[mark:]:
            span[5] = factor

    # -- patching --------------------------------------------------------

    def _wrap(self, name: str, fn, count):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder._active:
                return fn(*args, **kwargs)
            stack = recorder._stack
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, recorder.op, 1.0]
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            counts = recorder.counts
            counts[(recorder.op, name + ".calls")] += 1
            if count is not None:
                for key, value in count(result).items():
                    counts[(recorder.op, key)] += value
            return result

        return wrapper

    def prepare(self, targets) -> None:
        """Resolve ``(module, qualname, span_name[, count_fn])`` targets once.

        ``count_fn(result)`` returns ``{counter: value}`` to add per call.
        A module-level function is also patched wherever another
        ``repro.*`` module bound it by name.
        """
        for target in targets:
            module_name, qualname, name = target[:3]
            count = target[3] if len(target) > 3 else None
            owner, attr = _resolve(module_name, qualname)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            self._sites.append((owner, attr, original, wrapper))
            if "." in qualname:
                continue
            for mod_name, module in list(sys.modules.items()):
                if (
                    module is None
                    or module is owner
                    or not mod_name.startswith("repro")
                ):
                    continue
                if getattr(module, attr, None) is original:
                    self._sites.append((module, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._sites:
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[tuple[int, str], float]:
        """Reference seconds of self time per (op, span name)."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        totals: dict[tuple[int, str], float] = defaultdict(float)
        for index, (name, start, end, _parent, op, scale) in enumerate(self.spans):
            covered = 0
            cursor = start
            # Spans are appended as they start, so children come in order.
            for child in children.get(index, ()):
                c_start = max(self.spans[child][1], cursor)
                c_end = min(self.spans[child][2], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[(op, name)] += (end - start - covered) / 1e9 * scale
        return totals

    def write(self, path, header: dict) -> None:
        """Dump the header and every span as gzip'd JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
