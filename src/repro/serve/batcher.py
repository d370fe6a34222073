"""Adaptive micro-batch collection for the serving engine loop.

The naive shape — an ``asyncio.Queue`` the readers put ticks into and
the engine ``get``s from — costs more than it saves: every put/get is a
future allocation plus a scheduler hop, and at one tick per frame the
collector overhead exceeded the sequential baseline in measurement. The
collector here is a plain list the readers append to, with a single
:class:`asyncio.Event` wake: the engine wakes once per burst, optionally
sleeps ``max_wait_us`` to let straggler sessions join the batch, then
swaps the whole list out at once. Backpressure is per-session and lives
in the server (bounded inboxes/outboxes); the collector itself never
blocks a reader.

Knobs (read once at server construction):

* ``REPRO_SERVE_BATCH`` — max sessions coalesced per engine pass
  (default 64).
* ``REPRO_SERVE_BATCH_WAIT_US`` — cap on how long a non-full batch may
  coalesce stragglers before running (default 0: adaptive batching
  only — ticks accumulate naturally while the engine is busy with the
  previous batch, and waiting beyond that trades engine utilisation
  for batch size, a strict loss when the engine shares cores with the
  readers). When set, coalescing is zero-sleep event-loop passes that
  only continue while they actually grow the batch, so the cap binds
  only under pathological arrival patterns.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.env import env_int


@dataclass(frozen=True)
class BatchTuning:
    """Micro-batcher knobs (``REPRO_SERVE_BATCH*``).

    Malformed or negative values warn once and fall back to the
    defaults (:mod:`repro.env`) instead of raising inside the
    server.
    """

    max_batch: int = 64
    max_wait_us: int = 0

    @classmethod
    def from_env(cls) -> "BatchTuning":
        return cls(
            max_batch=env_int("REPRO_SERVE_BATCH", 64, minimum=1),
            max_wait_us=env_int("REPRO_SERVE_BATCH_WAIT_US", 0, minimum=0),
        )


class BatchCollector:
    """List-append collector with one event wake per burst."""

    def __init__(self, tuning: BatchTuning) -> None:
        self._tuning = tuning
        self._ready: list = []
        self._event = asyncio.Event()

    def put(self, item) -> None:
        """Mark a session ready (reader side; never blocks)."""
        self._ready.append(item)
        if not self._event.is_set():
            self._event.set()

    def __len__(self) -> int:
        return len(self._ready)

    async def collect(self) -> list:
        """Wait for work, coalesce the in-flight burst, take a batch.

        Returns at most ``max_batch`` items; anything beyond stays
        queued for the next pass (and keeps the event set so the engine
        re-runs immediately).
        """
        while not self._ready:
            self._event.clear()
            await self._event.wait()
        tuning = self._tuning
        if len(self._ready) < tuning.max_batch and tuning.max_wait_us:
            # Coalesce whatever is already in flight: yield whole event
            # loop passes (each one polls the selector and runs every
            # ready reader) for as long as they keep adding sessions.
            # A timed sleep here would trade engine time for sessions
            # that are still thinking client-side — on a busy loop the
            # zero-sleep passes harvest the burst at microsecond cost,
            # so ``max_wait_us`` only caps pathological growth.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + tuning.max_wait_us / 1e6
            grown = 0
            while (
                len(self._ready) > grown
                and len(self._ready) < tuning.max_batch
                and loop.time() < deadline
            ):
                grown = len(self._ready)
                await asyncio.sleep(0)
        ready = self._ready
        if len(ready) <= tuning.max_batch:
            self._ready = []
            batch = ready
        else:
            batch = ready[: tuning.max_batch]
            self._ready = ready[tuning.max_batch :]
        return batch
