"""Supervised process-pool mapping: timeouts, retries, pool recovery.

:func:`supervised_map` is the one engine behind every pool pass in the
repository (:func:`repro.simulate.fanout.fanout_map` delegates here).
It preserves the zero-copy fan-out semantics — fork-inherited payload,
``(token, index)`` jobs, results in input order, bit-identical output —
and adds the supervision a production corpus run needs:

* **Per-job timeouts** (``REPRO_JOB_TIMEOUT_S``, default off). Chunked
  submissions get ``timeout × len(chunk)``; once a pool has misbehaved
  the supervisor resubmits with chunk size 1, so a hung job is isolated
  and timed out individually.
* **Bounded retries** (``REPRO_JOB_RETRIES``, default 2) with
  deterministic jittered backoff between recovery rounds — reruns are
  reproducible, and two supervisors sharing a host don't retry in
  lockstep.
* **Broken-pool recovery.** A crashed worker breaks the whole
  ``ProcessPoolExecutor``; the supervisor rebuilds it and resubmits
  only the jobs without results. A wedged pool (job past its deadline)
  is killed — workers terminated best-effort — and treated the same
  way.
* **Degradation ladder.** chunked pool → chunk-1 pool rebuilds →
  serial in-process execution, entered after
  :data:`MAX_POOL_REBUILDS` pool deaths or per job once its retry
  budget is exhausted. Serial execution cannot be preempted, so it
  runs without a timeout; it also bypasses the worker fault hooks,
  which is what makes it the floor of the ladder.
* **Incremental publication.** ``on_result(index, result)`` fires in
  the parent the moment a job's chunk completes, so a caller caching
  results (``run_drives``) keeps every finished job even if the run
  dies later; each index is published exactly once. This hook is also
  what makes streamed corpus generation resumable:
  :func:`repro.simulate.runner.run_drives_to_store` appends each
  finished drive to the sharded
  :class:`~repro.simulate.corpus.CorpusStore` from here, committing
  shard indexes atomically, so a killed build restarts from the drives
  already on disk.

``REPRO_FORCE_SPAWN=1`` forces the spawn/pickle fallback path (the one
platforms without ``fork`` take), so Linux CI exercises it too.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.env import env_float, env_int
from repro.robust import faults
from repro.simulate import fanout

#: Pool deaths (crash or wedge) tolerated before degrading to serial.
MAX_POOL_REBUILDS = 2

#: Base backoff unit between recovery rounds, seconds.
BACKOFF_BASE_S = 0.05


@dataclass
class RunStats:
    """What one :func:`supervised_map` call had to do to finish."""

    jobs: int = 0
    retried_jobs: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_jobs: int = 0
    published: int = 0
    start_method: str = ""


_last_run_stats: RunStats | None = None


def last_run_stats() -> RunStats | None:
    """Stats of the most recent :func:`supervised_map` in this process."""
    return _last_run_stats


def job_timeout_s() -> float | None:
    """Per-job timeout from ``REPRO_JOB_TIMEOUT_S`` (<= 0 disables)."""
    value = env_float("REPRO_JOB_TIMEOUT_S", 0.0, minimum=-math.inf)
    return value if value > 0 else None


def job_retries() -> int:
    """Retry budget per job from ``REPRO_JOB_RETRIES`` (default 2)."""
    return max(0, env_int("REPRO_JOB_RETRIES", 2, minimum=-math.inf))


def backoff_s(round_no: int, salt: object = "") -> float:
    """Deterministic jittered backoff before recovery round ``round_no``."""
    digest = hashlib.sha256(f"{round_no}|{salt}".encode()).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2.0**64
    return BACKOFF_BASE_S * (2 ** min(round_no, 3)) * (0.5 + jitter)


def reap_process(
    pid: int,
    *,
    timeout_s: float = 10.0,
    term: bool = False,
    poll_s: float = 0.02,
) -> int:
    """Reap a direct child with a kill ladder; returns its exit code.

    Optionally SIGTERMs first (``term=True``), then polls ``waitpid``
    for up to ``timeout_s``; a child that has not exited by then is
    SIGKILLed and reaped unconditionally, so a wedged serving daemon or
    shard can never leave an orphan behind a crashed client
    (:func:`repro.serve.loadgen.stop_server` and the shard controller
    both sit on this ladder). An already-reaped pid returns 0.
    """
    try:
        if term:
            os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout_s
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done == pid:
                return os.waitstatus_to_exitcode(status)
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                _, status = os.waitpid(pid, 0)
                return os.waitstatus_to_exitcode(status)
            time.sleep(poll_s)
    except (ChildProcessError, ProcessLookupError):
        return 0


def _run_chunk(
    fn: Callable[[Any], Any], items: Sequence[tuple[int, Any]], attempt: int
) -> list[tuple[int, Any]]:
    # Worker-side: runs in the pool processes (fork or spawn). The
    # fault hook lives here — and only here — so injected crashes and
    # hangs never fire in the parent or on the serial path.
    out = []
    for key, arg in items:
        faults.maybe_fail_job(key, attempt)
        out.append((key, fn(arg)))
    return out


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a wedged/broken pool, terminating its workers."""
    # _processes is internal API, but it is the only handle on a worker
    # that will never drain its queue; guarded so a layout change
    # degrades to leaking the process, not crashing the supervisor.
    try:
        procs = list(getattr(pool, "_processes", {}).values())
    except Exception:
        procs = []
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass


def _pool_round(
    fn: Callable[[Any], Any],
    items: Sequence[tuple[int, Any]],
    workers: int,
    mp_ctx,
    chunk: int,
    timeout: float | None,
    results: dict[int, Any],
    publish: Callable[[int, Any], None],
    attempts: dict[int, int],
    stats: RunStats,
) -> tuple[set[int], bool]:
    """One pool pass over ``items``; returns (unfinished keys, died)."""
    chunks = [list(items[i : i + chunk]) for i in range(0, len(items), chunk)]
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=mp_ctx)
    unfinished: set[int] = set()
    died = False
    try:
        start = time.monotonic()
        futures: dict[Future, tuple[list[tuple[int, Any]], float | None]] = {}
        for part in chunks:
            attempt = max(attempts[key] for key, _ in part)
            deadline = None if timeout is None else start + timeout * len(part)
            futures[pool.submit(_run_chunk, fn, part, attempt)] = (part, deadline)
        not_done: set[Future] = set(futures)
        while not_done:
            wait_s = None
            if timeout is not None:
                nearest = min(futures[f][1] for f in not_done)
                wait_s = max(0.0, nearest - time.monotonic()) + 0.02
            done, not_done = wait(not_done, timeout=wait_s, return_when=FIRST_COMPLETED)
            for future in done:
                part, _ = futures[future]
                try:
                    for key, value in future.result():
                        if key not in results:
                            results[key] = value
                            publish(key, value)
                except BrokenProcessPool:
                    died = True
                    for key, _ in part:
                        if key not in results:
                            attempts[key] += 1
                            unfinished.add(key)
                except Exception:
                    # The job itself raised in the worker; the pool is
                    # fine. Charge an attempt and requeue.
                    for key, _ in part:
                        if key not in results:
                            attempts[key] += 1
                            unfinished.add(key)
            if timeout is not None and not_done:
                now = time.monotonic()
                overdue = [f for f in not_done if now > futures[f][1]]
                if overdue:
                    # A job ran past its deadline: the pool is wedged.
                    # Kill it; overdue jobs are charged an attempt,
                    # other in-flight jobs are innocent victims and
                    # requeue for free.
                    died = True
                    stats.timeouts += len(overdue)
                    for future in not_done:
                        charged = future in overdue
                        for key, _ in futures[future][0]:
                            if key not in results:
                                if charged:
                                    attempts[key] += 1
                                unfinished.add(key)
                    not_done = set()
    finally:
        if died:
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True)
    return unfinished, died


def _supervise(
    fn: Callable[[Any], Any],
    items: list[tuple[int, Any]],
    workers: int,
    mp_ctx,
    on_result: Callable[[int, Any], None] | None,
    timeout: float | None,
    retries: int,
    stats: RunStats,
) -> list[Any]:
    results: dict[int, Any] = {}
    attempts: dict[int, int] = {key: 0 for key, _ in items}

    def publish(key: int, value: Any) -> None:
        stats.published += 1
        if on_result is not None:
            on_result(key, value)

    def run_serial(batch: Sequence[tuple[int, Any]]) -> None:
        for key, arg in batch:
            value = fn(arg)
            results[key] = value
            stats.serial_jobs += 1
            publish(key, value)

    remaining = list(items)
    pool_deaths = 0
    while remaining:
        if workers <= 1 or len(remaining) == 1 or pool_deaths >= MAX_POOL_REBUILDS:
            run_serial(remaining)
            break
        # Jobs that exhausted their retry budget drop out of the pool
        # and run serially in-process — the bottom of the ladder.
        exhausted = [(k, a) for k, a in remaining if attempts[k] > retries]
        if exhausted:
            run_serial(exhausted)
            remaining = [(k, a) for k, a in remaining if attempts[k] <= retries]
            if not remaining:
                break
        chunk = (
            fanout.pool_chunksize(len(remaining), workers) if pool_deaths == 0 else 1
        )
        unfinished, pool_died = _pool_round(
            fn,
            remaining,
            min(workers, len(remaining)),
            mp_ctx,
            chunk,
            timeout,
            results,
            publish,
            attempts,
            stats,
        )
        if pool_died:
            pool_deaths += 1
            stats.pool_rebuilds += 1
        if unfinished:
            stats.retried_jobs += sum(1 for k in unfinished if attempts[k] > 0)
            arg_of = dict(remaining)
            remaining = [(k, arg_of[k]) for k, _ in remaining if k in unfinished]
            time.sleep(backoff_s(pool_deaths, salt=len(remaining)))
        else:
            remaining = []
    return [results[key] for key, _ in items]


def supervised_map(
    indexed_fn: Callable[[tuple[int, int]], Any],
    payload_value: Any,
    count: int,
    workers: int,
    *,
    fallback_fn: Callable[[Any], Any],
    fallback_jobs: Sequence[Any],
    on_result: Callable[[int, Any], None] | None = None,
    timeout_s: float | None | str = "env",
    retries: int | None = None,
) -> list[Any]:
    """Map ``count`` jobs over a supervised process pool.

    The signature extends :func:`repro.simulate.fanout.fanout_map`:
    same zero-copy fork-inherited payload and pickle fallback, same
    input-order results, plus supervision. ``on_result`` receives
    ``(index, result)`` in the parent as each job first completes.
    ``timeout_s``/``retries`` default to the ``REPRO_JOB_TIMEOUT_S`` /
    ``REPRO_JOB_RETRIES`` env knobs.
    """
    global _last_run_stats
    workers = max(1, min(workers, count))
    timeout = job_timeout_s() if timeout_s == "env" else timeout_s
    if retries is None:
        retries = job_retries()
    stats = RunStats(jobs=count)
    _last_run_stats = stats

    ctx = None if fanout.force_spawn() else fanout.fork_context()
    if ctx is not None:
        stats.start_method = "fork"
        with fanout.shared_payload(payload_value) as token:
            items = [(i, (token, i)) for i in range(count)]
            return _supervise(
                indexed_fn, items, workers, ctx, on_result, timeout, retries, stats
            )
    # No fork (or REPRO_FORCE_SPAWN=1): ship the jobs themselves over a
    # spawn pool — the path Windows/macOS always take.
    stats.start_method = "spawn"
    try:
        spawn_ctx = multiprocessing.get_context("spawn")
    except ValueError:  # pragma: no cover - every CPython has spawn
        spawn_ctx = None
    items = [(i, job) for i, job in enumerate(fallback_jobs)]
    return _supervise(
        fallback_fn, items, workers, spawn_ctx, on_result, timeout, retries, stats
    )
