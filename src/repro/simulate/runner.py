"""Parallel drive execution through the corpus store.

:func:`run_drives` is the one entry point for turning scenarios into
drive logs. It looks every scenario up in the
:class:`~repro.simulate.corpus.CorpusStore` first — each drive is filed
under its :func:`~repro.simulate.cache.scenario_key` — simulates only
the misses, fanned out over a process pool when ``workers`` > 1, and
returns logs in the input order.

Determinism is inherent rather than arranged: each
:meth:`Scenario.run` seeds its own ``np.random.default_rng`` from the
scenario seed, so a drive's log is a pure function of the scenario and
identical no matter which worker (or how many workers) produced it.

The pool ships no scenario graphs: misses fan out through
:mod:`repro.simulate.fanout`, which parks the scenario list for fork
inheritance and sends each worker only an index (falling back to
pickling where ``fork`` is unavailable). The pass is supervised
(:mod:`repro.robust`): crashed or hung workers are retried and the
pool degrades to serial execution rather than losing the run, and
every finished drive is appended to the store the moment it completes.

That incremental publication is also what makes corpus generation
*resumable*: kill a build at drive k of n, rerun, and only the n−k
missing drives simulate — the rest are already committed shards on
disk. :func:`run_drives_to_store` runs the same lookup → fan-out →
publish pass but keeps nothing in memory and returns a lazy
:class:`~repro.simulate.corpus.CorpusView`.

``REPRO_BENCH_WORKERS`` sets the default worker count (1 = serial).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.env import env_int
from repro.simulate import fanout
from repro.simulate.cache import scenario_key
from repro.simulate.corpus import CorpusStore, CorpusView
from repro.simulate.records import DriveLog
from repro.simulate.scenarios import Scenario


def default_workers() -> int:
    """Worker count from ``REPRO_BENCH_WORKERS`` (default 1 = serial).

    Values below 1 mean serial; non-integers warn once and fall back
    to 1.
    """
    return max(1, env_int("REPRO_BENCH_WORKERS", 1, minimum=-math.inf))


def _run_one(scenario: Scenario) -> DriveLog:
    # Module-level so ProcessPoolExecutor can pickle it by reference.
    return scenario.run()


def _run_one_indexed(job: tuple[int, int]) -> DriveLog:
    # Fork-inherited fan-out worker: resolve the scenario by index.
    token, index = job
    return fanout.payload(token)[index].run()


def _fill(
    scenarios: list[Scenario],
    workers: int | None,
    store: CorpusStore | None,
    logs: list[DriveLog | None] | None,
) -> list[str]:
    """Look every scenario up in ``store``, simulate the misses, publish.

    Hits land in ``logs`` (when given) as store-backed logs; each miss
    is appended to ``store`` the moment it finishes, in the parent, so
    a crash at drive 999/1000 loses one drive and a rerun resumes from
    the store instead of resimulating the lot. Returns the drive keys
    (empty without a store).
    """
    if workers is None:
        workers = default_workers()
    if store is not None and not store.enabled:
        store = None
    keys = [scenario_key(s) for s in scenarios] if store is not None else []
    missing: list[int] = []
    for i in range(len(scenarios)):
        clog = store.open_slice(keys[i]) if store is not None else None
        if clog is None:
            missing.append(i)
        elif logs is not None:
            logs[i] = clog.to_drive_log()
    if not missing:
        return keys

    def publish(offset: int, log: DriveLog) -> None:
        index = missing[offset]
        if logs is not None:
            logs[index] = log
        if store is not None:
            store.append(keys[index], log.columnar())

    if workers <= 1 or len(missing) == 1:
        for offset, i in enumerate(missing):
            publish(offset, _run_one(scenarios[i]))
    else:
        miss_scenarios = [scenarios[i] for i in missing]
        fanout.fanout_map(
            _run_one_indexed,
            miss_scenarios,
            len(miss_scenarios),
            workers,
            fallback_fn=_run_one,
            fallback_jobs=miss_scenarios,
            on_result=publish,
        )
    return keys


def run_drives(
    scenarios: Sequence[Scenario],
    workers: int | None = None,
    *,
    store: CorpusStore | None = None,
    use_cache: bool = True,
) -> list[DriveLog]:
    """Simulate ``scenarios``; return their logs in input order.

    Args:
        scenarios: the drives to run.
        workers: process count for the misses. None reads
            ``REPRO_BENCH_WORKERS``; 0/1 runs serially in-process.
        store: the corpus store to consult/fill. None constructs the
            default (``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` aware).
        use_cache: False bypasses the store entirely for this call.
    """
    scenarios = list(scenarios)
    if not use_cache:
        store = None
    elif store is None:
        store = CorpusStore()
    logs: list[DriveLog | None] = [None] * len(scenarios)
    _fill(scenarios, workers, store, logs)
    return logs  # type: ignore[return-value]


def run_drives_to_store(
    scenarios: Sequence[Scenario],
    workers: int | None = None,
    *,
    store: CorpusStore | None = None,
) -> CorpusView:
    """Simulate ``scenarios`` into the corpus store; return a lazy view.

    Out-of-core ``run_drives``: nothing is kept in memory. Drives
    already committed to ``store`` are skipped outright; only missing
    drives fan out, and each one is appended to the store the moment it
    finishes (the supervised pool's exactly-once ``on_result``
    publication). The returned :class:`CorpusView` opens memory-mapped
    slices lazily, in whichever process ends up consuming them.

    Args:
        scenarios: the drives the corpus should hold.
        workers: process count for the misses. None reads
            ``REPRO_BENCH_WORKERS``; 0/1 runs serially in-process.
        store: the corpus store to fill. None uses the default
            (``REPRO_CACHE_DIR`` / ``REPRO_CORPUS_SHARD_MB`` aware).
    """
    if store is None:
        store = CorpusStore()
    if not store.enabled:
        raise ValueError(
            "run_drives_to_store needs an enabled CorpusStore "
            "(REPRO_NO_CACHE=1 disables the default one)"
        )
    keys = _fill(list(scenarios), workers, store, None)
    return CorpusView(store.root, keys)
