"""Simulator throughput: scalar vs vectorized, serial vs parallel, cache.

Measures single-drive tick throughput on the 20 km low-band freeway
drive (the corpus's workhorse scenario), the speedup of the vectorized
radio pipeline over the scalar reference, the effect of fanning a small
corpus out over worker processes, and the corpus store's ability to skip
simulation entirely on a warm second pass. Results land in
``BENCH_simulator.json`` at the repo root.

``REPRO_BENCH_SMOKE=1`` shrinks the drive so the whole bench fits in a
CI smoke budget (~30 s).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from repro.perf import Timer
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.simulate.corpus import CorpusStore
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario
from repro.simulate.simulator import DriveSimulator

from conftest import print_header

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
LENGTH_KM = 4.0 if SMOKE else 20.0
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"


def _drive(scenario, *, vectorized: bool) -> tuple[float, int]:
    """(wall seconds, ticks) for one full simulation of ``scenario``."""
    config = dataclasses.replace(scenario.config, vectorized_radio=vectorized)
    rng = np.random.default_rng(scenario.seed + 0x5EED)
    sim = DriveSimulator(scenario.deployment, scenario.trajectory, rng, config)
    elapsed, log = Timer().timed("drive", sim.run)
    return elapsed, len(log.ticks)


def _mean_audible_cells(scenario) -> float:
    """Mean audible-cell count along the route (the per-tick work scale)."""
    samples = list(scenario.trajectory)
    counts = [
        len(scenario.deployment.audible_cells(s.position))
        for s in samples[:: max(1, len(samples) // 200)]
    ]
    return float(np.mean(counts)) if counts else 0.0


def test_simulator_throughput(corpus):
    scenario = freeway_scenario(OPX, BandClass.LOW, length_km=LENGTH_KM, seed=211)
    timer = Timer()

    scalar_s, ticks = _drive(scenario, vectorized=False)
    vector_s = min(_drive(scenario, vectorized=True)[0] for _ in range(3))
    speedup = scalar_s / vector_s
    cells = _mean_audible_cells(scenario)

    # --- parallel fan-out over a small corpus of independent drives ---
    fleet = [
        freeway_scenario(OPX, BandClass.LOW, length_km=LENGTH_KM / 4, seed=400 + i)
        for i in range(4)
    ]
    serial_s, serial_logs = timer.timed(
        "fleet_serial", lambda: run_drives(fleet, workers=1, use_cache=False)
    )
    workers = min(4, os.cpu_count() or 1)
    parallel_s, parallel_logs = timer.timed(
        "fleet_parallel", lambda: run_drives(fleet, workers=workers, use_cache=False)
    )
    assert [len(l.ticks) for l in serial_logs] == [len(l.ticks) for l in parallel_logs]

    # --- warm-store pass: the second resolution simulates nothing ---
    store = CorpusStore()
    run_drives([scenario], workers=1, store=store)
    warm_s, _ = timer.timed(
        "warm_cache", lambda: run_drives([scenario], workers=1, store=store)
    )
    assert store.enabled is False or store.stats["hits"] >= 1

    result = {
        "scenario": scenario.name,
        "length_km": LENGTH_KM,
        "ticks": ticks,
        "mean_audible_cells": round(cells, 2),
        "scalar_s": round(scalar_s, 3),
        "vectorized_s": round(vector_s, 3),
        "speedup": round(speedup, 2),
        "ticks_per_s_scalar": round(ticks / scalar_s, 1),
        "ticks_per_s_vectorized": round(ticks / vector_s, 1),
        "cell_ticks_per_s_vectorized": round(cells * ticks / vector_s, 1),
        "fleet_serial_s": round(serial_s, 3),
        "fleet_parallel_s": round(parallel_s, 3),
        "fleet_workers": workers,
        "warm_cache_s": round(warm_s, 3),
        "cache_stats": store.stats,
        "smoke": SMOKE,
    }
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print_header("Simulator throughput")
    print(
        f"  {scenario.name}: {ticks} ticks, ~{cells:.0f} audible cells/tick"
    )
    print(
        f"  scalar  {scalar_s:6.2f}s  ({ticks / scalar_s:8.0f} ticks/s)\n"
        f"  vector  {vector_s:6.2f}s  ({ticks / vector_s:8.0f} ticks/s, "
        f"{cells * ticks / vector_s:,.0f} cell-ticks/s)\n"
        f"  speedup {speedup:.2f}x"
    )
    print(
        f"  fleet of {len(fleet)}: serial {serial_s:.2f}s, "
        f"{workers} workers {parallel_s:.2f}s"
    )
    print(f"  warm store resolve: {warm_s * 1000:.0f} ms ({store.stats})")
    print(f"  -> {OUT_PATH.name}")

    if not SMOKE:
        # Acceptance: the vectorized pipeline is >= 5x the scalar baseline.
        assert speedup >= 5.0, f"vectorized speedup {speedup:.2f}x below 5x"
