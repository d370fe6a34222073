"""Data-plane throughput: event-segmented engines vs scalar references.

Measures the three hot loops the event-segmented data plane batched —
fluid TCP over capacity traces (segment-batched CUBIC/BBR vs the
tick-at-a-time reference), chunked VoD playback (vectorized downloads
plus the ``play_many`` process fan-out vs the per-tick link loop), and
the Prognos streaming replay (staged per-log forecasts vs the
tick-by-tick reference) — plus the derived-dataset cache's warm-pass
win. The combined speedup is total reference seconds over total fast
seconds across the three loops. Results land in ``BENCH_dataplane.json``
at the repo root.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus so the whole bench fits in a
CI smoke budget.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.apps.abr.algorithms import FastMpc, Festive, RateBased, RobustMpc
from repro.apps.abr.player import play_many
from repro.core.evaluation import (
    configs_for_log,
    run_prognos_over_logs,
    run_prognos_over_logs_reference,
)
from repro.ml.dataset_cache import DatasetCache, build_cached
from repro.ml.features import build_radio_feature_dataset
from repro.net.emulation import BandwidthTrace, TraceDrivenLink
from repro.net.tcp import TcpBbr, TcpCubic, simulate_tcp, simulate_tcp_reference
from repro.perf import Timer
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.simulate.runner import default_workers, run_drives
from repro.simulate.scenarios import city_walk_scenario

from conftest import print_header

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
WALKS = 1 if SMOKE else 2
WALK_MIN = 4 if SMOKE else 12
PROGNOS_STRIDE = 8
BASE_RTT_S = 0.04
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dataplane.json"


def test_dataplane_throughput(corpus):
    # Same walk scenarios as the prediction bench, so the on-disk corpus
    # store shares the entries between the two suites.
    logs = run_drives(
        [
            city_walk_scenario(OPX, (BandClass.MMWAVE,), duration_min=WALK_MIN, seed=261 + i)
            for i in range(WALKS)
        ],
        store=corpus.store,
    )
    ticks = sum(len(log.ticks) for log in logs)
    timer = Timer()

    # --- fluid TCP: segment-batched engines vs the tick loop ---
    tcp_ticks = 0
    for log in logs:
        _, caps = log.capacity_series()
        for make_cc in (TcpCubic, TcpBbr):
            ref_s, ref = timer.timed(
                "tcp_reference", lambda: simulate_tcp_reference(make_cc(), caps, BASE_RTT_S)
            )
            fast_s, fast = timer.timed(
                "tcp_fast", lambda: simulate_tcp(make_cc(), caps, BASE_RTT_S)
            )
            tcp_ticks += len(ref.times_s)
            np.testing.assert_allclose(
                fast.goodput_mbps, ref.goodput_mbps, rtol=1e-8, atol=1e-6
            )

    # --- VoD playback: vectorized downloads vs the per-tick link loop ---
    # Each walk contributes several trace windows, as the Fig. 14 bench
    # replays sessions over many window starts.
    traces = []
    for log in logs:
        times, caps = log.capacity_series()
        full = BandwidthTrace(times_s=times - times[0], capacity_mbps=caps)
        window_s = full.duration_s / 3.0
        traces.extend(
            full.window(i * window_s, window_s) for i in range(3)
        )
    jobs = [
        (algo, trace, None, None)
        for algo in (RateBased, FastMpc, RobustMpc, Festive)
        for trace in traces
    ]
    fast_download = TraceDrivenLink.download_time_s
    TraceDrivenLink.download_time_s = TraceDrivenLink.download_time_reference_s
    try:
        timer.timed("player_reference", lambda: play_many(jobs, workers=1))
    finally:
        TraceDrivenLink.download_time_s = fast_download
    _, serial_results = timer.timed("player_fast", lambda: play_many(jobs, workers=1))
    workers = max(default_workers(), 2)
    _, fanned_results = timer.timed(
        "player_fanout", lambda: play_many(jobs, workers=workers)
    )
    assert [r.levels for r in serial_results] == [r.levels for r in fanned_results]

    # --- Prognos streaming replay: staged forecasts vs tick-by-tick ---
    # Serial on both sides so the comparison isolates the batched math;
    # the fork-inherited fan-out path (workers ship only an index, never
    # the 20 Hz logs) is measured in bench_corpus_fanout.py.
    configs = configs_for_log(OPX, (BandClass.MMWAVE,))
    timer.timed(
        "prognos_reference",
        lambda: run_prognos_over_logs_reference(logs, configs, stride=PROGNOS_STRIDE),
    )
    _, run = timer.timed(
        "prognos_fast",
        lambda: run_prognos_over_logs(logs, configs, stride=PROGNOS_STRIDE),
    )
    prognos_steps = len(run.predictions)

    # --- derived-dataset cache: cold build vs warm load ---
    cache = DatasetCache()
    params = {"stride": 5}
    builder = lambda: build_radio_feature_dataset(logs, stride=5)
    cold_s, dataset = timer.timed(
        "dataset_cold", lambda: build_cached("radio", builder, logs, params, cache=cache)
    )
    warm_s, warm_dataset = timer.timed(
        "dataset_warm", lambda: build_cached("radio", builder, logs, params, cache=cache)
    )
    assert np.array_equal(dataset.x, warm_dataset.x)
    assert cache.enabled is False or cache.stats["hits"] >= 1

    fast_total = timer["tcp_fast"] + timer["player_fast"] + timer["prognos_fast"]
    reference_total = (
        timer["tcp_reference"] + timer["player_reference"] + timer["prognos_reference"]
    )
    speedup = reference_total / fast_total

    result = {
        "walks": WALKS,
        "walk_minutes": WALK_MIN,
        "ticks": ticks,
        "tcp_ticks": tcp_ticks,
        "tcp_fast_s": round(timer["tcp_fast"], 3),
        "tcp_reference_s": round(timer["tcp_reference"], 3),
        "tcp_speedup": round(timer["tcp_reference"] / timer["tcp_fast"], 2),
        "player_sessions": len(jobs),
        "player_fast_s": round(timer["player_fast"], 3),
        "player_reference_s": round(timer["player_reference"], 3),
        "player_speedup": round(timer["player_reference"] / timer["player_fast"], 2),
        "player_fanout_s": round(timer["player_fanout"], 3),
        "player_fanout_workers": workers,
        "prognos_steps": prognos_steps,
        "prognos_stride": PROGNOS_STRIDE,
        "prognos_fast_s": round(timer["prognos_fast"], 3),
        "prognos_reference_s": round(timer["prognos_reference"], 3),
        "prognos_speedup": round(
            timer["prognos_reference"] / timer["prognos_fast"], 2
        ),
        "dataset_cold_s": round(cold_s, 3),
        "dataset_warm_s": round(warm_s, 4),
        "dataset_cache_stats": cache.stats,
        "fast_total_s": round(fast_total, 3),
        "reference_total_s": round(reference_total, 3),
        "speedup": round(speedup, 2),
        "smoke": SMOKE,
    }
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print_header("Data-plane throughput (event-segmented engines)")
    print(f"  corpus: {WALKS} walk(s) x {WALK_MIN} min, {ticks} ticks")
    print(
        f"  TCP     {timer['tcp_fast']:6.2f}s  (tick loop {timer['tcp_reference']:6.2f}s, "
        f"{timer['tcp_reference'] / timer['tcp_fast']:.1f}x, {tcp_ticks} ticks)"
    )
    print(
        f"  player  {timer['player_fast']:6.2f}s  (tick loop {timer['player_reference']:6.2f}s, "
        f"{timer['player_reference'] / timer['player_fast']:.1f}x; "
        f"{workers} workers {timer['player_fanout']:.2f}s)"
    )
    print(
        f"  Prognos {timer['prognos_fast']:6.2f}s  (tick loop {timer['prognos_reference']:6.2f}s, "
        f"{timer['prognos_reference'] / timer['prognos_fast']:.1f}x, "
        f"{prognos_steps} steps)"
    )
    print(f"  dataset cache: cold {cold_s:.2f}s, warm {warm_s * 1000:.0f} ms ({cache.stats})")
    print(
        f"  combined {fast_total:.2f}s vs reference {reference_total:.2f}s "
        f"-> {speedup:.2f}x"
    )
    print(f"  -> {OUT_PATH.name}")

    if not SMOKE:
        # Acceptance: the event-segmented data plane is >= 3x the
        # retained scalar references, cold cache, combined.
        assert speedup >= 3.0, f"data-plane speedup {speedup:.2f}x below 3x"
        # Warm dataset loads must skip feature extraction entirely.
        if cache.enabled:
            assert warm_s < cold_s / 5
