"""Prediction-pipeline throughput: batched/vectorized vs scalar, cache.

Measures the §7.3 Table 3 / Fig. 18 prediction path on a fixed walk
corpus: dataset build (array-at-once features + searchsorted labels vs
the retained per-tick scalar extraction), GBC and stacked-LSTM training
(mini-batch BPTT vs the per-sample reference), model evaluation
(batched vs per-sample inference), Prognos streaming throughput, and
the trained-model cache's ability to skip retraining on a warm second
pass. Results land in ``BENCH_prediction.json`` at the repo root.

``REPRO_BENCH_SMOKE=1`` shrinks the corpus so the whole bench fits in a
CI smoke budget.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core.evaluation import configs_for_log, run_prognos_over_logs
from repro.ml.features import (
    LabeledDataset,
    _tick_radio_features,
    build_location_sequence_dataset,
    build_radio_feature_dataset,
    label_for_tick,
    train_test_split_by_time,
    upsample_positives,
)
from repro.ml.gbc import GradientBoostingClassifier
from repro.ml.lstm import StackedLstmClassifier
from repro.ml.model_cache import ModelCache, fit_cached
from repro.perf import Timer
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import city_walk_scenario

from conftest import print_header

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
WALKS = 1 if SMOKE else 2
WALK_MIN = 4 if SMOKE else 12
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_prediction.json"


def _build_radio_dataset_reference(logs) -> LabeledDataset:
    """The seed's per-tick scalar dataset build (scan labelling)."""
    from repro.ml.features import log_time_offsets

    rows, labels, times = [], [], []
    for log, offset in zip(logs, log_time_offsets(logs)):
        slope_ticks = max(int(1.0 / max(log.tick_interval_s, 1e-3)), 1)
        for index in range(0, len(log.ticks), 5):
            tick = log.ticks[index]
            rows.append(_tick_radio_features(log.ticks, index, slope_ticks))
            labels.append(label_for_tick(log, tick.time_s, 1.0))
            times.append(tick.time_s + offset)
    return LabeledDataset(np.array(rows), labels, np.array(times))


def test_prediction_throughput(corpus):
    logs = run_drives(
        [
            city_walk_scenario(OPX, (BandClass.MMWAVE,), duration_min=WALK_MIN, seed=261 + i)
            for i in range(WALKS)
        ],
        store=corpus.store,
    )
    ticks = sum(len(log.ticks) for log in logs)
    timer = Timer()

    # --- dataset build: array-at-once vs retained scalar extraction ---
    build_fast_s, dataset = timer.timed(
        "dataset_build", lambda: build_radio_feature_dataset(logs, stride=5)
    )
    build_ref_s, dataset_ref = timer.timed(
        "dataset_build_reference", lambda: _build_radio_dataset_reference(logs)
    )
    assert np.allclose(dataset.x, dataset_ref.x)
    assert dataset.labels == dataset_ref.labels

    seq_build_s, seq_dataset = timer.timed(
        "sequence_build",
        lambda: build_location_sequence_dataset(logs, stride=10)
    )

    # --- GBC training (shared column presort) + batched evaluation ---
    train, test = train_test_split_by_time(dataset, 0.6)
    x_train, y_train = upsample_positives(train.x, train.labels)
    gbc_train_s, gbc = timer.timed(
        "gbc_train",
        lambda: GradientBoostingClassifier(n_estimators=30, max_depth=3).fit(
            x_train, y_train
        )
    )
    gbc_eval_s, _ = timer.timed("gbc_eval", lambda: gbc.predict(test.x))

    # --- LSTM training: mini-batch BPTT vs per-sample reference ---
    seq_train, seq_test = train_test_split_by_time(seq_dataset, 0.6)
    x_seq, y_seq = seq_train.x, seq_train.labels
    cap = 400 if SMOKE else 2000
    if x_seq.shape[0] > cap:
        keep = np.linspace(0, x_seq.shape[0] - 1, cap).astype(int)
        x_seq = x_seq[keep]
        y_seq = [y_seq[i] for i in keep]
    epochs = 1 if SMOKE else 2
    lstm_train_s, lstm = timer.timed(
        "lstm_train",
        lambda: StackedLstmClassifier(hidden_dim=24, epochs=epochs).fit(x_seq, y_seq)
    )
    lstm_ref_s, _ = timer.timed(
        "lstm_train_reference",
        lambda: StackedLstmClassifier(hidden_dim=24, epochs=epochs, batch_size=1).fit(
            x_seq, y_seq
        )
    )
    lstm_eval_s, probs = timer.timed(
        "lstm_eval", lambda: lstm.predict_proba(seq_test.x)
    )
    lstm_eval_ref_s, probs_ref = timer.timed(
        "lstm_eval_reference",
        lambda: lstm.predict_proba_reference(seq_test.x)
    )
    assert np.allclose(probs, probs_ref, atol=1e-9)

    # --- Prognos streaming replay (Fig. 18 path) ---
    configs = configs_for_log(OPX, (BandClass.MMWAVE,))
    prognos_s, run = timer.timed(
        "prognos", lambda: run_prognos_over_logs(logs, configs, stride=2)
    )
    prognos_steps = len(run.predictions)

    # --- cold vs reference totals over the Table 3 offline path ---
    cold_total = build_fast_s + seq_build_s + gbc_train_s + gbc_eval_s + lstm_train_s + lstm_eval_s
    reference_total = (
        build_ref_s + seq_build_s + gbc_train_s + gbc_eval_s + lstm_ref_s + lstm_eval_ref_s
    )
    speedup = reference_total / cold_total

    # --- warm pass: the trained-model cache skips retraining ---
    cache = ModelCache()
    params = {"hidden_dim": 24, "epochs": epochs}
    fit_cached(
        "lstm",
        lambda: StackedLstmClassifier(hidden_dim=24, epochs=epochs),
        x_seq,
        y_seq,
        params,
        cache=cache,
    )
    warm_s, _ = timer.timed(
        "warm_model_cache",
        lambda: fit_cached(
            "lstm",
            lambda: StackedLstmClassifier(hidden_dim=24, epochs=epochs),
            x_seq,
            y_seq,
            params,
            cache=cache,
        )
    )
    assert cache.enabled is False or cache.stats["hits"] >= 1

    result = {
        "walks": WALKS,
        "walk_minutes": WALK_MIN,
        "ticks": ticks,
        "train_sequences": int(len(y_seq)),
        "dataset_rows": int(dataset.x.shape[0]),
        "build_s": round(build_fast_s, 3),
        "build_reference_s": round(build_ref_s, 3),
        "gbc_train_s": round(gbc_train_s, 3),
        "gbc_eval_s": round(gbc_eval_s, 3),
        "gbc_rows_per_s_train": round(x_train.shape[0] / gbc_train_s, 1),
        "lstm_train_s": round(lstm_train_s, 3),
        "lstm_train_reference_s": round(lstm_ref_s, 3),
        "lstm_train_speedup": round(lstm_ref_s / lstm_train_s, 2),
        "lstm_seqs_per_s_train": round(len(y_seq) * epochs / lstm_train_s, 1),
        "lstm_eval_s": round(lstm_eval_s, 3),
        "lstm_eval_reference_s": round(lstm_eval_ref_s, 3),
        "prognos_s": round(prognos_s, 3),
        "prognos_steps": prognos_steps,
        "prognos_steps_per_s": round(prognos_steps / prognos_s, 1),
        "cold_total_s": round(cold_total, 3),
        "reference_total_s": round(reference_total, 3),
        "speedup": round(speedup, 2),
        "warm_model_cache_s": round(warm_s, 4),
        "model_cache_stats": cache.stats,
        "smoke": SMOKE,
    }
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print_header("Prediction pipeline throughput (§7.3 path)")
    print(f"  corpus: {WALKS} walk(s) x {WALK_MIN} min, {ticks} ticks")
    print(
        f"  dataset build   {build_fast_s:6.2f}s  (scalar reference {build_ref_s:6.2f}s)"
    )
    print(f"  GBC train/eval  {gbc_train_s:6.2f}s / {gbc_eval_s:5.2f}s")
    print(
        f"  LSTM train      {lstm_train_s:6.2f}s  (per-sample {lstm_ref_s:6.2f}s, "
        f"{lstm_ref_s / lstm_train_s:.1f}x)"
    )
    print(
        f"  LSTM eval       {lstm_eval_s:6.2f}s  (per-sample {lstm_eval_ref_s:6.2f}s)"
    )
    print(
        f"  Prognos stream  {prognos_s:6.2f}s  ({prognos_steps / prognos_s:,.0f} steps/s)"
    )
    print(
        f"  cold path {cold_total:.2f}s vs reference {reference_total:.2f}s "
        f"-> {speedup:.2f}x"
    )
    print(f"  warm model cache: {warm_s * 1000:.0f} ms ({cache.stats})")
    print(f"  -> {OUT_PATH.name}")

    if not SMOKE:
        # Acceptance: the batched/vectorized prediction path is >= 3x
        # the retained scalar reference, cold cache.
        assert speedup >= 3.0, f"prediction speedup {speedup:.2f}x below 3x"
        # Warm runs must skip retraining entirely.
        if cache.enabled:
            assert warm_s < lstm_train_s / 10
