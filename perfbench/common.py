"""Types and helpers shared by the workload modules."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


@dataclass
class OpOutcome:
    """What one operation did; the harness adds its reference time."""

    ticks: int
    ok: bool
    why: str = ""
    #: Per-tick round trips in reference ms (``serve`` only).
    tick_ms: list = field(default_factory=list)


def drive_seed(seed: int, index: int) -> int:
    """Scenario seed of drive ``index`` for workload seed ``seed``."""
    return (seed * 101 + index) % 2**31


def layer_self_times(recorder, layers: dict) -> dict[str, dict[int, float]]:
    """Per layer (a set of span names), reference self seconds per op."""
    out: dict[str, dict[int, float]] = {layer: {} for layer in layers}
    for (op, name), seconds in recorder.self_times().items():
        for layer, names in layers.items():
            if name in names:
                out[layer][op] = out[layer].get(op, 0.0) + seconds
    return out


def median_over(by_op: dict, records) -> float:
    """Median over ``records`` of a per-op value (0 for ops without one)."""
    values = [by_op.get(r.op_id, 0.0) for r in records]
    return statistics.median(values) if values else 0.0


def share(by_op: dict, records) -> float:
    """Median over ``records`` of a per-op value as a share of the op's time."""
    values = [by_op.get(r.op_id, 0.0) / r.ref_s for r in records if r.ref_s > 0]
    return statistics.median(values) if values else 0.0


def counter(recorder, key: str) -> dict[int, float]:
    """One span counter (``"<span>.calls"`` or a count-function key) per op."""
    return {op: value for (op, name), value in recorder.counts.items() if name == key}


def _drive_counts(log) -> dict:
    return {"simulate.ticks": len(log.ticks), "simulate.handovers": len(log.handovers)}


def _dataset_rows(dataset) -> dict:
    return {"ml.rows": int(dataset.x.shape[0])}


#: Every traced run wraps every layer, so a layer a workload should not
#: touch shows up as zero rather than going unmeasured.
TRACE_TARGETS = [
    ("repro.simulate.scenarios", "Scenario.run", "simulate", _drive_counts),
    ("repro.simulate.records", "DriveLog.columnar", "columnar"),
    ("repro.simulate.corpus", "CorpusStore.append", "corpus.append"),
    ("repro.simulate.corpus", "CorpusStore.open_slice", "corpus.open"),
    ("repro.ml.features", "build_radio_feature_dataset", "ml.dataset", _dataset_rows),
    ("repro.ml.features", "build_location_sequence_dataset", "ml.dataset", _dataset_rows),
    ("repro.ml.gbc", "GradientBoostingClassifier.fit", "ml.gbc_fit"),
    ("repro.ml.lstm", "StackedLstmClassifier.fit", "ml.lstm_fit"),
    ("repro.core.report_predictor", "ReportPredictor.observe", "forecast"),
    ("repro.core.report_predictor", "ReportPredictor.predict_reports_batched", "forecast"),
    ("repro.core.prognos", "Prognos.step_with_forecast", "learner"),
    ("repro.core.prognos", "Prognos.observe_report", "learner"),
    ("repro.core.prognos", "Prognos.observe_command", "learner"),
    ("repro.core.evaluation", "run_prognos_over_logs", "replay"),
    ("repro.analysis.frequency", "frequency_breakdown", "analysis"),
    ("repro.analysis.duration", "duration_breakdown", "analysis"),
    ("repro.analysis.coverage", "coverage_summary", "analysis"),
    ("repro.analysis.energy", "energy_breakdown", "analysis"),
]

LAYERS = {
    "simulate": {"simulate"},
    "columnar": {"columnar"},
    "corpus.append": {"corpus.append"},
    "corpus.open": {"corpus.open"},
    "corpus": {"columnar", "corpus.append", "corpus.open"},
    "ml.dataset": {"ml.dataset"},
    "ml.gbc_fit": {"ml.gbc_fit"},
    "ml.lstm_fit": {"ml.lstm_fit"},
    "ml": {"ml.dataset", "ml.gbc_fit", "ml.lstm_fit"},
    "forecast": {"forecast"},
    "learner": {"learner"},
    "replay": {"replay"},
    "analysis": {"analysis"},
}


def span_metrics(recorder, traced) -> dict[str, float]:
    """The per-layer metrics every library workload derives from spans."""
    t = layer_self_times(recorder, LAYERS)

    def count(key: str) -> float:
        return median_over(counter(recorder, key), traced)

    return {
        "simulate.busy_s": median_over(t["simulate"], traced),
        "simulate.ticks": count("simulate.ticks"),
        "simulate.handovers": count("simulate.handovers"),
        "simulate.share": share(t["simulate"], traced),
        "columnar.busy_s": median_over(t["columnar"], traced),
        "corpus.append_s": median_over(t["corpus.append"], traced),
        "corpus.open_s": median_over(t["corpus.open"], traced),
        "corpus.share": share(t["corpus"], traced),
        "ml.dataset_s": median_over(t["ml.dataset"], traced),
        "ml.gbc_fit_s": median_over(t["ml.gbc_fit"], traced),
        "ml.lstm_fit_s": median_over(t["ml.lstm_fit"], traced),
        "ml.rows": count("ml.rows"),
        "ml.share": share(t["ml"], traced),
        "forecast.busy_s": median_over(t["forecast"], traced),
        "forecast.calls": count("forecast.calls"),
        "forecast.share": share(t["forecast"], traced),
        "learner.busy_s": median_over(t["learner"], traced),
        "learner.calls": count("learner.calls"),
        "learner.share": share(t["learner"], traced),
        "replay.other_s": median_over(t["replay"], traced),
        "analysis.busy_s": median_over(t["analysis"], traced),
    }
