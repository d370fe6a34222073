"""``ingest``: simulate a mixed drive set into a cold corpus and train on it.

The workload where the simulator does most of the work and store writes
happen; forecasting, the online learner and serving do nothing. One
operation:

1. simulates four seeded drives: OpX low-band freeway, OpY mid-band
   freeway, OpX mmWave freeway and an OpX mmWave city walk (band and
   carrier vary cell density and handover rate);
2. packs each with ``DriveLog.columnar()`` and appends it to a fresh
   ``CorpusStore``;
3. evaluates the Table 3 baselines ``evaluate_gbc`` and a small
   ``evaluate_lstm`` with the dataset and model caches disabled.

Correctness: every drive's ``content_digest()`` equals the digest the
set-up warm-up produced for the same seed and index, ``open_slice``
reads every drive back bit-identically, and both Table 3 reports equal
the set-up reports for the same inputs. Set-up also re-simulates the
mmWave freeway drive through the retained scalar simulator and checks
the warm-up against it (discrete columns exact, floats within 1e-6); if
that fails, every operation fails.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile

import numpy as np

import common
from common import OpOutcome

#: (carrier, band, kind, size): km for freeway drives, minutes for walks.
DRIVES = [
    ("OPX", "LOW", "freeway", 3.0),
    ("OPY", "MID", "freeway", 3.0),
    ("OPX", "MMWAVE", "freeway", 1.0),
    ("OPX", "MMWAVE", "walk", 3.0),
]
#: Index of the drive also simulated by the scalar reference in set-up.
SCALAR_CHECKED = 2
GBC_STRIDE = 10
LSTM_EPOCHS = 1
LSTM_SEQUENCES = 400


def import_layers() -> None:
    import repro.core.evaluation  # noqa: F401
    import repro.ml.dataset_cache  # noqa: F401
    import repro.ml.model_cache  # noqa: F401
    import repro.ran  # noqa: F401
    import repro.simulate.corpus  # noqa: F401
    import repro.simulate.scenarios  # noqa: F401


class Workload:
    pinning = "one process on the first allowed core"
    trace_targets = common.TRACE_TARGETS

    def __init__(self, seed: int, work, cores, *, smoke: bool = False):
        self.seed = seed
        self.work = work
        self.scale = 0.25 if smoke else 1.0
        self.scenarios: list = []
        self.oracle: dict | None = None
        self.append_bytes: dict[int, int] = {}
        self.put_failures: dict[int, int] = {}

    def _build_scenarios(self) -> list:
        from repro import ran
        from repro.radio.bands import BandClass
        from repro.simulate.scenarios import city_walk_scenario, freeway_scenario

        scenarios = []
        for index, (carrier, band, kind, size) in enumerate(DRIVES):
            seed = common.drive_seed(self.seed, index)
            profile, band_class = getattr(ran, carrier), BandClass[band]
            if kind == "freeway":
                scenarios.append(
                    freeway_scenario(
                        profile, band_class, length_km=size * self.scale, seed=seed
                    )
                )
            else:
                scenarios.append(
                    city_walk_scenario(
                        profile, (band_class,), duration_min=size * self.scale, seed=seed
                    )
                )
        return scenarios

    @staticmethod
    def _scalar_arrays(scenario) -> dict:
        config = dataclasses.replace(scenario.config, vectorized_radio=False)
        return dataclasses.replace(scenario, config=config).run().columnar().arrays

    @staticmethod
    def _matches_scalar(arrays: dict, scalar: dict) -> bool:
        for key, value in arrays.items():
            other = scalar[key]
            if value.shape != other.shape:
                return False
            if value.dtype.kind == "f":
                if not np.allclose(value, other, rtol=0.0, atol=1e-6, equal_nan=True):
                    return False
            elif not np.array_equal(value, other):
                return False
        return True

    def setup(self, clock) -> None:
        """Scenarios, then one warm-up operation whose outputs become the oracle."""
        _, self.scenarios = clock.timed(self._build_scenarios)
        self.oracle = self._run(clock)
        _, scalar = clock.timed(self._scalar_arrays, self.scenarios[SCALAR_CHECKED])
        self.oracle["scalar_ok"] = self._matches_scalar(
            self.oracle["arrays"], scalar
        )

    @staticmethod
    def _pack_and_append(store, logs) -> list:
        clogs = [log.columnar() for log in logs]
        for index, clog in enumerate(clogs):
            store.append(f"drive-{index}", clog)
        return clogs

    def _run(self, clock) -> dict:
        from repro.core import evaluation
        from repro.ml.dataset_cache import DatasetCache
        from repro.ml.model_cache import ModelCache
        from repro.simulate.corpus import CorpusStore

        logs = [clock.timed(scenario.run)[1] for scenario in self.scenarios]
        root = tempfile.mkdtemp(prefix="ingest-", dir=self.work)
        try:
            store = CorpusStore(root, enabled=True)
            _, clogs = clock.timed(self._pack_and_append, store, logs)
            caches = {
                "model_cache": ModelCache(root, enabled=False),
                "dataset_cache": DatasetCache(root, enabled=False),
            }
            _, gbc = clock.timed(evaluation.evaluate_gbc, logs, stride=GBC_STRIDE, **caches)
            _, lstm = clock.timed(
                evaluation.evaluate_lstm,
                logs,
                epochs=LSTM_EPOCHS,
                max_train_sequences=LSTM_SEQUENCES,
                **caches,
            )
            digests = [clog.content_digest() for clog in clogs]
            arrays = clogs[SCALAR_CHECKED].arrays
            read_back = []
            for index in range(len(clogs)):
                clog = store.open_slice(f"drive-{index}")
                read_back.append(None if clog is None else clog.content_digest())
            return {
                "ticks": sum(len(log.ticks) for log in logs),
                "arrays": arrays,
                "digests": digests,
                "read_back": read_back,
                "reports": (repr(gbc), repr(lstm)),
                "bytes": store.bytes_indexed,
                "put_failures": store.put_failures,
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def op(self, clock, op_id: int) -> OpOutcome:
        out = self._run(clock)
        self.append_bytes[op_id] = out["bytes"]
        self.put_failures[op_id] = out["put_failures"]
        oracle = self.oracle
        if not oracle["scalar_ok"]:
            return OpOutcome(out["ticks"], False, "set-up drive disagrees with the scalar simulator")
        if out["digests"] != oracle["digests"]:
            return OpOutcome(out["ticks"], False, "drive digest differs from the oracle")
        if out["read_back"] != out["digests"]:
            return OpOutcome(out["ticks"], False, "open_slice did not round-trip")
        if out["reports"] != oracle["reports"]:
            return OpOutcome(out["ticks"], False, "Table 3 report differs from set-up")
        return OpOutcome(out["ticks"], True)

    def diagnose(self, clock, op_id: int) -> bool:
        return True

    def layer_metrics(self, recorder, traced) -> dict:
        metrics = common.span_metrics(recorder, traced)
        metrics["corpus.append_bytes"] = common.median_over(self.append_bytes, traced)
        metrics["corpus.put_failures"] = common.median_over(self.put_failures, traced)
        return metrics

    def extra_rss_mb(self) -> float:
        return 0.0

    def close(self) -> bool:
        return True
