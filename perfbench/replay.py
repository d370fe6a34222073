"""``replay``: Prognos over a stored 8-drive cohort, then the analyses.

The workload where the report forecaster and the online learner do most
of the work and the corpus store is only read; the simulator does
nothing. Set-up simulates eight OpX freeway drives, alternating
low-band and mmWave lengths so the cohort has ragged ends, into a
private ``CorpusStore``. One operation opens a fresh ``CorpusView``,
runs ``run_prognos_over_logs`` over all eight drives as one continuous
session (``workers=1``), then runs the ``analysis`` entry points
(``frequency_breakdown``, ``duration_breakdown``, ``coverage_summary``,
``energy_breakdown``) over the view.

Correctness: predictions, truths and lead times equal the set-up oracle
from ``run_prognos_over_logs_reference`` over the in-memory drives, and
every analysis output equals its set-up value (the list-scan
``*_reference`` functions where the library keeps one).
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile

import common
from common import OpOutcome

DRIVES = 8
#: (band, km) of even and odd drives.
EVEN = ("LOW", 1.5)
ODD = ("MMWAVE", 0.6)


def import_layers() -> None:
    import repro.analysis.coverage  # noqa: F401
    import repro.analysis.duration  # noqa: F401
    import repro.analysis.energy  # noqa: F401
    import repro.analysis.frequency  # noqa: F401
    import repro.core.evaluation  # noqa: F401
    import repro.ran  # noqa: F401
    import repro.simulate.corpus  # noqa: F401
    import repro.simulate.scenarios  # noqa: F401


def _analyses(logs):
    from repro.analysis import coverage, duration, energy, frequency
    from repro.rrc.taxonomy import HandoverType

    return (
        frequency.frequency_breakdown(logs),
        duration.duration_breakdown(logs),
        coverage.coverage_summary(logs),
        energy.energy_breakdown(logs, tuple(HandoverType)),
    )


def _analyses_oracle(logs):
    from repro.analysis import coverage, duration, energy, frequency
    from repro.rrc.taxonomy import HandoverType

    return (
        frequency.frequency_breakdown_reference(logs),
        duration.duration_breakdown(logs),
        coverage.coverage_summary(logs),
        energy.energy_breakdown_reference(logs, tuple(HandoverType)),
    )


def _canonical(value):
    """A comparable form of an analysis result: dict order ignored, NaN equal to NaN."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _canonical(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if hasattr(value, "tolist"):
        return _canonical(value.tolist())
    return repr(value)


def _replay_key(result) -> tuple:
    return (
        result.times_s.tolist(),
        result.predictions,
        result.truths,
        result.lead_times_s,
    )


class Workload:
    pinning = "one process on the first allowed core"
    trace_targets = common.TRACE_TARGETS

    def __init__(self, seed: int, work, cores, *, smoke: bool = False):
        self.seed = seed
        self.work = work
        self.scale = 0.25 if smoke else 1.0
        self.root: str | None = None
        self.ids: list[str] = []
        self.configs: list = []
        self.oracle: tuple | None = None
        self.hit_ratio: dict[int, float] = {}

    def _simulate(self) -> list:
        from repro.radio.bands import BandClass
        from repro.ran import OPX
        from repro.simulate.scenarios import freeway_scenario

        logs = []
        for index in range(DRIVES):
            band, km = EVEN if index % 2 == 0 else ODD
            seed = common.drive_seed(self.seed, index)
            scenario = freeway_scenario(OPX, BandClass[band], length_km=km * self.scale, seed=seed)
            logs.append(scenario.run())
        return logs

    def _store(self, logs) -> None:
        from repro.simulate.corpus import CorpusStore

        store = CorpusStore(self.root, enabled=True)
        for drive_id, log in zip(self.ids, logs):
            store.append(drive_id, log.columnar())

    def _oracle(self, logs) -> tuple:
        from repro.core import evaluation

        reference = evaluation.run_prognos_over_logs_reference(logs, self.configs)
        return _replay_key(reference), _canonical(_analyses_oracle(logs))

    def setup(self, clock) -> None:
        """Simulate and store the cohort, compute the oracle, warm up."""
        from repro.core.evaluation import configs_for_log
        from repro.radio.bands import BandClass
        from repro.ran import OPX

        self.close()
        self.root = tempfile.mkdtemp(prefix="replay-", dir=self.work)
        self.ids = [f"drive-{index}" for index in range(DRIVES)]
        self.configs = configs_for_log(OPX, (BandClass[EVEN[0]], BandClass[ODD[0]]))
        _, logs = clock.timed(self._simulate)
        clock.timed(self._store, logs)
        _, self.oracle = clock.timed(self._oracle, logs)
        self.op(clock, 0)

    def op(self, clock, op_id: int) -> OpOutcome:
        from repro.core import evaluation
        from repro.simulate.corpus import CorpusView, open_store

        store = open_store(self.root)
        hits, misses = store.hits, store.misses
        view = CorpusView(self.root, self.ids)
        _, result = clock.timed(
            evaluation.run_prognos_over_logs, view, self.configs, workers=1
        )
        _, analyses = clock.timed(_analyses, view)
        lookups = store.hits - hits + store.misses - misses
        self.hit_ratio[op_id] = (store.hits - hits) / lookups if lookups else 0.0
        steps = len(result.predictions)
        replay, analysis = self.oracle
        if _replay_key(result) != replay:
            return OpOutcome(steps, False, "replay differs from the reference oracle")
        if _canonical(analyses) != analysis:
            return OpOutcome(steps, False, "analysis output differs from set-up")
        return OpOutcome(steps, True)

    def diagnose(self, clock, op_id: int) -> bool:
        return True

    def layer_metrics(self, recorder, traced) -> dict:
        metrics = common.span_metrics(recorder, traced)
        metrics["corpus.hit_ratio"] = common.median_over(self.hit_ratio, traced)
        return metrics

    def extra_rss_mb(self) -> float:
        return 0.0

    def close(self) -> bool:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None
        return True
