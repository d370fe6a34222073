"""End-to-end benchmark of the reproduction: ingest, replay and serve.

Run from the repository root::

    python3 perfbench/run.py --c-ref 0.0035 --workload replay --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``ingest``, ``replay`` or ``serve`` (see the
module docstrings of ``perfbench/<workload>.py``), or ``all`` to run
the three in turn. The program under test is imported from ``src/``.

Every timing is in *reference* seconds: each call into the library is
bracketed by a calibration kernel on its pinned core and rescaled to
a core where that kernel takes ``--c-ref`` seconds (``calib.py``).

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` the operations
alternate between untraced and traced, the traced ones record spans
around each layer's public entry points (``spans.py``), and the last
line carries the per-layer metrics instead. Before it, a table lists
every metric with its unit and sample count, and one JSON line gives
the run envelope. Traced runs also write their spans to
``.perfbench/spans-<workload>-seed<n>.jsonl.gz``.

Exit status is 0 when the run completed (whether or not every
operation passed its correctness check: failures are counted in
``failed`` and ``ok_frac``); set-up errors, such as the library not
being importable, exit non-zero without a result line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
from common import OpOutcome  # noqa: E402
from spans import SpanRecorder  # noqa: E402

WORKLOADS = ("ingest", "replay", "serve")
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3
WORK_DIR = Path(".perfbench")

#: name -> unit, in report order. Every run reports all of them.
#: ``setup_s`` is in reference seconds like every other timing, but its
#: unit is written ``s``: that is the unit BENCHMARK.json must give set-up time.
END_TO_END = {
    "setup_s": "s",
    "ticks_per_s": "1/ref-s",
    "op_p50_s": "ref-s",
    "tick_p50_ms": "ref-ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
PER_LAYER = {
    "simulate.busy_s": "ref-s",
    "simulate.ticks": "count",
    "simulate.handovers": "count",
    "simulate.share": "fraction",
    "columnar.busy_s": "ref-s",
    "corpus.append_s": "ref-s",
    "corpus.append_bytes": "bytes",
    "corpus.put_failures": "count",
    "corpus.open_s": "ref-s",
    "corpus.hit_ratio": "fraction",
    "corpus.share": "fraction",
    "ml.dataset_s": "ref-s",
    "ml.gbc_fit_s": "ref-s",
    "ml.lstm_fit_s": "ref-s",
    "ml.rows": "count",
    "ml.share": "fraction",
    "forecast.busy_s": "ref-s",
    "forecast.calls": "count",
    "forecast.share": "fraction",
    "learner.busy_s": "ref-s",
    "learner.calls": "count",
    "learner.share": "fraction",
    "replay.other_s": "ref-s",
    "analysis.busy_s": "ref-s",
    "loadgen.hello_ms": "ref-ms",
    "serve.tick_p90_ms": "ref-ms",
    "serve.tick_p99_ms": "ref-ms",
    "serve.tick_samples": "count",
    "serve.answered_ratio": "fraction",
    "serve.dropped": "count",
    "serve.lost": "count",
    "protocol.decode_us": "ref-us",
    "protocol.encode_us": "ref-us",
    "engine.begin_us": "ref-us",
    "engine.forecast_us": "ref-us",
    "engine.learner_us": "ref-us",
    "engine.abr_us": "ref-us",
    "transport.wait_us": "ref-us",
    "calib.speed": "ratio",
    "raw.wall_s": "s",
    "trace.overhead": "ratio",
    "op.samples": "count",
}


@dataclass
class OpRecord:
    op_id: int
    traced: bool
    ref_s: float
    raw_s: float
    ticks: int
    ok: bool
    tick_ms: list


def git_sha() -> str:
    """HEAD of a git checkout in the working directory, read without git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def isolate_environment(work: Path) -> None:
    """Drop every ``REPRO_*`` knob and point the caches at ``work``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_NO_CACHE"] = "1"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, clock: calib.Clock, recorder, seconds: float, trace: bool):
    """Operations until ``seconds`` have passed; alternate traced ones."""
    records: list[OpRecord] = []
    deadline = time.monotonic() + seconds
    op_id = 0
    while True:
        op_id += 1
        traced = trace and op_id % 2 == 0
        ref0, raw0 = clock.ref_total, clock.raw_total
        if traced:
            recorder.op = op_id
            clock.recorder = recorder
            recorder.install()
        try:
            outcome = workload.op(clock, op_id)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = OpOutcome(ticks=0, ok=False, why="exception")
        finally:
            if traced:
                recorder.uninstall()
                clock.recorder = None
        if not outcome.ok:
            print(f"op {op_id} failed: {outcome.why}", file=sys.stderr)
        records.append(
            OpRecord(
                op_id,
                traced,
                clock.ref_total - ref0,
                clock.raw_total - raw0,
                outcome.ticks,
                outcome.ok,
                outcome.tick_ms,
            )
        )
        if traced and not workload.diagnose(clock, op_id):
            print(f"op {op_id} failed its traced diagnosis", file=sys.stderr)
            records[-1].ok = False
        enough = len(records) >= (2 if trace else 1)
        if enough and time.monotonic() >= deadline:
            return records


def ticks_per_s(records: list[OpRecord]) -> float:
    """Median over operations of ticks per reference second.

    A median of per-operation rates rather than a ratio of sums, so one
    stalled operation cannot move the figure.
    """
    rates = [r.ticks / r.ref_s for r in records if r.ref_s > 0]
    return statistics.median(rates) if rates else 0.0


def end_to_end_metrics(workload, records, setup_s: float) -> dict:
    # Measured round trips where the workload has them (serve), else
    # each operation's time per tick.
    per_tick = [ms for r in records for ms in r.tick_ms] or [
        r.ref_s * 1e3 / r.ticks for r in records if r.ticks
    ]
    return {
        "setup_s": setup_s,
        "ticks_per_s": ticks_per_s(records),
        "op_p50_s": statistics.median(r.ref_s for r in records),
        "tick_p50_ms": statistics.median(per_tick),
        "peak_rss_mb": peak_rss_mb() + workload.extra_rss_mb(),
        "ok_frac": sum(r.ok for r in records) / len(records),
    }, {"op_p50_s": len(records), "tick_p50_ms": len(per_tick)}


def per_layer_metrics(workload, records, clock, recorder) -> dict:
    untraced = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(workload.layer_metrics(recorder, traced))
    metrics["calib.speed"] = statistics.median(clock.speed())
    metrics["raw.wall_s"] = statistics.median(r.raw_s for r in untraced)
    traced_rate = ticks_per_s(traced)
    metrics["trace.overhead"] = ticks_per_s(untraced) / traced_rate if traced_rate else 0.0
    metrics["op.samples"] = len(records)
    return metrics


def envelope(args, workload, clock: calib.Clock, cores: list[int]) -> dict:
    import numpy

    speeds = sorted(clock.speed())
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cores_allowed": cores,
        "pinning": workload.pinning,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": "smoke" if args.smoke else "full",
        "c_ref": clock.c_ref,
        "calib_speed": {
            "n": len(speeds),
            "min": speeds[0],
            "quartiles": calib.quartiles(speeds),
            "max": speeds[-1],
        },
    }


def run_one(args, name: str, work: Path) -> dict:
    """Set up, measure and tear down one workload; returns its result."""
    cores = calib.allowed_cores()
    calib.pin(cores[0])
    module = importlib.import_module(name)
    clock = calib.Clock(args.c_ref)
    recorder = SpanRecorder()
    ref0 = clock.ref_total
    clock.timed(module.import_layers)
    import_s = clock.ref_total - ref0
    workload = module.Workload(args.seed, work, cores, smoke=args.smoke)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            ref0 = clock.ref_total
            workload.setup(clock)
            setups.append(clock.ref_total - ref0)
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            recorder.prepare(workload.trace_targets)
        records = run_ops(workload, clock, recorder, args.seconds, bool(args.trace))
    finally:
        teardown_ok = workload.close()
    if not teardown_ok:
        # A leaked process (e.g. an orphaned daemon) is a failed operation.
        records.append(OpRecord(len(records) + 1, False, 0.0, 0.0, 0, False, []))
    counts = {}
    if args.trace:
        metrics = per_layer_metrics(workload, records, clock, recorder)
        units = PER_LAYER
    else:
        metrics, counts = end_to_end_metrics(workload, records, setup_s)
        units = END_TO_END
    env = envelope(args, workload, clock, cores)
    if args.trace:
        recorder.write(WORK_DIR / f"spans-{name}-seed{args.seed}.jsonl.gz", env)
    print(f"== {name} (seed {args.seed}, {len(records)} operations) ==")
    for key, unit in units.items():
        note = f"  (n={counts[key]})" if key in counts else ""
        print(f"{key:24s} {metrics[key]:14.6g} {unit}{note}")
    print(json.dumps({"envelope": env}))
    return {
        "correct": all(r.ok for r in records),
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--c-ref",
        type=float,
        required=True,
        help="reference calibration-kernel time in seconds (fixed in BENCHMARK.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="shrink every input (for quick checks)"
    )
    args = parser.parse_args(argv)

    if not Path("src/repro").is_dir():
        print("src/repro not found: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)).resolve()
    try:
        isolate_environment(work)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_one(args, name, work) for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{key}": value
                for name, r in zip(names, results)
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
