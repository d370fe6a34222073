"""``serve``: closed-loop UE sessions against a forked serving daemon.

The latency workload for the online path: protocol framing, the asyncio
transport and the per-tick engine dominate, and with two sessions a
micro-batch holds at most two ticks. The daemon is forked by
``spawn_server(ServerConfig(shards=1))`` and pinned to the second
allowed core; the benchmark process, which runs ``run_load`` with two
closed-loop sessions (each waits for its prediction before sending the
next tick), stays on the first. One operation is one burst: each
session replays the first 480 ticks of its seeded 1.1 km OpX
low-band freeway drive from hello to bye. The calibration kernel runs on both cores before and after the
burst, and the burst is scaled by the geometric mean of the four
readings.

Correctness: every session's prediction stream equals the offline
``run_prognos_over_logs`` replay of its drive, and every bye reports
``answered == n_ticks`` with nothing dropped or lost. A daemon that does
not exit cleanly at teardown counts as one more failed operation.

Traced bursts also time connect-to-welcome per session, and after each
one the same scripts are replayed in-process through the public API
(``decode_tick``, ``ServingSession.begin_tick``, ``forecast_batch``,
``ServingSession.finish_tick``, ABR selection, ``encode_prediction``)
to split the per-tick round trip into engine stages and transport wait.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time

import numpy as np

import calib
import common
from common import OpOutcome

SESSIONS = 2
DRIVE_KM = 1.1
#: Every session is cut to this many ticks, so a burst does the same
#: work whatever the seed (a 1.1 km drive runs 558-665 ticks over seeds 1-60).
TICKS_PER_SESSION = 480


def import_layers() -> None:
    import repro.core.evaluation  # noqa: F401
    import repro.ran  # noqa: F401
    import repro.serve.loadgen  # noqa: F401
    import repro.serve.session  # noqa: F401
    import repro.simulate.scenarios  # noqa: F401


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Workload:
    trace_targets = common.TRACE_TARGETS

    def __init__(self, seed: int, work, cores, *, smoke: bool = False):
        self.seed = seed
        self.scale = 0.25 if smoke else 1.0
        self.client_core = cores[0]
        self.server_core = cores[1] if len(cores) > 1 else cores[0]
        self.pinning = (
            f"loadgen on core {self.client_core}, daemon on core {self.server_core}"
        )
        self.pid: int | None = None
        self.port = 0
        self.daemon_hwm_mb = 0.0
        self.teardown_failures = 0
        self.scripts: list = []
        self.oracle: list = []
        self.configs: list = []
        #: Per burst: byes, and (traced bursts) hello latencies in ref ms.
        self.byes: list[dict] = []
        self.hello_ms: list[float] = []
        self.tick_ms: list[float] = []
        self.stage_us: dict[int, dict[str, float]] = {}

    # -- set-up ---------------------------------------------------------------

    def _drives(self) -> list:
        from repro.radio.bands import BandClass
        from repro.ran import OPX
        from repro.simulate.scenarios import freeway_scenario

        km = DRIVE_KM * self.scale
        return [
            freeway_scenario(OPX, BandClass.LOW, length_km=km, seed=common.drive_seed(self.seed, i)).run()
            for i in range(SESSIONS)
        ]

    def _scripts_and_oracle(self, logs) -> tuple[list, list]:
        from repro.core import evaluation
        from repro.serve.loadgen import build_script

        ticks = int(TICKS_PER_SESSION * self.scale)
        scripts = [
            build_script(log, f"ue-{i}", self.configs, max_ticks=ticks)
            for i, log in enumerate(logs)
        ]
        oracle = []
        for log, script in zip(logs, scripts):
            offline = evaluation.run_prognos_over_logs([log], self.configs, workers=1)
            stream = list(zip(offline.times_s.tolist(), offline.predictions))
            oracle.append(stream[: script.n_ticks])
        return scripts, oracle

    def _spawn(self) -> None:
        from repro.serve.loadgen import spawn_server
        from repro.serve.server import ServerConfig

        calib.pin(self.server_core)
        try:
            self.pid, self.port = spawn_server(ServerConfig(shards=1))
        finally:
            calib.pin(self.client_core)
        os.sched_setaffinity(self.pid, {self.server_core})

    def setup(self, clock) -> None:
        """Drives, scripts, offline oracle, daemon, one warm-up burst."""
        from repro.core.evaluation import configs_for_log
        from repro.radio.bands import BandClass
        from repro.ran import OPX

        self._stop()
        self.configs = configs_for_log(OPX, (BandClass.LOW,))
        _, logs = clock.timed(self._drives)
        _, (self.scripts, self.oracle) = clock.timed(self._scripts_and_oracle, logs)
        clock.timed(self._spawn)
        self._burst(clock, 0)
        self.byes.clear()
        self.tick_ms.clear()
        self.hello_ms.clear()

    # -- one burst --------------------------------------------------------------

    def _readings(self, clock) -> list[float]:
        """One calibration reading on each core (the daemon is idle)."""
        out = [clock.reading()]
        if self.server_core != self.client_core:
            calib.pin(self.server_core)
            try:
                out.append(clock.reading())
            finally:
                calib.pin(self.client_core)
        return out

    def _burst(self, clock, op_id: int):
        from repro.serve import loadgen

        scripts = [
            dataclasses.replace(
                s,
                session_id=f"{s.session_id}-{op_id}",
                hello={**s.hello, "session": f"{s.session_id}-{op_id}"},
            )
            for s in self.scripts
        ]
        traced = clock.recorder is not None
        opened: dict[int, int] = {}
        hello_ns: list[int] = []
        original_open, original_welcome = loadgen._open_socket, loadgen._handle_welcome

        def open_socket(sel, client):
            opened.setdefault(id(client), time.perf_counter_ns())
            return original_open(sel, client)

        def handle_welcome(sel, client, message):
            start = opened.pop(id(client), None)
            if start is not None:
                hello_ns.append(time.perf_counter_ns() - start)
            return original_welcome(sel, client, message)

        before = self._readings(clock)
        if traced:
            loadgen._open_socket, loadgen._handle_welcome = open_socket, handle_welcome
        t0 = time.perf_counter()
        try:
            result = loadgen.run_load(self.port, scripts, collect=True, timeout_s=60.0)
        finally:
            raw = time.perf_counter() - t0
            loadgen._open_socket, loadgen._handle_welcome = original_open, original_welcome
            after = self._readings(clock)
        factor = clock.scale(*before, *after)
        clock.add(raw, factor)
        tick_ms = [ns / 1e6 * factor for ns in result.latencies_ns]
        self.tick_ms.extend(tick_ms)
        self.hello_ms.extend(ns / 1e6 * factor for ns in hello_ns)
        self.byes.extend(result.byes.get(s.session_id) or {} for s in scripts)
        return scripts, result, tick_ms

    def op(self, clock, op_id: int) -> OpOutcome:
        scripts, result, tick_ms = self._burst(clock, op_id)
        ticks = len(tick_ms)
        for script, expected in zip(scripts, self.oracle):
            got = result.predictions.get(script.session_id, [])
            if [(p[0], p[1]) for p in got] != expected:
                return OpOutcome(ticks, False, f"{script.session_id}: stream differs", tick_ms)
            bye = result.byes.get(script.session_id)
            if (
                bye is None
                or bye.get("answered") != script.n_ticks
                or bye.get("dropped") != 0
                or bye.get("lost") != 0
            ):
                return OpOutcome(ticks, False, f"{script.session_id}: bad bye {bye}", tick_ms)
        return OpOutcome(ticks, True, tick_ms=tick_ms)

    # -- traced diagnosis: the engine stages in-process -------------------------

    def _inprocess(self) -> tuple[dict[str, int], int, list]:
        from repro.apps.abr.algorithms import mpc_select_many
        from repro.serve import protocol
        from repro.serve.forecast import forecast_batch
        from repro.serve.protocol import FrameDecoder
        from repro.serve.session import ServingSession

        ns = time.perf_counter_ns
        stage = dict.fromkeys(("decode", "begin", "forecast", "learner", "abr", "encode"), 0)
        sessions = [
            ServingSession(s.session_id, self.configs, levels_mbps=s.levels_mbps, chunk_s=s.chunk_s)
            for s in self.scripts
        ]
        streams: list[list] = [[] for _ in self.scripts]
        ticks = 0
        for pos in range(max(s.n_ticks for s in self.scripts)):
            live = [k for k, s in enumerate(self.scripts) if pos < s.n_ticks]
            decoded = {}
            t = ns()
            for k in live:
                events, tick = [], None
                for payload in FrameDecoder().feed(bytes(self.scripts[k].steps[pos][0])):
                    tag = payload[:1]
                    if tag == b"T":
                        tick = protocol.decode_tick(payload)
                    elif tag == b"R":
                        events.append(("R", protocol.decode_report(payload)))
                    else:
                        events.append(("C", protocol.decode_command(payload)))
                decoded[k] = (events, tick)
            stage["decode"] += ns() - t
            t = ns()
            for k in live:
                for kind, args in decoded[k][0]:
                    if kind == "R":
                        sessions[k].observe_report(*args)
                    else:
                        sessions[k].observe_command(*args)
            stage["learner"] += ns() - t
            t = ns()
            jobs = []
            for k in live:
                tick = decoded[k][1]
                jobs.append((sessions[k].forecaster, sessions[k].begin_tick(*tick[:5])))
            stage["begin"] += ns() - t
            t = ns()
            forecasts = forecast_batch(jobs)
            stage["forecast"] += ns() - t
            t = ns()
            predictions = []
            for k, forecast in zip(live, forecasts):
                tick = decoded[k][1]
                predictions.append(sessions[k].finish_tick(tick[0], tick[2], forecast))
            stage["learner"] += ns() - t
            t = ns()
            rows = [sessions[k].abr_entry(*decoded[k][1][6:9]) for k in live]
            rows = [row for row in rows if row is not None]
            if rows:
                mpc_select_many(rows)
            stage["abr"] += ns() - t
            t = ns()
            for k, prediction in zip(live, predictions):
                tick = decoded[k][1]
                protocol.encode_prediction(
                    tick[0],
                    prediction.ho_type,
                    prediction.ho_score,
                    prediction.similarity,
                    prediction.lead_time_s,
                    -1,
                    0,
                    pos + 1,
                )
            stage["encode"] += ns() - t
            for k, prediction in zip(live, predictions):
                streams[k].append((decoded[k][1][0], prediction.ho_type))
            ticks += len(live)
        return stage, ticks, streams

    def diagnose(self, clock, op_id: int) -> bool:
        before = clock.reading()
        stage, ticks, streams = self._inprocess()
        factor = clock.scale(before, clock.reading())
        self.stage_us[op_id] = {
            name: total / 1e3 / ticks * factor for name, total in stage.items()
        }
        return streams == self.oracle

    # -- metrics and teardown -------------------------------------------------

    def layer_metrics(self, recorder, traced) -> dict:
        metrics = common.span_metrics(recorder, traced)
        ticks = self.tick_ms
        p90, p99 = np.percentile(ticks, [90.0, 99.0]) if ticks else (0.0, 0.0)

        def stage(name: str) -> float:
            return statistics.median(v[name] for v in self.stage_us.values())

        in_process_us = sum(stage(name) for name in next(iter(self.stage_us.values())))
        answered = sum(b.get("answered", 0) for b in self.byes)
        sent = sum(b.get("ticks", 0) for b in self.byes)
        metrics.update(
            {
                "loadgen.hello_ms": statistics.median(self.hello_ms),
                "serve.tick_p90_ms": float(p90),
                "serve.tick_p99_ms": float(p99),
                "serve.tick_samples": len(ticks),
                "serve.answered_ratio": answered / sent if sent else 0.0,
                "serve.dropped": sum(b.get("dropped", 0) for b in self.byes),
                "serve.lost": sum(b.get("lost", 0) for b in self.byes),
                "protocol.decode_us": stage("decode"),
                "protocol.encode_us": stage("encode"),
                "engine.begin_us": stage("begin"),
                "engine.forecast_us": stage("forecast"),
                "engine.learner_us": stage("learner"),
                "engine.abr_us": stage("abr"),
                "transport.wait_us": statistics.median(ticks) * 1e3 - in_process_us,
            }
        )
        return metrics

    def extra_rss_mb(self) -> float:
        return self.daemon_hwm_mb

    def _stop(self) -> None:
        from repro.serve.loadgen import stop_server

        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        self.daemon_hwm_mb = _vm_hwm_mb(pid)
        code = stop_server(pid)
        try:
            os.kill(pid, 0)
            alive = True
        except ProcessLookupError:
            alive = False
        if code != 0 or alive:
            self.teardown_failures += 1

    def close(self) -> bool:
        """Stop the daemon; False if any daemon failed to exit cleanly."""
        self._stop()
        return self.teardown_failures == 0
