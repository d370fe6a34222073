"""Serving-layer throughput: micro-batched engine vs per-session serving.

A forked :class:`~repro.serve.server.PrognosServer` is driven closed
loop by :mod:`repro.serve.loadgen`: every client replays a simulated
drive tick by tick over TCP (reports and handover commands interleaved
at their replay positions), pacing itself on the returned predictions
exactly like a UE-side Prognos client would. Both engine modes serve
the identical script set; the ``"dropped"`` accounting stays at zero so
every latency sample corresponds to a served tick.

Correctness is asserted unconditionally: each session's prediction
stream must be bit-identical to the offline
:func:`~repro.core.evaluation.run_prognos_over_logs` replay of its
drive, and the batched and sequential streams must agree on every field
(including the MPC bitrate decisions). The ≥3x sessions/sec gate runs
under the repo's usual timing-assert convention (multi-core, non-smoke).

``test_shard_scaling`` sweeps the multi-core serving layer
(:mod:`repro.serve.shard`): the same fixed session cohort against 1,
2, 4, and ``cpu_count()`` engine shard processes, load-generated from
a matching number of forked client processes, recording sessions/s,
latency percentiles, and scaling efficiency. Every swept run is held
to the same offline bit-identity bar.

Results land in ``BENCH_serving.json`` at the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks drives and cohort to a CI smoke budget.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from functools import partial
from pathlib import Path

from repro.core.evaluation import configs_for_log, run_prognos_over_logs
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.robust import faults
from repro.serve.loadgen import build_script, run_load, spawn_server, stop_server
from repro.serve.server import PrognosServer, ServerConfig
from repro.serve.shard import ShardedPrognosServer
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario

from conftest import print_header

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
DRIVES = 2 if SMOKE else 3
LENGTH_KM = 1.2 if SMOKE else 3.0
SESSIONS = 6 if SMOKE else 24
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def _run_mode(batched: bool, scripts):
    # shards pinned to 1: this comparison isolates the micro-batch
    # engine itself from multi-process scaling (swept separately below).
    pid, port = spawn_server(ServerConfig(batched=batched, shards=1))
    try:
        start = time.perf_counter()
        result = run_load(port, scripts, collect=True)
        wall_s = time.perf_counter() - start
    finally:
        exit_code = stop_server(pid)
    assert exit_code == 0, "serving daemon did not exit cleanly"
    assert result.failed == 0 and result.completed == len(scripts)
    for script in scripts:
        bye = result.byes[script.session_id]
        assert bye["answered"] == script.n_ticks
        assert bye["dropped"] == 0 and bye["lost"] == 0
    return result, wall_s


def test_serving_throughput(corpus):
    logs = run_drives(
        [
            freeway_scenario(OPX, BandClass.LOW, length_km=LENGTH_KM, seed=331 + i)
            for i in range(DRIVES)
        ],
        store=corpus.store,
    )
    configs = configs_for_log(OPX, (BandClass.LOW,))

    # Offline oracle per drive: the served stream must reproduce it.
    offline = []
    for log in logs:
        run = run_prognos_over_logs([log], configs)
        offline.append(
            [(float(t), p) for t, p in zip(run.times_s, run.predictions)]
        )

    scripts = [
        build_script(logs[i % DRIVES], f"ue-{i:03d}", configs)
        for i in range(SESSIONS)
    ]
    total_ticks = sum(s.n_ticks for s in scripts)

    by_mode = {}
    for mode in ("sequential", "batched"):
        result, wall_s = _run_mode(mode == "batched", scripts)
        for i, script in enumerate(scripts):
            expected = offline[i % DRIVES]
            got = result.predictions[script.session_id]
            assert len(got) == len(expected)
            for (t, ho, _sc, _sim, _lead, _lvl), (rt, rho) in zip(got, expected):
                assert t == rt and ho is rho, (
                    f"{mode} serving diverged from the offline replay "
                    f"({script.session_id} @ t={t})"
                )
        by_mode[mode] = (result, wall_s)
    sequential, batched = by_mode["sequential"][0], by_mode["batched"][0]
    assert batched.predictions == sequential.predictions

    speedup = batched.sessions_per_s / sequential.sessions_per_s
    cpus = os.cpu_count() or 1
    if cpus >= 2 and not SMOKE:
        assert speedup >= 3.0, (
            f"micro-batching must clear 3x closed-loop throughput "
            f"(got {speedup:.2f}x)"
        )

    result = {
        "drives": DRIVES,
        "length_km": LENGTH_KM,
        "sessions": SESSIONS,
        "ticks_per_session_total": total_ticks,
        "sequential": sequential.summary(),
        "batched": batched.summary(),
        "speedup_sessions_per_s": round(speedup, 2),
        "speedup_ticks_per_s": round(
            batched.ticks_per_s / sequential.ticks_per_s, 2
        ),
        "identical_to_offline": True,
        "cpus": cpus,
        "smoke": SMOKE,
    }
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print_header("Serving layer: micro-batched vs per-session sequential")
    print(
        f"  corpus: {DRIVES} freeway drive(s) x {LENGTH_KM} km, "
        f"{SESSIONS} sessions, {total_ticks} ticks"
    )
    for mode, (res, _wall) in by_mode.items():
        print(
            f"  {mode:>10}: {res.sessions_per_s:8.3f} sessions/s  "
            f"{res.ticks_per_s:9.1f} ticks/s  "
            f"p50 {res.p50_ms:7.3f} ms  p99 {res.p99_ms:8.3f} ms  "
            f"p99.9 {res.p999_ms:8.3f} ms"
        )
    print(f"  speedup: {speedup:.2f}x sessions/s (identical prediction streams)")


def test_shard_scaling(corpus):
    """Core-scaling sweep: fixed cohort, growing engine shard counts."""
    cpus = os.cpu_count() or 1
    shard_counts = sorted({1, 2, 4, cpus})
    shard_counts = [n for n in shard_counts if n <= max(2, cpus)]

    logs = run_drives(
        [
            freeway_scenario(OPX, BandClass.LOW, length_km=LENGTH_KM, seed=331 + i)
            for i in range(DRIVES)
        ],
        store=corpus.store,
    )
    configs = configs_for_log(OPX, (BandClass.LOW,))
    offline = []
    for log in logs:
        run = run_prognos_over_logs([log], configs)
        offline.append(
            [(float(t), p) for t, p in zip(run.times_s, run.predictions)]
        )
    scripts = [
        build_script(logs[i % DRIVES], f"ue-{i:03d}", configs)
        for i in range(SESSIONS)
    ]

    sweep = []
    for n_shards in shard_counts:
        # The load generator forks alongside the server so a single
        # client core can never be the bottleneck being measured.
        processes = min(n_shards, 8)
        pid, port = spawn_server(
            ServerConfig(batched=True, shards=n_shards, routing="auto")
        )
        try:
            result = run_load(port, scripts, collect=True, processes=processes)
        finally:
            exit_code = stop_server(pid)
        assert exit_code == 0, f"{n_shards}-shard daemon did not exit cleanly"
        assert result.failed == 0 and result.completed == len(scripts)
        for i, script in enumerate(scripts):
            bye = result.byes[script.session_id]
            assert bye["answered"] == script.n_ticks
            assert bye["dropped"] == 0 and bye["lost"] == 0
            expected = offline[i % DRIVES]
            got = result.predictions[script.session_id]
            assert len(got) == len(expected)
            for (t, ho, _sc, _sim, _lead, _lvl), (rt, rho) in zip(got, expected):
                assert t == rt and ho is rho, (
                    f"{n_shards}-shard serving diverged from the offline "
                    f"replay ({script.session_id} @ t={t})"
                )
        entry = result.summary()
        entry["shards"] = n_shards
        entry["loadgen_processes"] = processes
        sweep.append(entry)

    baseline = sweep[0]["sessions_per_s"]
    for entry in sweep:
        entry["speedup_vs_1_shard"] = round(entry["sessions_per_s"] / baseline, 3)
        entry["scaling_efficiency"] = round(
            entry["speedup_vs_1_shard"] / entry["shards"], 3
        )
    at_cpus = next(e for e in sweep if e["shards"] == min(cpus, max(shard_counts)))
    if not SMOKE:
        if cpus >= 4:
            assert at_cpus["speedup_vs_1_shard"] >= 1.8, (
                f"{at_cpus['shards']} shards on {cpus} cores must clear 1.8x "
                f"one shard (got {at_cpus['speedup_vs_1_shard']:.2f}x)"
            )
        else:
            # Single-core (and 2-3 core) guard: the sharded path must
            # not tank throughput even without cores to scale onto.
            assert at_cpus["speedup_vs_1_shard"] >= 0.9, (
                f"sharding regressed throughput on {cpus} core(s) "
                f"(got {at_cpus['speedup_vs_1_shard']:.2f}x)"
            )

    payload = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    payload["shard_scaling"] = {
        "cpus": cpus,
        "sessions": SESSIONS,
        "smoke": SMOKE,
        "sweep": sweep,
        "identical_to_offline": True,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_header("Serving layer: engine shard scaling")
    print(f"  {cpus} cpu(s), {SESSIONS} sessions per run")
    for entry in sweep:
        print(
            f"  {entry['shards']:>2} shard(s): {entry['sessions_per_s']:8.3f} "
            f"sessions/s  p50 {entry['p50_ms']:7.3f} ms  "
            f"p99 {entry['p99_ms']:8.3f} ms  "
            f"{entry['speedup_vs_1_shard']:5.2f}x "
            f"(efficiency {entry['scaling_efficiency']:.2f})"
        )


# ----------------------------------------------------------------------
# Resilience: chaos survival, resume latency, shed/evict accounting
# ----------------------------------------------------------------------

CHAOS_SPEC = (
    "conn_reset:p=0.03,"
    "frame_truncate:p=0.015,"
    "byte_corrupt:p=0.015,"
    "stall_s:p=0.01:hang_s=0.3,"
    "reconnect_storm:p=0.01"
)
RES_SESSIONS = 4 if SMOKE else 8
RES_LENGTH_KM = 1.0 if SMOKE else 1.6


def test_serving_resilience(corpus, monkeypatch):
    """The full degradation gauntlet in one run — network chaos, a
    SIGKILLed shard, a rolling drain — against the stream-invariant
    bar, recording resume latency and the shed/evict counters."""
    logs = run_drives(
        [
            freeway_scenario(OPX, BandClass.LOW, length_km=RES_LENGTH_KM, seed=411 + i)
            for i in range(2)
        ],
        store=corpus.store,
    )
    configs = configs_for_log(OPX, (BandClass.LOW,))
    offline = []
    for log in logs:
        run = run_prognos_over_logs([log], configs)
        offline.append(
            [(float(t), p) for t, p in zip(run.times_s, run.predictions)]
        )
    scripts = [
        build_script(logs[i % 2], f"ue-{i:03d}", configs)
        for i in range(RES_SESSIONS)
    ]
    monkeypatch.setenv(faults.ENV_VAR, CHAOS_SPEC)
    faults.reset()

    config = ServerConfig(
        batched=True, shards=2, routing="auto", heartbeat_s=1.0, drain_s=2.0
    )

    async def chaos_run():
        async with ShardedPrognosServer(config) as server:
            loop = asyncio.get_running_loop()
            start = time.perf_counter()
            future = loop.run_in_executor(
                None,
                partial(run_load, server.port, scripts, collect=True, chaos=True),
            )
            await asyncio.sleep(0.6)
            os.kill(server._shards[0].pid, signal.SIGKILL)
            await asyncio.sleep(0.6)
            await server.rolling_drain(1.0)
            result = await future
            wall_s = time.perf_counter() - start
            stats = await server.stats()
        return result, stats, wall_s

    result, stats, wall_s = asyncio.run(chaos_run())
    assert result.failed == 0 and result.completed == RES_SESSIONS
    assert result.resumes > 0, "the chaos spec never bit"
    for i, script in enumerate(scripts):
        expected = offline[i % 2][: script.n_ticks]
        got = result.predictions[script.session_id]
        assert len(got) == len(expected)
        for (t, ho, _sc, _sim, _lead, _lvl), (rt, rho) in zip(got, expected):
            assert t == rt and ho is rho, (
                f"chaos serving diverged from the offline replay "
                f"({script.session_id} @ t={t})"
            )

    # Admission probe: a ceiling at half the cohort sheds hellos with
    # retry_after; every shed client retries in and still completes.
    pid, port = spawn_server(
        ServerConfig(
            batched=True, shards=1, max_sessions=max(2, RES_SESSIONS // 2)
        )
    )
    try:
        admission = run_load(port, scripts, resume=True)
    finally:
        assert stop_server(pid) == 0
    assert admission.failed == 0 and admission.completed == RES_SESSIONS
    assert admission.shed > 0, "the admission ceiling never bit"

    # Eviction probe: stalls past twice the heartbeat trip the
    # dead-peer sweep; the stalled clients resume and finish anyway.
    monkeypatch.setenv(faults.ENV_VAR, "stall_s:p=0.02:hang_s=1.0")
    faults.reset()

    async def evict_run():
        async with PrognosServer(
            ServerConfig(batched=True, heartbeat_s=0.4)
        ) as server:
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                None,
                partial(run_load, server.port, scripts[:4], chaos=True),
            )
            return result, server.stats()

    evict_result, evict_stats = asyncio.run(evict_run())
    faults.reset()
    assert evict_result.failed == 0 and evict_result.completed == 4
    assert evict_stats["evicted_dead"] > 0, "no stall tripped the sweeper"

    entry = {
        "sessions": RES_SESSIONS,
        "length_km": RES_LENGTH_KM,
        "chaos_spec": CHAOS_SPEC,
        "wall_s": round(wall_s, 3),
        "resets": result.resets,
        "resumes": result.resumes,
        "restarts": result.restarts,
        "resume_p50_ms": round(result.resume_p50_ms, 3),
        "resume_p99_ms": round(result.resume_p99_ms, 3),
        "shed": admission.shed,
        "evicted_dead": evict_stats["evicted_dead"],
        "evicted_idle": evict_stats["evicted_idle"],
        "shard_crash_restarts": stats["restarts"],
        "orphans_claimed": stats["orphans_claimed"],
        "identical_to_offline": True,
        "smoke": SMOKE,
    }
    payload = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    payload["resilience"] = entry
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print_header("Serving layer: resilience under network chaos")
    print(
        f"  {RES_SESSIONS} sessions, kill+rolling-drain, spec {CHAOS_SPEC}"
    )
    print(
        f"  resets {result.resets}  resumes {result.resumes}  "
        f"restarts {result.restarts}  resume p50 "
        f"{result.resume_p50_ms:.3f} ms  p99 {result.resume_p99_ms:.3f} ms"
    )
    print(
        f"  shed {admission.shed}  evicted_dead {evict_stats['evicted_dead']}  "
        f"(streams identical to offline)"
    )
