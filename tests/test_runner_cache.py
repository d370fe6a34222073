"""run_drives determinism and its on-disk corpus store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.radio.bands import BandClass
from repro.radio.rrs import RadioEnvironment
from repro.ran import OPX
from repro.content_store import atomic_publish
from repro.simulate import fanout
from repro.simulate.cache import scenario_fingerprint, scenario_key
from repro.simulate.corpus import CorpusStore
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario
from repro.simulate.serialization import log_to_dict


def _scenarios():
    return [
        freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=31),
        freeway_scenario(OPX, None, length_km=1.5, seed=32),
    ]


@pytest.fixture(scope="module")
def serial_logs():
    return run_drives(_scenarios(), workers=1, use_cache=False)


def test_parallel_matches_serial(serial_logs):
    parallel = run_drives(_scenarios(), workers=4, use_cache=False)
    assert len(parallel) == len(serial_logs)
    for a, b in zip(serial_logs, parallel):
        assert log_to_dict(a) == log_to_dict(b)


def _shard_files(root):
    return sorted(p.name for p in root.iterdir() if p.name != ".lock")


def test_cache_round_trip(tmp_path, serial_logs):
    scenarios = _scenarios()
    store = CorpusStore(tmp_path, enabled=True)
    first = run_drives(scenarios, workers=1, store=store)
    assert (store.hits, store.misses, store.appends, store.put_failures) == (0, 2, 2, 0)
    assert _shard_files(tmp_path) == ["shard-000000.bin", "shard-000000.json"]
    assert sorted(store.drive_ids()) == sorted(scenario_key(s) for s in scenarios)

    warm = CorpusStore(tmp_path, enabled=True)
    second = run_drives(scenarios, workers=1, store=warm)
    assert (warm.hits, warm.misses, warm.appends, warm.put_failures) == (2, 0, 0, 0)
    assert warm.stats["quarantined"] == 0
    for a, b, c in zip(serial_logs, first, second):
        assert log_to_dict(a) == log_to_dict(b) == log_to_dict(c)


def test_cache_dir_env(tmp_path, monkeypatch, serial_logs):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "relocated"))
    store = CorpusStore()
    assert store.root == tmp_path / "relocated" / "corpus"
    assert store.enabled
    # The default run_drives store lands there too.
    (log,) = run_drives(_scenarios()[:1], workers=1)
    assert log_to_dict(log) == log_to_dict(serial_logs[0])
    assert len(CorpusStore()) == 1


def test_no_cache_env(tmp_path, monkeypatch, serial_logs):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = CorpusStore()
    assert not store.enabled
    scenario = _scenarios()[0]
    assert not store.append(scenario_key(scenario), serial_logs[0].columnar())
    (log,) = run_drives([scenario], workers=1)
    assert log_to_dict(log) == log_to_dict(serial_logs[0])
    assert not tmp_path.exists() or not list(tmp_path.iterdir())
    assert store.open_slice(scenario_key(scenario)) is None
    assert store.stats["misses"] == 1


def _hammer_append(root, repeats):
    # Child-process body for the concurrent-writer stress test. Rebuilds
    # the scenario/log locally so nothing large crosses the fork, and
    # opens a fresh handle per attempt so every append races on disk.
    scenario = _scenarios()[0]
    clog = scenario.run().columnar()
    for _ in range(repeats):
        CorpusStore(root, enabled=True).append(scenario_key(scenario), clog)


def test_concurrent_writers_same_key(tmp_path, serial_logs):
    """Two processes hammer ``append`` on one key; exactly one entry loads."""
    ctx = fanout.fork_context()
    if ctx is None:
        pytest.skip("fork start method unavailable")
    children = [
        ctx.Process(target=_hammer_append, args=(tmp_path, 5)) for _ in range(2)
    ]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=120)
        assert child.exitcode == 0
    scenario = _scenarios()[0]
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []
    assert _shard_files(tmp_path) == ["shard-000000.bin", "shard-000000.json"]
    survivor = CorpusStore(tmp_path, enabled=True)
    assert survivor.drive_ids() == [scenario_key(scenario)]
    assert survivor.stats["quarantined"] == 0
    clog = survivor.open_slice(scenario_key(scenario))
    assert clog is not None
    assert log_to_dict(clog.to_drive_log()) == log_to_dict(serial_logs[0])


def test_atomic_publish_cleans_up_on_failure(tmp_path):
    target = tmp_path / "entry.npz"
    with pytest.raises(RuntimeError):
        with atomic_publish(target) as tmp:
            tmp.write_bytes(b"partial")
            raise RuntimeError("writer died")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_publish_temp_names_unique(tmp_path):
    target = tmp_path / "entry.npz"
    seen = set()
    for _ in range(8):
        with atomic_publish(target) as tmp:
            seen.add(tmp.name)
            tmp.write_bytes(b"payload")
    assert len(seen) == 8
    assert target.read_bytes() == b"payload"


def test_fingerprint_tracks_inputs():
    a, b = _scenarios()
    assert scenario_key(a) != scenario_key(b)
    same = freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=31)
    assert scenario_key(a) == scenario_key(same)
    fp = scenario_fingerprint(a)
    assert fp["seed"] == 31 and fp["code_version"]


def test_eviction_bounds_tracked_cells():
    cells = freeway_scenario(OPX, BandClass.LOW, length_km=4.0, seed=9).deployment.cells
    assert len(cells) >= 8
    env = RadioEnvironment(np.random.default_rng(3), evict_after_measures=4)
    for cell in cells:
        env.register(cell, cell.band, cell.eirp_dbm)
    assert env.tracked_cells == len(cells)
    near = cells[:2]
    distances = np.full((1, len(near)), 200.0)
    for step in range(64):
        env.measure_block(near, distances, np.array([float(step)]))
    assert env.tracked_cells == len(near)
