"""CorpusStore: sharded memmap slices, resumable appends, failure modes."""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.net.bearer import BearerMode
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.simulate import fanout
from repro.simulate.columnar import ARRAY_KEYS
from repro.simulate.corpus import CorpusStore, CorpusView, DriveRef
from repro.simulate.runner import run_drives, run_drives_to_store
from repro.simulate.scenarios import freeway_scenario
from repro.simulate.serialization import log_to_dict
from tests.conftest import make_optional_field_log


def _sample_logs():
    return {
        "d1": make_optional_field_log(bearer=BearerMode.FIVE_G_ONLY, band=BandClass.MMWAVE),
        "d2": make_optional_field_log(),
        "d3": make_optional_field_log(band=BandClass.LOW),
    }


def _filled_store(root, **kwargs):
    store = CorpusStore(root, enabled=True, **kwargs)
    logs = _sample_logs()
    for drive_id, log in logs.items():
        assert store.append(drive_id, log.columnar())
    return store, logs


def _shard_files(root):
    """Everything in the store root but its writer lock."""
    return sorted(p.name for p in root.iterdir() if p.name != ".lock")


def _scenarios():
    return [
        freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=41),
        freeway_scenario(OPX, None, length_km=1.5, seed=42),
        freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=43),
    ]


class TestRoundTrip:
    def test_slices_bit_identical(self, tmp_path):
        store, logs = _filled_store(tmp_path)
        for drive_id, log in logs.items():
            clog = store.open_slice(drive_id)
            assert clog.content_digest() == log.columnar().content_digest()
            assert log_to_dict(clog.to_drive_log()) == log_to_dict(log)

    def test_views_read_only_and_survive_reopen(self, tmp_path):
        store, logs = _filled_store(tmp_path)
        clog = CorpusStore(tmp_path, enabled=True).open_slice("d1")
        for key in ARRAY_KEYS:
            assert not clog.arrays[key].flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            clog.arrays["tick_time_s"][0] = 99.0
        # The views outlive every store handle: drop both stores, the
        # arrays still read (they hold the mapping themselves).
        digest = clog.content_digest()
        del store
        assert clog.content_digest() == digest
        # And a fresh handle over the same files serves identical bytes.
        again = CorpusStore(tmp_path, enabled=True).open_slice("d1")
        assert again.content_digest() == digest

    def test_exactly_once_append(self, tmp_path):
        store, logs = _filled_store(tmp_path)
        assert not store.append("d1", logs["d1"].columnar())
        assert store.stats["appends"] == 3
        assert store.stats["duplicates"] == 1
        # Duplicate appends in a *fresh* handle are no-ops too.
        reopened = CorpusStore(tmp_path, enabled=True)
        assert not reopened.append("d2", logs["d2"].columnar())
        assert reopened.stats["duplicates"] == 1

    def test_shard_rollover(self, tmp_path):
        store, _ = _filled_store(tmp_path, shard_mb=1e-6)
        assert store.stats["shards"] == 3
        names = _shard_files(tmp_path)
        assert names == [
            "shard-000000.bin",
            "shard-000000.json",
            "shard-000001.bin",
            "shard-000001.json",
            "shard-000002.bin",
            "shard-000002.json",
        ]
        reopened = CorpusStore(tmp_path, enabled=True)
        assert sorted(reopened.drive_ids()) == ["d1", "d2", "d3"]

    def test_disabled_store_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        store = CorpusStore(tmp_path)
        assert not store.enabled
        assert not store.append("d1", make_optional_field_log().columnar())
        assert store.open_slice("d1") is None
        assert not tmp_path.exists() or not list(tmp_path.iterdir())

    def test_env_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CORPUS_SHARD_MB", "7")
        store = CorpusStore()
        assert store.root == tmp_path / "cache" / "corpus"
        assert store.shard_limit == 7 * 1024 * 1024

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-5", "abc"])
    def test_bad_shard_mb_warns_once_and_defaults(self, tmp_path, monkeypatch, raw):
        from repro import env

        monkeypatch.setattr(env, "_warned", set())
        monkeypatch.setenv("REPRO_CORPUS_SHARD_MB", raw)
        with pytest.warns(RuntimeWarning, match="REPRO_CORPUS_SHARD_MB") as caught:
            first = CorpusStore(tmp_path, enabled=True)
            second = CorpusStore(tmp_path, enabled=True)
        assert len(caught) == 1
        assert first.shard_limit == second.shard_limit == 64 * 1024 * 1024


class TestFailureModes:
    def test_truncated_shard_quarantined_as_miss(self, tmp_path):
        _filled_store(tmp_path)
        blob = tmp_path / "shard-000000.bin"
        blob.write_bytes(blob.read_bytes()[:100])
        store = CorpusStore(tmp_path, enabled=True)
        assert store.stats["quarantined"] == 1
        assert store.open_slice("d1") is None
        assert store.stats["misses"] == 1
        names = _shard_files(tmp_path)
        assert names == ["shard-000000.bin.corrupt", "shard-000000.json.corrupt"]

    def test_index_shard_mismatch_detected(self, tmp_path):
        _filled_store(tmp_path)
        index_path = tmp_path / "shard-000000.json"
        meta = json.loads(index_path.read_text())
        # An entry that points past the committed extent is a lying
        # index, not a short blob.
        drive = next(iter(meta["drives"]))
        meta["drives"][drive]["offset"] = meta["committed_bytes"]
        index_path.write_text(json.dumps(meta))
        store = CorpusStore(tmp_path, enabled=True)
        assert store.stats["quarantined"] == 1
        assert len(store) == 0

    def test_corrupt_index_json_quarantined(self, tmp_path):
        _filled_store(tmp_path)
        (tmp_path / "shard-000000.json").write_text("{not json")
        store = CorpusStore(tmp_path, enabled=True)
        assert store.stats["quarantined"] == 1
        assert store.open_slice("d2") is None

    def test_stale_format_version_skipped_not_quarantined(self, tmp_path):
        _filled_store(tmp_path)
        index_path = tmp_path / "shard-000000.json"
        meta = json.loads(index_path.read_text())
        meta["format_version"] = 999
        index_path.write_text(json.dumps(meta))
        store = CorpusStore(tmp_path, enabled=True)
        assert store.stats["stale_shards"] == 1
        assert store.stats["quarantined"] == 0
        assert store.open_slice("d1") is None
        # The stale shard stays on disk untouched, and its number is
        # never reused by new appends.
        assert (tmp_path / "shard-000000.json").exists()
        store.append("d9", make_optional_field_log().columnar())
        assert (tmp_path / "shard-000001.json").exists()

    def test_uncommitted_tail_reclaimed(self, tmp_path):
        """Bytes past the committed extent (a crashed append) are reused."""
        store, logs = _filled_store(tmp_path)
        blob = tmp_path / "shard-000000.bin"
        committed = blob.stat().st_size
        with open(blob, "ab") as handle:
            handle.write(b"\xff" * 4096)  # crash leftovers, no index commit
        reopened = CorpusStore(tmp_path, enabled=True)
        assert reopened.stats["quarantined"] == 0  # longer blob is fine
        reopened.append("d4", make_optional_field_log().columnar())
        assert reopened.open_slice("d4") is not None
        # The leftover bytes were truncated away before the new payload.
        meta = json.loads((tmp_path / "shard-000000.json").read_text())
        assert meta["drives"]["d4"]["offset"] == committed

    def test_failed_append_counts_and_stays_missing(self, tmp_path, monkeypatch):
        from repro.robust import faults

        store, _ = _filled_store(tmp_path)
        monkeypatch.setenv("REPRO_FAULTS", "cache_write_oserror")
        faults.reset()
        try:
            assert not store.append("d5", make_optional_field_log().columnar())
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            faults.reset()
        assert store.stats["put_failures"] == 1
        assert "d5" not in store
        # The injected failure hit the index commit *after* the blob
        # write — the canonical crash window. A reopen sees no corruption
        # and the next append reclaims the orphaned tail bytes.
        reopened = CorpusStore(tmp_path, enabled=True)
        assert reopened.stats["quarantined"] == 0
        assert reopened.append("d5", make_optional_field_log().columnar())
        assert reopened.open_slice("d5") is not None


def _variant_log(index):
    """A distinct tiny log per index (bearer x band combinations)."""
    bearers = [None, *BearerMode]
    bands = [None, *BandClass]
    return make_optional_field_log(
        bearer=bearers[index % len(bearers)], band=bands[index // len(bearers)]
    )


#: Writer-test drive ids: four processes (more than CI's cores) each
#: own two ids, and all share two, appended in alternating order.
_WRITER_IDS = {
    k: [f"p{k}-a", f"p{k}-b", *(["s-a", "s-b"] if k % 2 else ["s-b", "s-a"])]
    for k in range(4)
}
_ALL_WRITER_IDS = sorted({i for ids in _WRITER_IDS.values() for i in ids})


def _writer(root, shard_mb, which, start):
    # Child-process body: one long-lived handle appends its ids, so its
    # in-memory index goes stale as the other writer commits.
    store = CorpusStore(root, enabled=True, shard_mb=shard_mb)
    start.wait(30)
    for drive_id in _WRITER_IDS[which]:
        store.append(drive_id, _variant_log(_ALL_WRITER_IDS.index(drive_id)).columnar())
    os._exit(0 if store.put_failures == 0 else 3)


class TestWriters:
    def test_two_handles_interleave(self, tmp_path):
        """Stale handles never overwrite or drop each other's drives."""
        logs = _sample_logs()
        first = CorpusStore(tmp_path, enabled=True)
        second = CorpusStore(tmp_path, enabled=True)
        assert first.append("d1", logs["d1"].columnar())
        assert second.append("d2", logs["d2"].columnar())
        assert first.append("d3", logs["d3"].columnar())

        reopened = CorpusStore(tmp_path, enabled=True)
        assert reopened.stats["quarantined"] == 0
        for drive_id, log in logs.items():
            clog = reopened.open_slice(drive_id)
            assert clog is not None
            assert clog.content_digest() == log.columnar().content_digest()
        assert sorted(reopened.drive_ids()) == ["d1", "d2", "d3"]
        # A drive the other handle committed meanwhile is a duplicate.
        assert not second.append("d3", logs["d3"].columnar())
        assert second.stats["duplicates"] == 1

    @pytest.mark.parametrize("shard_mb", [None, 1e-6], ids=["one-shard", "rollover"])
    def test_two_process_writers(self, tmp_path, shard_mb):
        ctx = fanout.fork_context()
        if ctx is None:
            pytest.skip("fork start method unavailable")
        start = ctx.Event()
        children = [
            ctx.Process(target=_writer, args=(tmp_path, shard_mb, which, start))
            for which in _WRITER_IDS
        ]
        for child in children:
            child.start()
        start.set()
        for child in children:
            child.join(timeout=120)
            assert child.exitcode == 0

        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        store = CorpusStore(tmp_path, enabled=True)
        assert store.stats["quarantined"] == 0
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".corrupt")]
        assert sorted(store.drive_ids()) == _ALL_WRITER_IDS
        for index, drive_id in enumerate(_ALL_WRITER_IDS):
            expected = _variant_log(index).columnar().content_digest()
            assert store.open_slice(drive_id).content_digest() == expected


class TestResume:
    def test_resume_after_kill_regenerates_only_missing(self, tmp_path):
        """Kill generation mid-corpus; the rerun simulates only the rest."""
        ctx = fanout.fork_context()
        if ctx is None:
            pytest.skip("fork start method unavailable")
        scenarios = _scenarios()
        root = tmp_path / "corpus"

        def die_after_two():
            store = CorpusStore(root, enabled=True)
            original = CorpusStore.append

            def mortal_append(self, drive_id, clog):
                stored = original(self, drive_id, clog)
                if self.appends >= 2:
                    os._exit(17)  # hard kill: no cleanup, no flushes
                return stored

            CorpusStore.append = mortal_append
            try:
                run_drives_to_store(scenarios, workers=1, store=store)
            finally:
                CorpusStore.append = original
            os._exit(0)  # not reached

        child = ctx.Process(target=die_after_two)
        child.start()
        child.join(timeout=240)
        assert child.exitcode == 17

        survivor = CorpusStore(root, enabled=True)
        assert len(survivor) == 2  # two committed drives survived the kill
        view = run_drives_to_store(scenarios, workers=1, store=survivor)
        assert survivor.stats["appends"] == 1  # only the missing drive ran
        assert len(survivor) == 3
        reference = run_drives(scenarios, workers=1, use_cache=False)
        for a, b in zip(view, reference):
            assert log_to_dict(a) == log_to_dict(b)

    def test_second_build_simulates_nothing(self, tmp_path):
        scenarios = _scenarios()[:2]
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        run_drives_to_store(scenarios, workers=1, store=store)
        assert store.stats["appends"] == 2
        resumed = CorpusStore(tmp_path / "corpus", enabled=True)
        view = run_drives_to_store(scenarios, workers=1, store=resumed)
        assert resumed.stats["appends"] == 0
        reference = run_drives(scenarios, workers=1, use_cache=False)
        for a, b in zip(view, reference):
            assert log_to_dict(a) == log_to_dict(b)


class TestDriveCacheDelegation:
    def test_put_appends_to_store_not_npz(self, tmp_path, monkeypatch):
        # The drive cache is the corpus store: a simulated drive is
        # appended to a shard and no per-drive file lands anywhere else.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        scenario = freeway_scenario(OPX, BandClass.LOW, length_km=1.5, seed=44)
        log = scenario.run()
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        (stored,) = run_drives([scenario], workers=1, store=store)
        assert store.stats["appends"] == 1
        assert store.stats["misses"] == 1
        assert _shard_files(tmp_path / "corpus") == ["shard-000000.bin", "shard-000000.json"]
        assert not (tmp_path / "cache").exists()  # no .npz written
        warm = CorpusStore(tmp_path / "corpus", enabled=True)
        (hit,) = run_drives([scenario], workers=1, store=warm)
        assert warm.stats["hits"] == 1
        assert warm.stats["appends"] == 0
        assert log_to_dict(hit) == log_to_dict(stored) == log_to_dict(log)


class TestViews:
    def test_ref_and_view_pickle_small(self, tmp_path):
        store, logs = _filled_store(tmp_path)
        ref = DriveRef(str(tmp_path), "d1")
        assert len(pickle.dumps(ref)) < 200
        view = CorpusView(tmp_path, ["d1", "d2", "d3"])
        assert len(pickle.dumps(view)) < 400
        clone = pickle.loads(pickle.dumps(view))
        for i, drive_id in enumerate(["d1", "d2", "d3"]):
            assert log_to_dict(clone[i]) == log_to_dict(logs[drive_id])
        assert log_to_dict(ref.load()) == log_to_dict(logs["d1"])

    def test_view_memoizes_but_does_not_pickle_logs(self, tmp_path):
        store, _ = _filled_store(tmp_path)
        view = CorpusView(tmp_path, ["d1", "d2"])
        assert view[0] is view[0]
        assert len(pickle.dumps(view)) < 400  # memo dropped from state

    def test_missing_drive_raises_keyerror(self, tmp_path):
        _filled_store(tmp_path)
        with pytest.raises(KeyError, match="ghost"):
            DriveRef(str(tmp_path), "ghost").columnar()

    def test_view_slicing_and_events(self, tmp_path):
        from repro.ml.features import handover_events

        store, logs = _filled_store(tmp_path)
        view = CorpusView(tmp_path, ["d1", "d2", "d3"])
        sliced = view[1:]
        assert isinstance(sliced, CorpusView) and len(sliced) == 2
        materialised = [logs["d1"], logs["d2"], logs["d3"]]
        assert view.handover_events() == handover_events(materialised)


class TestPrognosOverView:
    def test_view_matches_list_replay(self, tmp_path):
        from repro.core.evaluation import configs_for_log, run_prognos_over_logs

        scenarios = _scenarios()[:2]
        logs = run_drives(scenarios, workers=1, use_cache=False)
        store = CorpusStore(tmp_path / "corpus", enabled=True)
        view = run_drives_to_store(scenarios, workers=1, store=store)
        configs = configs_for_log(OPX, (BandClass.LOW,))
        from_list = run_prognos_over_logs(logs, configs, stride=64)
        from_view = run_prognos_over_logs(view, configs, stride=64)
        np.testing.assert_array_equal(from_list.times_s, from_view.times_s)
        assert from_list.predictions == from_view.predictions
        assert from_list.truths == from_view.truths
        assert from_list.events == from_view.events
        assert from_list.lead_times_s == from_view.lead_times_s
