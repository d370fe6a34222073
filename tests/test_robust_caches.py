"""Self-healing stores: one fault matrix over every on-disk codec.

Each fault — an injected write ``OSError``, an injected post-publish
truncation, and garbage bytes over a published entry — runs against
the dataset codec, the model codec (both on
:class:`~repro.content_store.ContentStore`) and the corpus store. The
shared contract: a failed write is a counted no-op, an undecodable
entry is quarantined exactly once and then misses cheaply, and a
rewrite heals the slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.dataset_cache import DatasetCache
from repro.ml.features import LabeledDataset
from repro.ml.model_cache import ModelCache
from repro.radio.bands import BandClass
from repro.ran import OPX
from repro.robust import faults
from repro.rrc.taxonomy import HandoverType
from repro.simulate.cache import scenario_key
from repro.simulate.corpus import CorpusStore
from repro.simulate.runner import run_drives
from repro.simulate.scenarios import freeway_scenario
from repro.simulate.serialization import log_to_dict
from tests.conftest import make_optional_field_log

KEY = "k" * 8


@pytest.fixture(autouse=True)
def _isolated_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


class _ContentTarget:
    """A dataset or model cache entry: counters straight off the store."""

    def __init__(self, root, cache_cls, kind, payload, same):
        self.root, self.cache_cls = root, cache_cls
        self.kind, self.payload, self.same = kind, payload, same
        self.reopen()

    def reopen(self):
        self.store = self.cache_cls(self.root, enabled=True)

    def put(self):
        self.store.put(self.kind, KEY, self.payload)

    def get(self):
        return self.store.get(self.kind, KEY)

    def entry(self):
        return self.store._path(self.kind, KEY)

    def counts(self):
        s = self.store
        return {"stored": s.stores, "put_failures": s.put_failures, "corrupt": s.corrupt}


class _CorpusTarget:
    """One drive in the corpus store; the faulted file is its shard index."""

    def __init__(self, root):
        self.root = root
        self.clog = make_optional_field_log(band=BandClass.LOW).columnar()
        self.reopen()

    def reopen(self):
        self.store = CorpusStore(self.root, enabled=True)

    def put(self):
        self.store.append("drive", self.clog)

    def get(self):
        return self.store.open_slice("drive")

    def entry(self):
        return self.root / "shard-000000.json"

    def same(self, got):
        return got.content_digest() == self.clog.content_digest()

    def counts(self):
        s = self.store
        return {"stored": s.appends, "put_failures": s.put_failures, "corrupt": s.quarantined}


def _same_dataset(got):
    return np.array_equal(got.x, DATASET.x) and got.labels == DATASET.labels


DATASET = LabeledDataset(
    np.arange(12, dtype=float).reshape(4, 3),
    [HandoverType.SCGA, HandoverType.SCGR, HandoverType.SCGA, HandoverType.SCGR],
    np.linspace(0.0, 1.5, 4),
)
MODEL = {"weights": np.arange(64)}

TARGETS = {
    "dataset": lambda root: _ContentTarget(root, DatasetCache, "radio", DATASET, _same_dataset),
    "model": lambda root: _ContentTarget(
        root, ModelCache, "gbc", MODEL,
        lambda got: np.array_equal(got["weights"], MODEL["weights"]),
    ),
    "corpus": _CorpusTarget,
}


@pytest.fixture(params=sorted(TARGETS))
def target(request, tmp_path):
    return TARGETS[request.param](tmp_path)


def _assert_quarantined_then_healed(target):
    entry = target.entry()
    target.reopen()  # the corpus store validates its indexes on open
    assert target.get() is None
    assert target.counts()["corrupt"] == 1
    assert not entry.exists()
    assert entry.with_name(entry.name + ".corrupt").exists()

    # The quarantined entry is now a cheap ordinary miss, not a second
    # decode failure.
    assert target.get() is None
    assert target.counts()["corrupt"] == 1

    # Re-storing heals the slot.
    target.put()
    healed = target.get()
    assert healed is not None
    assert target.same(healed)


def test_write_fault_degrades_to_counted_noop(monkeypatch, target):
    monkeypatch.setenv("REPRO_FAULTS", "cache_write_oserror")
    target.put()
    assert target.counts() == {"stored": 0, "put_failures": 1, "corrupt": 0}
    assert target.get() is None
    target.reopen()
    assert target.get() is None


def test_injected_truncate_heals_on_rewrite(monkeypatch, target):
    monkeypatch.setenv("REPRO_FAULTS", "cache_truncate:times=1")
    target.put()  # published, then corrupted; times=1 is now exhausted
    assert target.counts()["stored"] == 1
    _assert_quarantined_then_healed(target)


def test_garbage_entry_quarantined_then_healed(target):
    target.put()
    target.entry().write_bytes(b"\x00garbage, not a valid entry\xff" * 4)
    _assert_quarantined_then_healed(target)


def test_run_drives_survives_write_faults(monkeypatch, tmp_path):
    scenario = freeway_scenario(OPX, BandClass.LOW, length_km=1.0, seed=61)
    reference = scenario.run()
    monkeypatch.setenv("REPRO_FAULTS", "cache_write_oserror")
    store = CorpusStore(tmp_path, enabled=True)
    (log,) = run_drives([scenario], workers=1, store=store)
    assert log_to_dict(log) == log_to_dict(reference)
    assert store.stats["put_failures"] == 1
    assert store.stats["appends"] == 0
    assert scenario_key(scenario) not in store
