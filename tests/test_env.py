"""repro.env: the one validated reader of ``REPRO_*`` knobs."""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import pytest

from repro import env


@pytest.fixture(autouse=True)
def _fresh_warnings(monkeypatch):
    monkeypatch.setattr(env, "_warned", set())


def test_flag_values(monkeypatch):
    monkeypatch.delenv("REPRO_PERF", raising=False)
    assert env.env_flag("REPRO_PERF") is False
    monkeypatch.setenv("REPRO_PERF", "0")
    assert env.env_flag("REPRO_PERF") is False
    monkeypatch.setenv("REPRO_PERF", "1")
    assert env.env_flag("REPRO_PERF") is True


def test_flag_garbage_warns_once_and_reads_off(monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_SPAWN", "yes")
    with pytest.warns(RuntimeWarning, match="REPRO_FORCE_SPAWN") as caught:
        assert env.env_flag("REPRO_FORCE_SPAWN") is False
        assert env.env_flag("REPRO_FORCE_SPAWN") is False
    assert len(caught) == 1


def test_cache_knobs(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert env.cache_root() == Path(".repro-cache")
    assert env.caching_enabled()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert env.cache_root() == tmp_path
    assert not env.caching_enabled()


def test_float_bounds(monkeypatch):
    monkeypatch.setenv("REPRO_X", "inf")
    assert env.env_float("REPRO_X", 1.0) == math.inf
    with pytest.warns(RuntimeWarning, match="above the maximum"):
        assert env.env_float("REPRO_X", 1.0, maximum=10.0) == 1.0
    monkeypatch.setenv("REPRO_X", "2.5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env.env_float("REPRO_X", 1.0, maximum=10.0) == 2.5
