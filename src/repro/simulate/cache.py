"""Content keys for simulated drives.

A drive's log is a pure function of its scenario, so the corpus store
(:class:`~repro.simulate.corpus.CorpusStore`) files each drive under
:func:`scenario_key`: a sha256 over everything that determines the log
bit-for-bit:

* the scenario's name and seed,
* every :class:`SimulationConfig` knob,
* the deployment (carrier plus each cell's identity/position/power and
  the segment layout),
* the trajectory (tick interval plus the packed time/arc/x/y/speed
  arrays), and
* a code-version token — a hash over the ``repro`` package sources —
  so editing the simulator silently invalidates stale entries instead
  of serving logs produced by old code.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import numpy as np

import repro
from repro.simulate.scenarios import Scenario

_code_version_token: str | None = None


def code_version_token() -> str:
    """A hash over the ``repro`` package sources (cached per process)."""
    global _code_version_token
    if _code_version_token is None:
        digest = hashlib.sha256()
        package_root = Path(repro.__file__).resolve().parent
        for source in sorted(package_root.rglob("*.py")):
            digest.update(source.relative_to(package_root).as_posix().encode())
            digest.update(b"\0")
            digest.update(source.read_bytes())
        _code_version_token = digest.hexdigest()
    return _code_version_token


def _jsonable(value):
    """Coerce config field values to something json can serialise stably."""
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def scenario_fingerprint(scenario: Scenario) -> dict:
    """A JSON-compatible digest of everything that determines the log."""
    config = {
        f.name: _jsonable(getattr(scenario.config, f.name))
        for f in dataclasses.fields(scenario.config)
    }
    cells = [
        [
            c.gci,
            c.pci,
            c.band.name,
            c.node_id,
            c.tower_id,
            c.position.x,
            c.position.y,
            c.eirp_dbm,
        ]
        for c in scenario.deployment.cells
    ]
    segments = [
        {f.name: _jsonable(getattr(s, f.name)) for f in dataclasses.fields(s)}
        for s in scenario.deployment.segments
    ]
    track = np.array(
        [
            [s.time_s, s.arc_m, s.position.x, s.position.y, s.speed_mps]
            for s in scenario.trajectory
        ],
        dtype=np.float64,
    )
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "config": config,
        "carrier": scenario.deployment.carrier.name,
        "cells": cells,
        "segments": segments,
        "trajectory": {
            "ticks": len(scenario.trajectory),
            "tick_interval_s": scenario.trajectory.tick_interval_s,
            "track_sha256": hashlib.sha256(track.tobytes()).hexdigest(),
        },
        "code_version": code_version_token(),
    }


def scenario_key(scenario: Scenario) -> str:
    """The drive's content key: sha256 over :func:`scenario_fingerprint`."""
    payload = json.dumps(
        scenario_fingerprint(scenario), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()
