"""Deterministic fault injection driven by the ``REPRO_FAULTS`` env spec.

The supervisor and the cache layer call the ``maybe_*`` hooks below at
their failure points; with ``REPRO_FAULTS`` unset every hook is a
no-op, so production runs pay one env lookup per pool pass. The test
suite (and the CI fault-injection smoke job) sets a spec and proves
the recovery paths end-to-end.

Spec grammar — comma-separated entries, each ``name[:key=value]*``::

    REPRO_FAULTS="worker_crash:p=0.2:seed=7,cache_write_oserror"

Fault names and where they fire:

* ``worker_crash`` — a pool worker calls ``os._exit(3)`` before
  running a job (the parent sees ``BrokenProcessPool``).
* ``worker_hang`` — a pool worker sleeps ``hang_s`` seconds before a
  job (the parent's per-job timeout fires, if set).
* ``cache_write_oserror`` — a cache ``put`` raises ``OSError`` at
  publish time (as a full disk or read-only cache dir would).
* ``cache_truncate`` — a published cache entry is truncated to half
  its bytes, so the next load hits the corrupt-entry branch.

Network family — fired client-side by the serving load generator
(:mod:`repro.serve.loadgen`) against a live Prognos server, keyed by
``session@step`` with the reconnect count as the attempt, so a step
that faulted once re-draws after the resume instead of looping:

* ``conn_reset`` — hard-close the client socket mid-drive (the server
  sees a reset and parks the session for resumption).
* ``frame_truncate`` — send only a prefix of the next frame, then
  hard-close (the server's framer never completes the frame).
* ``byte_corrupt`` — flip the frame's tag byte before sending (the
  server rejects the frame and drops the connection; payload bytes are
  left alone so a resumed stream stays bit-comparable to the oracle).
* ``stall_s`` — go silent for ``hang_s`` seconds mid-drive (long
  stalls trip the server's dead-peer eviction; the client resumes).
* ``reconnect_storm`` — drop and immediately resume several times in a
  row before sending the step.

Per-entry parameters (all optional):

* ``p`` — firing probability in ``[0, 1]`` (default 1). The draw is a
  pure function of ``(seed, name, key, attempt)``, so a given job on a
  given attempt either always fires or never does — runs reproduce
  exactly, and a retry re-draws.
* ``seed`` — varies the draw stream (default 0).
* ``key`` — restrict the fault to one job key / cache entry name.
* ``attempts`` — fire only while the job's attempt number is below
  this (e.g. ``attempts=1`` fails the first try, lets the retry pass).
* ``times`` — fire at most this many times per process (counted).
* ``hang_s`` — ``worker_hang`` / ``stall_s`` sleep length (default
  60 s / 0.5 s).

Unknown names or malformed entries earn one :class:`RuntimeWarning`
per (entry, reason) per process and are skipped, keeping the valid
clauses — a typo in a fault spec must not itself take the run down,
and a daemon that re-reads the spec must not spam the log.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.env import env_str

ENV_VAR = "REPRO_FAULTS"

#: Client-side network faults fired by the serving load generator.
NETWORK_FAULTS = frozenset(
    {"conn_reset", "frame_truncate", "byte_corrupt", "stall_s", "reconnect_storm"}
)

KNOWN_FAULTS = (
    frozenset(
        {"worker_crash", "worker_hang", "cache_write_oserror", "cache_truncate"}
    )
    | NETWORK_FAULTS
)

#: Per-process count of fired faults, keyed by fault name (test hook).
fired_counts: Counter[str] = Counter()

#: Per-spec fired tally backing the ``times`` cap.
_spec_fired: Counter["FaultSpec"] = Counter()

_parsed: tuple[str, tuple["FaultSpec", ...]] | None = None

#: (entry, reason) pairs already warned about in this process — the
#: :mod:`repro.env` warn-once pattern, so re-parsing the same broken spec
#: (a daemon re-reads it per session) does not spam the log.
_warned: set[tuple[str, str]] = set()


def _warn_once(entry: str, why: str) -> None:
    key = (entry, why)
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(
        f"{ENV_VAR}: {why} in {entry!r}; entry ignored",
        RuntimeWarning,
        stacklevel=4,
    )


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``REPRO_FAULTS`` entry."""

    name: str
    p: float = 1.0
    seed: int = 0
    key: str | None = None
    attempts: int | None = None
    times: int | None = None
    hang_s: float = 60.0


def parse_spec(raw: str) -> tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` string.

    Malformed entries warn once per (entry, reason) and are skipped;
    the valid clauses survive.
    """
    specs: list[FaultSpec] = []
    for entry in filter(None, (part.strip() for part in raw.split(","))):
        name, _, tail = entry.partition(":")
        if name not in KNOWN_FAULTS:
            _warn_once(
                entry,
                f"unknown fault {name!r} "
                f"(known: {', '.join(sorted(KNOWN_FAULTS))})",
            )
            continue
        params: dict[str, object] = {}
        bad = False
        for pair in filter(None, tail.split(":")):
            pkey, sep, value = pair.partition("=")
            try:
                if pkey in ("p", "hang_s"):
                    params[pkey] = float(value)
                elif pkey in ("seed", "attempts", "times"):
                    params[pkey] = int(value)
                elif pkey == "key" and sep:
                    params[pkey] = value
                else:
                    raise ValueError(pkey)
            except ValueError:
                _warn_once(entry, f"bad parameter {pair!r}")
                bad = True
                break
        if bad:
            continue
        p = params.get("p", 1.0)
        if not 0.0 <= p <= 1.0:  # type: ignore[operator]
            _warn_once(entry, f"p={p!r} outside [0, 1]")
            continue
        hang = params.get("hang_s")
        if hang is not None and not hang >= 0.0:  # type: ignore[operator]
            _warn_once(entry, f"hang_s={hang!r} is negative")
            continue
        if name == "stall_s" and hang is None:
            params["hang_s"] = 0.5
        specs.append(FaultSpec(name, **params))  # type: ignore[arg-type]
    return tuple(specs)


def active_faults() -> tuple[FaultSpec, ...]:
    """The specs parsed from ``REPRO_FAULTS`` (re-parsed when it changes)."""
    global _parsed
    raw = env_str(ENV_VAR)
    if _parsed is None or _parsed[0] != raw:
        _parsed = (raw, parse_spec(raw) if raw else ())
    return _parsed[1]


def reset() -> None:
    """Clear parse cache, warn dedup, and fired tallies (test hook)."""
    global _parsed
    _parsed = None
    fired_counts.clear()
    _spec_fired.clear()
    _warned.clear()


def _draw(spec: FaultSpec, key: object, attempt: int) -> float:
    payload = f"{spec.seed}|{spec.name}|{key}|{attempt}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _fires(spec: FaultSpec, key: object, attempt: int) -> bool:
    if spec.key is not None and str(key) != spec.key:
        return False
    if spec.attempts is not None and attempt >= spec.attempts:
        return False
    if spec.times is not None and _spec_fired[spec] >= spec.times:
        return False
    if _draw(spec, key, attempt) >= spec.p:
        return False
    _spec_fired[spec] += 1
    fired_counts[spec.name] += 1
    return True


def maybe_fail_job(key: object, attempt: int = 0) -> None:
    """Worker-side hook: crash or hang before running job ``key``.

    Only the supervisor's in-pool chunk runner calls this, so the
    faults never fire in the parent process or on the serial
    degradation path — which is exactly what makes serial execution
    the recovery of last resort.
    """
    for spec in active_faults():
        if spec.name == "worker_crash" and _fires(spec, key, attempt):
            os._exit(3)
        elif spec.name == "worker_hang" and _fires(spec, key, attempt):
            time.sleep(spec.hang_s)


def maybe_raise_cache_write(key: object) -> None:
    """Cache-writer hook: raise ``OSError`` as a full disk would."""
    for spec in active_faults():
        if spec.name == "cache_write_oserror" and _fires(spec, key, 0):
            raise OSError(f"injected cache_write_oserror for {key}")


def maybe_network_fault(key: object, attempt: int = 0) -> FaultSpec | None:
    """Loadgen-side hook: the first network fault firing for ``key``.

    Returns the fired :class:`FaultSpec` (its ``name`` picks the
    client-side action, ``hang_s`` the stall length) or ``None``. The
    caller passes its reconnect count as ``attempt`` so a step that
    faulted before the disconnect re-draws after the resume.
    """
    for spec in active_faults():
        if spec.name in NETWORK_FAULTS and _fires(spec, key, attempt):
            return spec
    return None


def maybe_truncate(path: Path) -> None:
    """Post-publish hook: corrupt ``path`` by dropping its second half."""
    for spec in active_faults():
        if spec.name == "cache_truncate" and _fires(spec, path.name, 0):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
