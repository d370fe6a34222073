"""Validated ``REPRO_*`` environment knobs.

Every environment read in :mod:`repro` goes through this module. A
malformed, negative, or out-of-range value earns one
:class:`RuntimeWarning` naming the variable and the fallback, and the
default is used — a corpus run never aborts, and the server never
raises deep inside its event loop, because an operator exported
``REPRO_SERVE_SHARDS=lots``.

"Warn once" is per (variable, raw value) per process, so a daemon that
re-reads its knobs on every accepted session does not spam the log,
while changing the broken value to a differently broken one still
warns.

The cache knobs every store layer shares live here too:

* ``REPRO_CACHE_DIR`` relocates the cache root (default
  ``./.repro-cache``), see :func:`cache_root`;
* ``REPRO_NO_CACHE=1`` disables every cache layer, see
  :func:`caching_enabled`.
"""

from __future__ import annotations

import math
import os
import warnings
from pathlib import Path

#: (name, raw value) pairs already warned about in this process.
_warned: set[tuple[str, str]] = set()

_DEFAULT_CACHE_ROOT = ".repro-cache"


def _warn_once(name: str, raw: str, why: str, default) -> None:
    key = (name, raw)
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(
        f"{name}={raw!r} {why}; falling back to the default {default!r}",
        RuntimeWarning,
        stacklevel=4,
    )


def env_str(name: str, default: str = "") -> str:
    """A free-form knob, unparsed (its consumer validates it)."""
    return os.environ.get(name, default)


def env_int(name: str, default: int, minimum: float = 0) -> int:
    """An integer knob; non-integers and values below ``minimum`` warn
    once and fall back to ``default``."""
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        _warn_once(name, raw, "is not an integer", default)
        return default
    if value < minimum:
        _warn_once(name, raw, f"is below the minimum {minimum}", default)
        return default
    return value


def env_float(
    name: str, default: float, minimum: float = 0.0, maximum: float = math.inf
) -> float:
    """A float knob; non-numbers, NaN, and values outside
    [``minimum``, ``maximum``] warn once and fall back to ``default``."""
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        _warn_once(name, raw, "is not a number", default)
        return default
    if not value >= minimum:  # also catches NaN
        _warn_once(name, raw, f"is below the minimum {minimum}", default)
        return default
    if value > maximum:
        _warn_once(name, raw, f"is above the maximum {maximum}", default)
        return default
    return value


def env_choice(name: str, default: str, choices: tuple[str, ...]) -> str:
    """An enumerated knob; unknown values warn once and fall back."""
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    value = raw.strip().lower()
    if value not in choices:
        _warn_once(name, raw, f"is not one of {choices}", default)
        return default
    return value


def env_flag(name: str) -> bool:
    """A ``1``/``0`` switch (unset is off); other values warn once and
    read as off."""
    raw = os.environ.get(name, "")
    if raw in ("", "0"):
        return False
    if raw == "1":
        return True
    _warn_once(name, raw, "is not 0 or 1", "0")
    return False


def env_path(name: str, default: str | Path) -> Path:
    """A directory knob; unset or empty means ``default``."""
    return Path(os.environ.get(name) or default)


def cache_root() -> Path:
    """The shared cache root (``REPRO_CACHE_DIR``)."""
    return env_path("REPRO_CACHE_DIR", _DEFAULT_CACHE_ROOT)


def caching_enabled() -> bool:
    """False when ``REPRO_NO_CACHE=1`` disables every cache layer."""
    return not env_flag("REPRO_NO_CACHE")
