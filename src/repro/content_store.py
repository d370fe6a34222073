"""One content-addressed blob store behind the dataset and model caches.

A :class:`ContentStore` maps ``(kind, key)`` to a payload on disk at
``<root>/<kind>-<key><suffix>`` through a :class:`Codec`, and owns the
self-healing semantics every cache layer shares:

* writes publish atomically through :func:`atomic_publish`, so a
  reader never sees a half-written entry;
* a write ``OSError`` (disk full, read-only ``REPRO_CACHE_DIR``) is a
  counted ``put_failure`` and otherwise ignored — a run never aborts
  because its cache is sick;
* an entry the codec cannot decode is quarantined (renamed
  ``*.corrupt``, counted in ``corrupt``) so it misses once, not on
  every lookup, and a later ``put`` heals the slot;
* a read ``OSError`` is a plain miss — the entry may be readable next
  time.

Every store reports one stats shape: ``{hits, misses, stores,
put_failures, corrupt}``. Drives do not live here: they go to the
sharded, memory-mapped :class:`~repro.simulate.corpus.CorpusStore`.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Iterator

from repro.env import caching_enabled
from repro.robust import faults


@contextmanager
def atomic_publish(path: Path) -> Iterator[Path]:
    """Yield a writer-unique temp path, atomically published to ``path``.

    The temp name embeds the pid plus a random suffix so two processes
    storing the same key never interleave writes into one file (a
    deterministic temp name let parallel pytest runs or two benches
    sharing ``REPRO_CACHE_DIR`` publish corrupt entries). The loser of
    the final ``replace`` race simply overwrites the winner's identical
    content. On failure the temp file is removed and nothing is
    published.

    The :mod:`repro.robust.faults` hooks make this the one choke point
    for injected cache-write faults: ``cache_write_oserror`` raises
    before anything is staged, ``cache_truncate`` corrupts the entry
    after publication (exercising the readers' quarantine path).
    """
    faults.maybe_raise_cache_write(path.name)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        yield tmp
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    faults.maybe_truncate(path)


def quarantine(path: Path) -> None:
    """Rename an undecodable entry to ``*.corrupt`` (best-effort), so
    the next lookup misses cheaply instead of re-parsing it forever."""
    try:
        path.replace(path.with_name(path.name + ".corrupt"))
    except OSError:
        pass


@dataclass(frozen=True)
class Codec:
    """How one kind of payload goes to and from an open binary file.

    ``corrupt`` lists the decode exceptions that mean "this entry will
    never decode"; they are checked before the transient ``OSError``
    clause, so an ``OSError`` subclass such as ``gzip.BadGzipFile`` may
    appear here.
    """

    suffix: str
    encode: Callable[[Any, IO[bytes]], None]
    decode: Callable[[IO[bytes]], Any]
    corrupt: tuple[type[BaseException], ...]


class ContentStore:
    """Self-healing ``(kind, key) -> payload`` store under ``root``.

    Lookups on a disabled store always miss; stores become no-ops.
    ``enabled=None`` follows ``REPRO_NO_CACHE``.
    """

    def __init__(self, root: str | Path, codec: Codec, *, enabled: bool | None = None):
        self.root = Path(root)
        self.codec = codec
        self.enabled = caching_enabled() if enabled is None else enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.put_failures = 0
        self.corrupt = 0

    def _path(self, kind: str, key: str) -> Path:
        return self.root / f"{kind}-{key}{self.codec.suffix}"

    def get(self, kind: str, key: str) -> Any | None:
        """The stored payload, or None on a miss."""
        if not self.enabled:
            self.misses += 1
            return None
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                value = self.codec.decode(handle)
        except self.codec.corrupt:
            self.corrupt += 1
            quarantine(path)
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store ``value``; write failures degrade to a counted no-op."""
        if not self.enabled:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with atomic_publish(self._path(kind, key)) as tmp:
                with open(tmp, "wb") as handle:
                    self.codec.encode(value, handle)
        except OSError:
            self.put_failures += 1
            return
        self.stores += 1

    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "put_failures": self.put_failures,
            "corrupt": self.corrupt,
        }
