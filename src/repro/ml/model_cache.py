"""On-disk trained-model cache: content-addressed fitted estimators.

The §7.3 benches retrain the same GBC/LSTM baselines on the same
corpus every session. This module caches fitted models on disk, keyed
by a sha256 over everything that determines the fit bit-for-bit:

* the estimator kind and its hyperparameters,
* the training arrays (shape, dtype, raw bytes) and label names, and
* the same code-version token the drive corpus uses — a hash over the
  ``repro`` package sources — so editing any model code silently
  invalidates stale entries instead of serving models produced by old
  code.

It runs on :class:`~repro.content_store.ContentStore` and shares the
cache knobs of :mod:`repro.env`: ``REPRO_CACHE_DIR`` relocates the
root (models live under a ``models/`` subdirectory next to the drive
corpus), ``REPRO_NO_CACHE=1`` disables it entirely. Entries are
gzipped pickles — models are pure numpy containers produced by this
package, not untrusted input.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pickle
from pathlib import Path
from typing import Callable

import numpy as np

from repro.content_store import Codec, ContentStore
from repro.env import cache_root
from repro.simulate.cache import code_version_token


def dataset_digest(x: np.ndarray, labels: list[object]) -> str:
    """sha256 over the training arrays and label names."""
    digest = hashlib.sha256()
    arr = np.ascontiguousarray(np.asarray(x, dtype=float))
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    for label in labels:
        digest.update(getattr(label, "name", str(label)).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _encode_model(model, handle) -> None:
    with gzip.open(handle, "wb", compresslevel=6) as fh:
        pickle.dump(model, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _decode_model(handle):
    with gzip.open(handle, "rb") as fh:
        return pickle.load(fh)


MODEL_CODEC = Codec(
    suffix=".pkl.gz",
    encode=_encode_model,
    decode=_decode_model,
    # BadGzipFile is an OSError subclass: the content store checks
    # these before treating an OSError as a transient miss.
    corrupt=(EOFError, pickle.UnpicklingError, gzip.BadGzipFile),
)


class ModelCache(ContentStore):
    """Content-addressed store of fitted models.

    Entries live under ``root/models`` as ``<kind>-<key>.pkl.gz``, with
    the self-healing :class:`~repro.content_store.ContentStore`
    semantics: disabled caches miss, failed writes are counted
    ``put_failures``, undecodable entries are quarantined.
    """

    def __init__(self, root: str | Path | None = None, *, enabled: bool | None = None):
        root = cache_root() if root is None else Path(root)
        super().__init__(root / "models", MODEL_CODEC, enabled=enabled)

    @staticmethod
    def key_for(kind: str, data_digest: str, params: dict) -> str:
        payload = json.dumps(
            {
                "kind": kind,
                "data": data_digest,
                "params": {k: params[k] for k in sorted(params)},
                "code_version": code_version_token(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def fit_cached(
    kind: str,
    factory: Callable[[], object],
    x: np.ndarray,
    y: list[object],
    params: dict,
    *,
    cache: ModelCache | None = None,
):
    """Fit ``factory()`` on ``(x, y)``, short-circuiting via the cache.

    ``params`` must capture every hyperparameter the factory closes
    over — it is part of the content key alongside the data digest.
    """
    if cache is None:
        cache = ModelCache()
    key = cache.key_for(kind, dataset_digest(x, y), params)
    model = cache.get(kind, key)
    if model is not None:
        return model
    model = factory().fit(x, y)
    cache.put(kind, key, model)
    return model
