"""On-disk cache of engine results, keyed by configuration + target set.

The paper's evaluation (Eq. 2) needs only each target's query count and
price, so this is the one cache that outlives a run.
:class:`EngineResultCache` persists the per-target cost arrays of an
:class:`~repro.engine.EngineResult` under ``<dir>/<result_key>.npz``, so
re-running an experiment with an unchanged
policy/hierarchy/distribution/price configuration skips both the compile
*and* the descent: the second run is one ``np.load``.

The key (:func:`result_key`) extends the configuration content hash
(:func:`repro.plan.compile.plan_key` — policy, hierarchy, distribution and
price fingerprints) with the evaluated target-index set and the query
budget, so sampled (Monte-Carlo) evaluations cache independently per
sample.  Entries store only the evaluated positions (not the full ``n``
arrays) plus the hierarchy fingerprint; corrupt or foreign files degrade to
a miss with a warning.

A process-wide default is installed with :func:`set_default_result_cache`
(the CLI's ``--result-cache`` flag) or the ``REPRO_RESULT_CACHE``
environment variable; the engine consults :func:`get_default_result_cache`
when no explicit cache is passed.
"""

from __future__ import annotations

import hashlib
import os
import uuid
import warnings
from pathlib import Path

import numpy as np

from repro.analysis.schedule import schedule_point
from repro.core.hierarchy import Hierarchy
from repro.exceptions import PlanError
from repro.plan.plan import fsync_dir

#: Conventional cache location (next to the benchmark reports).
DEFAULT_RESULT_CACHE_DIR = "results/enginecache"

#: On-disk format tag checked on load.
_FORMAT = "repro-engine-result-v1"


def result_key(
    config_key: str,
    target_ix: np.ndarray,
    budget: int,
    price_vec: np.ndarray,
) -> str:
    """Content hash identifying one engine run.

    ``config_key`` is the content hash of the compile configuration
    (:func:`repro.plan.compile.plan_key`); the target-index set pins the
    evaluated sample and ``budget`` the failure semantics (a run that
    would exceed a smaller budget must not be answered from a cache filled
    under a larger one).  ``price_vec`` is the *walk-time* price array:
    for policies it repeats information already inside ``config_key``, but
    a pre-compiled plan can be walked under a different cost model than it
    was compiled with, and those runs must not collide.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-result-key-v1\x00")
    digest.update(config_key.encode())
    digest.update(b"\x00")
    digest.update(str(int(budget)).encode())
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(price_vec, dtype=float).tobytes())
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(target_ix, dtype=np.int64).tobytes())
    return digest.hexdigest()


class EngineResultCache:
    """Content-addressed directory of persisted engine results.

    Attributes
    ----------
    hits, misses, errors:
        Per-instance counters: loads served from disk, lookups that fell
        through to a fresh walk, and unreadable/foreign cache files (each
        error also counts as a miss).
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.errors = 0

    def path_for(self, key: str) -> Path:
        """Cache file for a result key."""
        return self.directory / f"{key}.npz"

    def get(self, key: str, hierarchy: Hierarchy, *, require_checked=False):
        """The cached result for ``key``, or ``None`` on miss/corruption.

        The stored arrays are rebuilt into an
        :class:`~repro.engine.EngineResult` over the caller's ``hierarchy``
        (entries carry only a fingerprint, not the graph itself); a
        fingerprint mismatch is treated as corruption, not an error.

        ``require_checked`` refuses entries recorded by a run with
        ``check_correctness=False`` (a plain miss, not an error): a caller
        that asked for validation must never be served numbers that were
        never validated.
        """
        schedule_point("cache.result_get")
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                payload = {name: data[name] for name in data.files}
            if str(payload["format"]) != _FORMAT:
                raise ValueError(
                    f"format tag {str(payload['format'])!r} != {_FORMAT!r}"
                )
            if str(payload["key"]) != key:
                raise ValueError(
                    f"entry carries key {str(payload['key'])[:12]}..., "
                    f"expected {key[:12]}..."
                )
            if str(payload["hierarchy"]) != hierarchy.fingerprint():
                raise ValueError("entry was recorded on a different hierarchy")
            target_ix = np.ascontiguousarray(
                payload["target_ix"], dtype=np.int64
            )
            per_queries = np.asarray(payload["queries"], dtype=np.int64)
            per_prices = np.asarray(payload["prices"], dtype=float)
            if not (len(target_ix) == len(per_queries) == len(per_prices)):
                raise ValueError("misaligned result arrays")
        except Exception as exc:  # np.load failures take many shapes
            self.errors += 1
            self.misses += 1
            warnings.warn(
                f"ignoring unreadable engine-result cache entry {path}: {exc}",
                stacklevel=2,
            )
            return None
        if require_checked and not bool(payload.get("checked", False)):
            self.misses += 1
            return None
        from repro.engine.driver import EngineResult

        queries = np.full(hierarchy.n, -1, dtype=np.int64)
        prices = np.full(hierarchy.n, np.nan, dtype=float)
        queries[target_ix] = per_queries
        prices[target_ix] = per_prices
        self.hits += 1
        return EngineResult(
            policy=str(payload["policy"]),
            hierarchy=hierarchy,
            target_ix=target_ix,
            queries=queries,
            prices=prices,
            method=str(payload["method"]),
            decision_nodes=int(payload["decision_nodes"]),
        )

    def put(self, result, key: str, *, checked: bool = False) -> Path:
        """Store a result's evaluated arrays under ``key``.

        ``checked`` records whether the run validated every identification
        (``check_correctness``); unchecked entries are refused to callers
        that require validation.  Raises
        :class:`~repro.exceptions.PlanError` on an empty key (the
        configuration has no content hash, e.g. a policy without
        ``fingerprint()`` — such results cannot be addressed safely).
        """
        if not key:
            raise PlanError(
                f"engine result of {result.policy!r} has no content key; "
                "it cannot be cached"
            )
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Crash-atomic write: uniquely named temporary (concurrent
        # writers of the same key cannot clobber each other), fsync,
        # rename, directory fsync — a writer dying at any point
        # (including at the injectable ``cache.result_put`` boundary)
        # leaves the old entry or none, never a torn file.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    format=_FORMAT,
                    key=key,
                    policy=result.policy,
                    hierarchy=result.hierarchy.fingerprint(),
                    method=result.method,
                    decision_nodes=result.decision_nodes,
                    checked=bool(checked),
                    target_ix=result.target_ix,
                    queries=result.queries[result.target_ix],
                    prices=result.prices[result.target_ix],
                )
                fh.flush()
                os.fsync(fh.fileno())
            schedule_point("cache.result_put")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        fsync_dir(path.parent)
        return path

    def __repr__(self) -> str:
        return (
            f"EngineResultCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, errors={self.errors})"
        )


def as_result_cache(cache) -> EngineResultCache | None:
    """Coerce an ``EngineResultCache | path-like | None`` into an instance."""
    if cache is None or isinstance(cache, EngineResultCache):
        return cache
    return EngineResultCache(cache)


def resolve_result_cache(result_cache) -> EngineResultCache | None:
    """Resolve the engine's ``result_cache`` argument to a usable cache.

    ``False`` disables caching outright (ignoring the process default) —
    the opt-out timing callers rely on; ``None`` falls back to
    :func:`get_default_result_cache`; anything else coerces through
    :func:`as_result_cache`.
    """
    if result_cache is False:
        return None
    rcache = as_result_cache(result_cache)
    if rcache is None:
        rcache = get_default_result_cache()
    return rcache


_UNSET = object()
_default_result_cache: EngineResultCache | None | object = _UNSET


def set_default_result_cache(cache) -> None:
    """Install the process-wide default engine-result cache.

    ``cache`` may be an :class:`EngineResultCache`, a directory path, or
    ``None`` to disable caching (also overriding the environment variable).
    """
    global _default_result_cache
    _default_result_cache = as_result_cache(cache)


def get_default_result_cache() -> EngineResultCache | None:
    """The installed default, initialised from ``REPRO_RESULT_CACHE``.

    Returns ``None`` when neither :func:`set_default_result_cache` nor the
    environment variable configured one — the engine then always walks.
    """
    global _default_result_cache
    if _default_result_cache is _UNSET:
        directory = os.environ.get("REPRO_RESULT_CACHE")
        _default_result_cache = (
            EngineResultCache(directory) if directory else None
        )
    return _default_result_cache
