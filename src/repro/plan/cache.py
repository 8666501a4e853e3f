"""On-disk cache of compiled plans, keyed by configuration content hash.

Repeated experiment runs recompile the exact same (policy, hierarchy,
distribution, cost model) configurations — everything is seeded, so the
inputs are bit-identical across runs.  :class:`PlanCache` persists each
compiled plan under ``<dir>/<config_key>.plan`` (the key is
:func:`repro.plan.compile.plan_key`) so the second run loads instead of
recompiling.  Corrupt or foreign files are treated as misses and
overwritten, never as errors.

A process-wide default cache can be installed with :func:`set_default_cache`
(the CLI's ``--plan-cache`` flag does this) or the ``REPRO_PLAN_CACHE``
environment variable; :func:`get_default_cache` is consulted by the engine
when no explicit cache is passed.  The conventional location is
:data:`DEFAULT_CACHE_DIR`.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

from repro.analysis.schedule import schedule_point
from repro.core.costs import QueryCostModel
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.policy import Policy
from repro.exceptions import PlanError
from repro.plan.compile import compile_policy, plan_key
from repro.plan.plan import CompiledPlan

#: Conventional cache location (next to the benchmark reports).
DEFAULT_CACHE_DIR = "results/plancache"


class PlanCache:
    """Content-addressed directory of compiled plans.

    Attributes
    ----------
    hits, misses, errors:
        Per-instance counters: loads served from disk, compilations
        performed, and unreadable cache files encountered (each error also
        counts as a miss).
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.errors = 0

    def path_for(self, key: str) -> Path:
        """Cache file for a configuration key."""
        return self.directory / f"{key}.plan"

    def get(self, key: str) -> CompiledPlan | None:
        """The cached plan for ``key``, or None on miss/corruption."""
        schedule_point("cache.plan_get")
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            plan = CompiledPlan.load(path)
        except PlanError as exc:
            self.errors += 1
            warnings.warn(
                f"ignoring unreadable plan-cache entry {path}: {exc}",
                stacklevel=2,
            )
            return None
        if plan.config_key != key:
            self.errors += 1
            warnings.warn(
                f"plan-cache entry {path} carries key "
                f"{plan.config_key[:12]}..., expected {key[:12]}...; ignoring",
                stacklevel=2,
            )
            return None
        return plan

    def probe(self, key: str) -> CompiledPlan | None:
        """Look up a plan without compiling on a miss, counting the hit.

        Used by the engine's sampled-evaluation path, which falls back to
        compiling only the part of the plan the sample reaches (never
        stored) when nothing is on disk — so a probe miss is *not* counted
        in :attr:`misses` (that counter tracks full compilations).  A
        corrupt entry is deleted after the usual warning: no compile will
        overwrite it here, and without the cleanup every later probe would
        warn about the same file.
        """
        plan = self.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        path = self.path_for(key)
        if path.exists():  # get() warned: corrupt or foreign — drop it
            path.unlink(missing_ok=True)
        return None

    def put(self, plan: CompiledPlan) -> Path:
        """Store a plan under its own :attr:`~CompiledPlan.config_key`."""
        if not plan.config_key:
            raise PlanError(
                f"plan of {plan.policy_name!r} has no content key (the "
                "policy is not plan_cacheable); use plan.save(path) instead"
            )
        schedule_point("cache.plan_put")
        path = self.path_for(plan.config_key)
        plan.save(path)
        return path

    def get_or_compile(
        self,
        policy: Policy,
        hierarchy: Hierarchy,
        distribution: TargetDistribution | None = None,
        cost_model: QueryCostModel | None = None,
        **compile_kwargs,
    ) -> CompiledPlan:
        """Load the plan for this configuration, compiling on a miss.

        Policies whose fingerprint cannot capture their behaviour
        (:attr:`Policy.plan_cacheable` false) are compiled fresh and never
        written to disk.
        """
        if not getattr(policy, "plan_cacheable", True):
            self.misses += 1
            return compile_policy(
                policy, hierarchy, distribution, cost_model, **compile_kwargs
            )
        key = plan_key(policy, hierarchy, distribution, cost_model)
        plan = self.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        self.misses += 1
        plan = compile_policy(
            policy, hierarchy, distribution, cost_model, **compile_kwargs
        )
        self.put(plan)
        return plan

    def __repr__(self) -> str:
        return (
            f"PlanCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, errors={self.errors})"
        )


def as_plan_cache(cache) -> PlanCache | None:
    """Coerce a ``PlanCache | path-like | None`` into a cache instance."""
    if cache is None or isinstance(cache, PlanCache):
        return cache
    return PlanCache(cache)


_UNSET = object()
_default_cache: PlanCache | None | object = _UNSET


def set_default_cache(cache) -> None:
    """Install the process-wide default plan cache.

    ``cache`` may be a :class:`PlanCache`, a directory path, or ``None`` to
    disable caching (also overriding the environment variable).
    """
    global _default_cache
    _default_cache = as_plan_cache(cache)


def get_default_cache() -> PlanCache | None:
    """The installed default cache, initialised from ``REPRO_PLAN_CACHE``.

    Returns ``None`` when neither :func:`set_default_cache` nor the
    environment variable configured one — callers then compile in memory.
    """
    global _default_cache
    if _default_cache is _UNSET:
        directory = os.environ.get("REPRO_PLAN_CACHE")
        _default_cache = PlanCache(directory) if directory else None
    return _default_cache
