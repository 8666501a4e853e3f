"""repro.faults — deterministic fault injection + resilience policies.

Injection half (:mod:`repro.faults.inject`, enabled with
``REPRO_FAULTS=1``): a seeded, replayable :class:`FaultPlan` fires
sweep-worker kills and stalls, cache-write crashes and typed exceptions
at the stack's :func:`~repro.analysis.schedule.schedule_point`
boundaries — the boundary -> typed-exception contract lives in
:data:`~repro.faults.sites.FAULT_SITES` and is lint-enforced (RPA009).

Resilience half (:mod:`repro.faults.resilience`): the policies the
injections force the stack to need — :class:`RetryPolicy` (bounded
exponential backoff, seeded deterministic jitter; used for the sweep
executor's death-recovery pacing) and :class:`CircuitBreaker` (tick-based
trip -> cooldown -> single-probe -> restore; used per backend in
:class:`~repro.serve.ServeClient`).  Deadlines themselves live on the
noisy sweeps (``REPRO_POOL_DEADLINE``) and
:meth:`~repro.serve.Server.drain`, raising
:class:`~repro.exceptions.PoolTimeoutError` /
:class:`~repro.exceptions.ServeTimeoutError` instead of hanging.

``benchmarks/bench_faults.py`` is the chaos soak: hundreds of seeded
fault schedules against the real server and ``jobs=2`` noisy sweeps,
asserting no hangs, typed errors only, and bit-identical completed
sessions and sweeps.
"""

from repro.faults.inject import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    FlakyOracle,
    enabled,
)
from repro.faults.resilience import CircuitBreaker, RetryPolicy
from repro.faults.sites import FAULT_SITES, site_exception

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "FlakyOracle",
    "RetryPolicy",
    "enabled",
    "site_exception",
]
