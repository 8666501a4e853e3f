"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one base class.  Input-validation
failures use the more specific subclasses below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class HierarchyError(ReproError):
    """The input graph is not a valid single-rooted DAG hierarchy."""


class CycleError(HierarchyError):
    """The input graph contains a directed cycle.

    Attributes
    ----------
    cycle:
        A list of node labels forming (part of) the offending cycle, when the
        validator could recover one; otherwise an empty list.
    """

    def __init__(self, message: str, cycle: list | None = None) -> None:
        super().__init__(message)
        self.cycle = list(cycle) if cycle else []


class DistributionError(ReproError):
    """A target-probability distribution failed validation."""


class CostModelError(ReproError):
    """A query-cost model failed validation (e.g. non-positive price)."""


class OracleError(ReproError):
    """An oracle was asked something it cannot answer (e.g. unknown node)."""


class PolicyError(ReproError):
    """A policy was driven through an invalid protocol sequence."""


class SearchError(ReproError):
    """An interactive search could not be completed."""


class PlanError(ReproError):
    """A compiled plan could not be built, loaded, or executed."""


class PoolError(ReproError):
    """The worker processes of a ``jobs=`` noisy sweep failed: they kept
    dying past the rebuild bound, could not be started, or raised an
    error that is not a :class:`ReproError` (wrapped here)."""


class PoolTimeoutError(PoolError):
    """A ``jobs=`` noisy sweep finished no shard for ``REPRO_POOL_DEADLINE``
    seconds.  The workers are terminated and the message names the
    unfinished shards and the worker pids — a wedged *alive* worker looks
    exactly like this, where a dead worker breaks the executor, which is
    rebuilt."""


class ServeError(ReproError):
    """The session-serving layer (:mod:`repro.serve`) was misused
    (e.g. submitting to a closed server, or an unregistered plan)."""


class ServeTimeoutError(ServeError):
    """``Server.drain(timeout=...)`` ran out of wall-clock budget with
    sessions still in flight or queued — the bounded alternative to the
    untimed drain's stall heuristic, for callers that need a hard
    guarantee (shutdown paths, chaos soaks)."""


class TransportError(ServeError):
    """The network transport (:mod:`repro.serve.transport`) failed: a
    malformed or oversized frame, a request deadline expired, the remote
    backend's circuit breaker is open, or the connection dropped
    mid-request.  Server-side *application* rejections keep their own
    types (:class:`AdmissionError` and friends) across the wire; this
    class covers the wire itself."""


class AdmissionError(ServeError):
    """A session was refused admission — the server is at its in-flight
    capacity and its waiting queue is full.  Producers should back off and
    retry; the server sheds load instead of growing without bound."""


class QuotaExceededError(AdmissionError):
    """A tenant tried to register more concurrent plans than its quota
    allows.  Release a plan (finish its sessions) or raise the quota."""


class AnalysisError(ReproError):
    """The static-analysis pass (:mod:`repro.analysis`) was misconfigured
    (unknown rule code, unreadable source path, or corrupt baseline file)."""


class SanitizerError(ReproError):
    """A runtime sanitizer check (``REPRO_SANITIZE=1``) caught an invariant
    violation — a sweep worker left alive after its executor closed, or a
    policy whose ``undo`` failed to restore the pre-answer state exactly.
    Loud by design: the violation is reported where it happens, not as a
    downstream diff."""


class FaultError(ReproError):
    """The fault-injection layer (:mod:`repro.faults`) was misused —
    arming a :class:`~repro.faults.FaultPlan` without ``REPRO_FAULTS=1``,
    nesting armed plans, or a chaos soak observing a violation (a hang,
    an untyped error, or a bit-identity divergence).  Soak violations
    carry the ``(seed, trace)`` pair that replays the failing schedule."""


class FaultInjectedError(ReproError):
    """A deterministically injected fault fired (``kind="crash"`` at an
    instrumented boundary with no more specific site exception).  Only
    ever raised while a :class:`~repro.faults.FaultPlan` is armed."""


class BudgetExceededError(SearchError):
    """The search exceeded its query budget before identifying the target.

    This guards against non-terminating policies; a correct policy on a valid
    hierarchy never triggers it with the default budget.
    """
