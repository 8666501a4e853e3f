"""Registry of injectable boundaries and their typed failure modes.

Every ``schedule_point(label)`` in the sweep/serve/cache stack, the
network edge and the oracle wrapper is an *injectable boundary*: the fault layer (:mod:`repro.faults.inject`) may
fire a fault there, and the ``kind="crash"`` fault raises the exception
class registered here — so an injected failure always surfaces as the
same typed :class:`~repro.exceptions.ReproError` subclass a real failure
of that boundary would produce, never as a bare ``Exception`` the
resilience layer cannot classify.

The registry is the contract lint rule RPA009
(:mod:`repro.analysis.rules_faults`) enforces statically: every
``schedule_point`` call in ``src/repro`` must use a literal label that
appears in :data:`FAULT_SITES`, and every registered exception must be a
:class:`~repro.exceptions.ReproError` subclass.  Adding an instrumented
boundary without deciding its failure type is a lint error by design.
The converse is a test: every registered label keeps at least one
literal ``schedule_point`` call, so no entry outlives its boundary.
"""

from __future__ import annotations

from repro.exceptions import (
    AdmissionError,
    FaultInjectedError,
    OracleError,
    PoolError,
    PoolTimeoutError,
    ReproError,
    ServeError,
    ServeTimeoutError,
    TransportError,
)

__all__ = ["FAULT_SITES", "site_exception"]

#: ``schedule_point`` label -> exception type an injected crash raises
#: there.  Grouped by the subsystem that owns the boundary.
FAULT_SITES: dict[str, type[ReproError]] = {
    # -- The noisy sweeps' warm executor (repro.engine.belief)
    "pool.collect": PoolTimeoutError,  # one result poll of a sweep
    "pool.restart.rebuild": PoolError,  # rebuild after a worker death
    # -- serve.Server (session serving over shared plans)
    "serve.register_plan": ServeError,
    "serve.release_plan": ServeError,
    "serve.submit": AdmissionError,
    "serve.admit_from_queue": ServeError,
    "serve.step": ServeError,
    "serve.drain": ServeTimeoutError,
    "serve.close": ServeError,
    # -- serve.transport (network edge, on the event loop)
    "transport.accept": TransportError,  # server accepting a connection
    "transport.open": AdmissionError,  # session open admission
    "transport.read": TransportError,  # server reading a client frame
    "transport.write": TransportError,  # server writing a batch of replies
    "transport.connect": TransportError,  # client dialing the backend
    "transport.request": TransportError,  # client request path
    "transport.drain": ServeTimeoutError,  # graceful-drain window
    # -- The result cache and plan files (crash-atomic write windows)
    "cache.result_get": FaultInjectedError,
    "cache.result_put": FaultInjectedError,
    "plan.save": FaultInjectedError,
    # -- Oracle edge (repro.faults.FlakyOracle wraps any oracle)
    "oracle.answer": OracleError,
}


def site_exception(label: str) -> type[ReproError]:
    """The typed exception an injected crash raises at ``label``.

    Unregistered labels fall back to
    :class:`~repro.exceptions.FaultInjectedError` — RPA009 keeps the
    in-repo instrumentation registered, but ad-hoc labels in tests and
    fixtures should still fail typed.
    """
    return FAULT_SITES.get(label, FaultInjectedError)
