"""RPA009 — fault-site registry discipline for ``schedule_point`` labels.

Fault injection (:mod:`repro.faults.inject`) arms one instrumentation
surface: the string labels passed to
:func:`repro.analysis.schedule.schedule_point`.  An injected ``crash``
at a boundary raises the *typed* exception registered for that label in
:data:`repro.faults.sites.FAULT_SITES` — which only works if every
boundary label actually is registered, and registered to a
:class:`~repro.exceptions.ReproError` subclass.  A label invented at a
call site but never added to the registry would crash with the generic
fallback instead of the boundary's contract type; a label built at
runtime cannot be audited at all.

The rule flags, at each ``schedule_point`` call:

* a non-literal label (f-string, variable, concatenation) — the
  site registry is a static contract, so labels must be string
  literals;
* a literal label missing from ``FAULT_SITES`` when the call lives in
  repo source (ad-hoc labels in tests and fixtures fall back to
  :class:`~repro.exceptions.FaultInjectedError`);
* a literal label the registry maps to something that is not a
  ``ReproError`` subclass — injected failures must stay inside the
  typed error taxonomy the resilience layer catches.

Registry checks degrade gracefully to literalness-only when
``repro.faults`` is not importable (the analyzer also runs on bare
checkouts).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import resolve
from repro.analysis.diagnostics import Diagnostic

CODES = {
    "RPA009": (
        "fault-site registry: schedule_point labels must be string "
        "literals registered in repro.faults.sites.FAULT_SITES, mapping "
        "to ReproError subclasses"
    ),
}

#: Resolved callables whose first argument is a fault-site label.
_POINT_FUNCS = frozenset(
    {
        "repro.analysis.schedule.schedule_point",
        "schedule_point",
    }
)


def _registry():
    """``(FAULT_SITES, ReproError)`` or ``None`` on a bare install.

    Imported lazily inside the rule: ``repro.faults.sites`` only pulls
    :mod:`repro.exceptions`, but importing it at module load would tie
    the analyzer's import graph to the injection package for every rule
    run that never meets a schedule point.
    """
    try:
        from repro.exceptions import ReproError
        from repro.faults.sites import FAULT_SITES
    except ImportError:  # pragma: no cover - bare-checkout analyzers
        return None
    return FAULT_SITES, ReproError


def check(ctx) -> Iterator[Diagnostic]:
    registry = None
    registry_loaded = False
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if resolve(node.func, ctx.imports) not in _POINT_FUNCS:
            continue
        if not node.args:
            continue  # a missing argument is the interpreter's problem
        label_node = node.args[0]
        if not (
            isinstance(label_node, ast.Constant)
            and isinstance(label_node.value, str)
        ):
            yield ctx.diagnostic(
                node,
                "RPA009",
                "schedule_point() label must be a string literal — the "
                "fault-site registry (FAULT_SITES) is a static contract "
                "and a computed label cannot be audited against it",
            )
            continue
        label = label_node.value
        if not registry_loaded:
            registry = _registry()
            registry_loaded = True
        if registry is None:
            continue
        sites, repro_error = registry
        if label not in sites:
            # Ad-hoc labels outside the repo tree (tests, fixtures) fall
            # back to a typed FaultInjectedError; only the instrumented
            # stack's own schedule points must be registered.
            if ctx.repro_parts:
                yield ctx.diagnostic(
                    node,
                    "RPA009",
                    f"schedule point label {label!r} is not registered "
                    "in repro.faults.sites.FAULT_SITES — every "
                    "instrumented boundary must name the typed exception "
                    "an injected crash raises there",
                )
            continue
        exc = sites[label]
        if not (isinstance(exc, type) and issubclass(exc, repro_error)):
            yield ctx.diagnostic(
                node,
                "RPA009",
                f"FAULT_SITES maps {label!r} to "
                f"{getattr(exc, '__name__', exc)!r}, which is not a "
                "ReproError subclass — injected crashes must stay inside "
                "the typed error taxonomy the resilience layer handles",
            )
