"""The boundary hook: :func:`schedule_point` and its fault-injection slot.

Code in the sweep/serve/cache stack and on the network edge calls
``schedule_point("<label>")`` at each of its operation boundaries (the
labels are registered, with the typed exception an injected failure
raises there, in :data:`repro.faults.sites.FAULT_SITES`).  With nothing
armed the hook costs one global load and a ``None`` check, so the
instrumentation ships in production code.  :mod:`repro.faults` arms it
with a seeded :class:`~repro.faults.FaultPlan`, which counts every
crossing and may inject a failure there.
"""

from __future__ import annotations

__all__ = ["schedule_point", "set_fault_hook"]

#: The armed fault-injection hook (:mod:`repro.faults`), or None.
#: Module-global on purpose: the hook must cost one load + one comparison
#: when idle.  Kept here (not in repro.faults) so the instrumented
#: packages never import the faults layer.
_FAULT_HOOK = None


def set_fault_hook(hook) -> None:
    """Install (or clear, with ``None``) the fault-injection callback,
    called with each :func:`schedule_point` label."""
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def schedule_point(label: str) -> None:
    """An instrumented boundary; no-op unless a fault plan is armed."""
    hook = _FAULT_HOOK
    if hook is not None:
        hook(label)
