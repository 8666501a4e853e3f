"""Runtime sanitizers — the path-sensitive half of :mod:`repro.analysis`.

The static rules prove what is provable from source; these checks catch
the remainder while tests (or a cautious production run) execute, and
they stay **off by default**: every entry point here is a no-op unless
the ``REPRO_SANITIZE`` environment variable is set to something truthy
(anything but empty/``0``/``false``).  CI runs the sweep-worker, serve
and bit-identity suites once more with ``REPRO_SANITIZE=1``.

Three checks live here:

* **array freezing** — :func:`freeze` marks lazily-built reachability
  caches (:meth:`Hierarchy.reachability_matrix`,
  :meth:`Hierarchy.reachability_closure`,
  :meth:`Hierarchy.tree_intervals`) read-only at construction, the same
  treatment :class:`CompiledPlan` arrays get unconditionally, so an
  in-place write anywhere downstream fails loudly at the write site
  instead of corrupting a shared cache;

* **worker leak tracking** — the noisy sweeps' warm executor records
  every worker process it starts; closing it
  (:func:`repro.engine.belief.close_sweep_executor`) asserts
  :func:`check_workers_exited`, which raises :class:`SanitizerError`
  naming any worker still alive (the tests' session fixture makes the
  same promise for the whole process with
  ``multiprocessing.active_children()``);

* **undo integrity** — :func:`undo_checker` fingerprints a policy's
  state before every ``observe`` of the plan compiler's one-reset
  undo-DFS and verifies, after the matching ``undo``, that the state is
  *exactly* restored.  Fingerprints normalize away iteration order
  (dict/set), so only real state drift trips it — the class of bug that
  otherwise surfaces as a bit-identity diff three layers downstream.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from repro.exceptions import SanitizerError

#: State attributes excluded from undo fingerprints: configuration
#: references a policy never mutates per-answer (re-fingerprinting a
#: whole hierarchy per step would be absurd), and the undo machinery's
#: own bookkeeping (the journal legitimately shrinks on undo).
_FINGERPRINT_EXCLUDE = frozenset(
    {
        "hierarchy", "_hierarchy",
        "distribution", "_distribution",
        "cost_model", "_cost_model", "model", "_model",
        "_undo_log", "_undo_enabled",
    }
)

_MAX_DEPTH = 12


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
        "", "0", "false", "off", "no",
    )


# ----------------------------------------------------------------------
# Array freezing
# ----------------------------------------------------------------------
def freeze(array: np.ndarray | None) -> np.ndarray | None:
    """Mark ``array`` read-only when sanitizing; returns it either way."""
    if array is not None and enabled():
        array.setflags(write=False)
    return array


# ----------------------------------------------------------------------
# Worker leak tracking
# ----------------------------------------------------------------------
def check_workers_exited(processes: Iterable, owner: str) -> None:
    """Raise :class:`SanitizerError` if any of ``processes`` is alive.

    Called (under ``REPRO_SANITIZE=1``) after an owner tears down, with
    every worker process it ever started; close joins or terminates them
    all, so anything still running leaked.
    """
    if not enabled():
        return
    leaked = sorted(p.pid for p in processes if p.is_alive())
    if leaked:
        raise SanitizerError(
            f"{owner} closed but {len(leaked)} worker process(es) are "
            f"still alive: pids {leaked} — close must join or terminate "
            "every worker it started"
        )


# ----------------------------------------------------------------------
# Undo integrity
# ----------------------------------------------------------------------
def _normalize(value, depth: int, seen: set[int]):
    """Order-insensitive, identity-free view of a policy state value."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if depth <= 0:
        return ("<depth>", type(value).__name__)
    if id(value) in seen:
        return ("<cycle>", type(value).__name__)
    seen = seen | {id(value)}
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.generic):
        return ("npscalar", value.dtype.str, value.item())
    if isinstance(value, bytearray):
        return ("bytearray", bytes(value))
    if isinstance(value, dict):
        items = [
            (_normalize(k, depth - 1, seen), _normalize(v, depth - 1, seen))
            for k, v in value.items()
        ]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(value, (set, frozenset)):
        return (
            "set",
            tuple(sorted((_normalize(v, depth - 1, seen) for v in value),
                         key=repr)),
        )
    if isinstance(value, (list, tuple)):
        return (
            type(value).__name__,
            tuple(_normalize(v, depth - 1, seen) for v in value),
        )
    # Arbitrary object: recurse over its attribute state.
    state = _attr_state(value)
    if state is None:
        return ("repr", repr(value))
    return (
        type(value).__name__,
        _normalize(state, depth - 1, seen),
    )


def _attr_state(obj) -> dict | None:
    state: dict = {}
    if getattr(obj, "__dict__", None):
        state.update(obj.__dict__)
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()) or ():
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                state[slot] = getattr(obj, slot)
            except AttributeError:
                pass
    return state or None


def fingerprint_state(policy) -> dict:
    """Normalized snapshot of a policy's mutable per-answer state.

    Skips the global exclusions plus whatever the policy itself declares
    in ``undo_fingerprint_exclude`` (rebuilt-on-demand caches).
    """
    state = _attr_state(policy) or {}
    exclude = _FINGERPRINT_EXCLUDE.union(
        getattr(policy, "undo_fingerprint_exclude", ()) or ()
    )
    return {
        name: _normalize(value, _MAX_DEPTH, set())
        for name, value in state.items()
        if name not in exclude
    }


class UndoIntegrityChecker:
    """Stack of pre-``observe`` fingerprints, verified after each ``undo``.

    The compiler's undo-DFS nests observe/undo pairs strictly, so a
    stack mirrors its traversal exactly: push before ``observe``, pop
    and compare after the matching ``undo``.
    """

    __slots__ = ("_policy", "_stack")

    def __init__(self, policy) -> None:
        self._policy = policy
        self._stack: list[dict] = []

    def before_observe(self) -> None:
        self._stack.append(fingerprint_state(self._policy))

    def after_undo(self) -> None:
        expected = self._stack.pop()
        actual = fingerprint_state(self._policy)
        if actual != expected:
            drifted = sorted(
                k
                for k in expected.keys() | actual.keys()
                if expected.get(k, "<missing>") != actual.get(k, "<missing>")
            )
            raise SanitizerError(
                f"{type(self._policy).__name__}.undo() did not restore the "
                f"pre-observe state exactly; drifted attribute(s): "
                f"{', '.join(drifted) or '<unknown>'} — exact undo is the "
                "contract the one-reset compile walk is built on"
            )


class _NullChecker:
    __slots__ = ()

    def before_observe(self) -> None:
        pass

    def after_undo(self) -> None:
        pass


_NULL_CHECKER = _NullChecker()


def undo_checker(policy) -> UndoIntegrityChecker | _NullChecker:
    """An integrity checker for ``policy``, or a no-op when disabled."""
    return UndoIntegrityChecker(policy) if enabled() else _NULL_CHECKER
