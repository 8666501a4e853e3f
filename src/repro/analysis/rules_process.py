"""RPA005/RPA006 — process-boundary exception discipline and pickle hygiene.

The noisy sweeps push work across a ``fork``/``spawn`` process boundary.
Two whole bug families live exactly at that seam:

**RPA005 — exception discipline.**  A worker that dies with an
unmarshalled exception looks, from the parent, like a hang or a silent
wrong answer; the contract is that a process entry point catches
*everything*, pickles the exception, and ships it home typed —
parent-side, only :class:`~repro.exceptions.ReproError` subclasses (or a
:class:`~repro.exceptions.PoolError` wrapper) resurface.  The rule
flags:

* ``except:`` with no exception type — it eats ``KeyboardInterrupt`` and
  ``SystemExit`` and makes worker shutdown undebuggable;
* a broad handler (``Exception``/``BaseException``) whose body is only
  ``pass`` — a swallowed error, unless the ``try`` body is a recognized
  *best-effort teardown idiom* (at most two simple statements: a call, an
  import, or a plain assignment — e.g. ``try: results.put(...) except
  Exception: pass`` on a dying queue);
* a process entry point (a function handed to a ``Process(target=...)``
  or ``Thread(target=...)`` call) with no broad handler anywhere in the
  code it can reach — exceptions would escape the process raw;
* ``raise <builtin exception>`` anywhere in the entry point's
  *transitive* call-graph envelope (module-local reachability via
  :class:`~repro.analysis.callgraph.ModuleCallGraph`, not just one hop)
  — raise a ``ReproError`` subclass instead so the error marshals typed
  instead of being wrapped opaquely.

**RPA006 — pickle hygiene.**  Under the ``spawn`` start method the
child *imports* its target, so lambdas and nested (local) functions
passed as ``target=``/``initializer=`` or submitted to an executor fail
only at runtime, on some platforms, with a pickling error three frames
away from the mistake.  The rule flags them at the call site.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import call_attr
from repro.analysis.diagnostics import Diagnostic

CODES = {
    "RPA005": (
        "process-boundary exceptions: no bare/swallowed broad excepts; "
        "process entry points must marshal every exception and raise only "
        "ReproError subclasses"
    ),
    "RPA006": (
        "pickle hygiene: no lambdas or locally-defined functions as "
        "Process targets, pool initializers, or executor submissions"
    ),
}

_BROAD = frozenset({"Exception", "BaseException"})

#: Builtin exception types that must not be raised inside worker entry
#: points — they marshal as opaque PoolError wrappers instead of typed
#: repro errors.
_BUILTIN_EXCEPTIONS = frozenset(
    {
        "Exception", "BaseException", "ValueError", "TypeError",
        "RuntimeError", "KeyError", "IndexError", "AttributeError",
        "OSError", "IOError", "LookupError", "ArithmeticError",
        "ZeroDivisionError", "AssertionError", "NotImplementedError",
        "StopIteration", "MemoryError", "OverflowError", "SystemError",
        "EOFError", "TimeoutError", "ConnectionError", "BufferError",
        "FileNotFoundError", "PermissionError", "UnicodeError",
    }
)

#: Executor/pool methods whose first positional argument crosses the
#: process boundary and therefore must be importable in the child.
_SUBMIT_METHODS = frozenset({"submit", "apply_async"})

#: Call kwargs whose value is a callable shipped to a child process.
_CALLABLE_KWARGS = frozenset({"target", "initializer"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if isinstance(t, ast.Name):
        return t.id in _BROAD
    if isinstance(t, ast.Tuple):
        return any(
            isinstance(e, ast.Name) and e.id in _BROAD for e in t.elts
        )
    return False


def _pass_only(body: list[ast.stmt]) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def _simple(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Pass)):
        return True
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, (ast.Call, ast.Constant))
    if isinstance(stmt, (ast.Assign, ast.AugAssign)):
        return isinstance(
            stmt.value, (ast.Call, ast.Constant, ast.Name, ast.Attribute)
        )
    if isinstance(stmt, ast.Delete):
        return True
    return False


def _best_effort(try_stmt: ast.Try) -> bool:
    """``try: one-or-two simple ops / except ...: pass`` — the teardown
    idiom for dying queues and already-closed handles."""
    return len(try_stmt.body) <= 2 and all(_simple(s) for s in try_stmt.body)


def _has_broad_handler(func: ast.AST) -> bool:
    return any(
        isinstance(node, ast.ExceptHandler) and _is_broad(node)
        for node in ast.walk(func)
    )


def _module_functions(tree: ast.AST) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


#: Call names whose ``target=`` kwarg is a process/thread entry point.
#: (Restricting to these keeps unrelated APIs with a ``target=`` kwarg —
#: e.g. a search request's target node — out of the worker envelope.)
_ENTRY_CALLS = frozenset({"Process", "Thread"})


def _entry_point_names(tree: ast.AST) -> set[str]:
    """Names handed to ``Process/Thread(target=...)`` in this module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if call_attr(node.func) not in _ENTRY_CALLS:
            continue
        for kw in node.keywords:
            if kw.arg == "target" and isinstance(kw.value, ast.Name):
                names.add(kw.value.id)
    return names


def _worker_scope(
    ctx, entry_name: str, functions: dict[str, ast.FunctionDef]
) -> list[ast.FunctionDef]:
    """Every module-local function the entry point can reach.

    Transitive closure over the module call graph — a builtin ``raise``
    three helpers deep still crosses the process boundary untyped, so the
    whole reachable envelope is in scope (the old rule stopped one hop
    out and missed exactly those).
    """
    graph = ctx.callgraph
    return [
        graph.functions[qual]
        for qual in sorted(graph.reachable([entry_name]))
    ]


def _nested_function_names(tree: ast.AST) -> set[str]:
    """Names of functions defined inside another function (unpicklable
    as spawn targets: the child cannot import them)."""
    nested: set[str] = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(outer):
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt is not outer
            ):
                nested.add(stmt.name)
    return nested


def _check_shipped_callable(
    ctx, value: ast.expr, role: str, nested: set[str]
) -> Iterator[Diagnostic]:
    if isinstance(value, ast.Lambda):
        yield ctx.diagnostic(
            value,
            "RPA006",
            f"lambda passed as {role} — unpicklable under the spawn start "
            "method; use a module-level function",
        )
    elif isinstance(value, ast.Name) and value.id in nested:
        yield ctx.diagnostic(
            value,
            "RPA006",
            f"locally-defined function {value.id!r} passed as {role} — the "
            "spawn child cannot import it; hoist it to module level",
        )


def check(ctx) -> Iterator[Diagnostic]:
    functions = _module_functions(ctx.tree)
    nested = _nested_function_names(ctx.tree)
    entry_names = _entry_point_names(ctx.tree)

    # --- RPA005: except discipline, everywhere -------------------------
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if handler.type is None:
                yield ctx.diagnostic(
                    handler,
                    "RPA005",
                    "bare 'except:' also catches KeyboardInterrupt and "
                    "SystemExit — name the exception types (or Exception) "
                    "explicitly",
                )
                continue
            if (
                _is_broad(handler)
                and _pass_only(handler.body)
                and not _best_effort(node)
            ):
                yield ctx.diagnostic(
                    handler,
                    "RPA005",
                    "broad except swallows the error with 'pass' — marshal "
                    "it (worker loops), re-raise as a ReproError, or narrow "
                    "the exception type",
                )

    # --- RPA005: process entry points marshal everything ---------------
    for name in sorted(entry_names):
        entry = functions.get(name)
        if entry is None:
            continue  # imported target — analyzed in its home module
        scope = _worker_scope(ctx, name, functions) or [entry]
        if not any(_has_broad_handler(f) for f in scope):
            yield ctx.diagnostic(
                entry,
                "RPA005",
                f"process entry point {name!r} has no broad exception "
                "handler — a mid-task exception escapes the process "
                "unmarshalled and the parent sees a hang",
            )
        for func in scope:
            for node in ast.walk(func):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                callee = exc.func if isinstance(exc, ast.Call) else exc
                if (
                    isinstance(callee, ast.Name)
                    and callee.id in _BUILTIN_EXCEPTIONS
                ):
                    yield ctx.diagnostic(
                        node,
                        "RPA005",
                        f"raise {callee.id} inside process entry scope "
                        f"({func.name}) — raise a ReproError subclass so "
                        "the error crosses the boundary typed",
                    )

    # --- RPA006: shipped callables must be importable ------------------
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if call_attr(node.func) == "Thread":
            # Threads share the address space: the target is never
            # pickled, so closures and lambdas are fine there.
            continue
        for kw in node.keywords:
            if kw.arg in _CALLABLE_KWARGS:
                yield from _check_shipped_callable(
                    ctx, kw.value, f"{kw.arg}=", nested
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SUBMIT_METHODS
            and node.args
        ):
            yield from _check_shipped_callable(
                ctx, node.args[0], f"{node.func.attr}() callable", nested
            )
