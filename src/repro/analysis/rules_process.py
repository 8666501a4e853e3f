"""RPA005/RPA006 — exception discipline and pickle hygiene.

The noisy sweeps push work across a ``fork``/``spawn`` process boundary
on a stdlib ``ProcessPoolExecutor``, which marshals a worker's exception
to the parent (where the sweep types it).  Two bug families remain for
the linter:

**RPA005 — exception discipline.**  The rule flags:

* ``except:`` with no exception type — it eats ``KeyboardInterrupt`` and
  ``SystemExit`` and makes worker shutdown undebuggable;
* a broad handler (``Exception``/``BaseException``) whose body is only
  ``pass`` — a swallowed error, unless the ``try`` body is a recognized
  *best-effort teardown idiom* (at most two simple statements: a call, an
  import, or a plain assignment — e.g. ``try: results.put(...) except
  Exception: pass`` on a dying queue).

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
        "exception discipline: no bare excepts, no broad excepts that "
        "swallow the error with 'pass'"
    ),
    "RPA006": (
        "pickle hygiene: no lambdas or locally-defined functions as "
        "Process targets, pool initializers, or executor submissions"
    ),
}

_BROAD = frozenset({"Exception", "BaseException"})

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
    nested = _nested_function_names(ctx.tree)

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
