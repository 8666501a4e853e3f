"""RPA003 — shared-memory segment lifecycle.

A ``multiprocessing.shared_memory.SharedMemory`` handle is an OS resource
with no garbage collector backstop that matters: a segment that is created
and never ``unlink``ed survives the process in ``/dev/shm``, and a mapping
that is never ``close``d pins its pages.  Code that touches the raw
handle must release it on **every** path, exception paths included — the
historical leak shape is::

    shm = SharedMemory(name=seg)   # attach
    meta = parse(shm.buf)          # raises on a torn segment...
    shm.close()                    # ...and the mapping leaks

Per function, the rule finds each name bound to a ``SharedMemory(...)``
call and requires that the handle either *escapes* (returned/yielded,
stored on an object or into a container, or passed to another call — the
receiver now owns the lifecycle, e.g. a registry) or is
``close()``/``unlink()``ed; and that any non-trivial statement executed
between creation and that hand-off is protected by a ``try`` whose
handler or ``finally`` releases the handle.  ``with SharedMemory(...)``
and ``contextlib.closing`` count as released.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import is_docstring, resolve, walk_functions
from repro.analysis.diagnostics import Diagnostic

CODES = {
    "RPA003": (
        "shm lifecycle: every SharedMemory create/attach must reach "
        "close()/unlink() or escape to an owner on all paths, including "
        "exception paths"
    ),
}

_RELEASE_METHODS = frozenset({"close", "unlink"})


def _is_shm_call(node: ast.expr, imports: dict[str, str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    resolved = resolve(node.func, imports)
    if resolved is None:
        return False
    return resolved == "SharedMemory" or resolved.endswith(".SharedMemory")


def _releases(node: ast.AST, name: str) -> bool:
    """``name.close()`` / ``name.unlink()`` anywhere inside ``node``."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _RELEASE_METHODS
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id == name
        ):
            return True
    return False


def _is_handle_ref(expr: ast.expr, name: str) -> bool:
    """``expr`` passes the handle itself along (not just e.g. ``shm.buf``).

    The handle escapes when the *object* is handed over — directly, or
    inside a container literal.  An attribute read (``shm.buf``,
    ``shm.size``) shares data, not ownership, and must not count.
    """
    if isinstance(expr, ast.Name):
        return expr.id == name
    if isinstance(expr, ast.Starred):
        return _is_handle_ref(expr.value, name)
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_handle_ref(e, name) for e in expr.elts)
    if isinstance(expr, ast.Dict):
        return any(
            v is not None and _is_handle_ref(v, name)
            for v in (*expr.keys, *expr.values)
        )
    return False


def _escapes(node: ast.AST, name: str) -> bool:
    """The handle leaves this function's ownership inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
            if sub.value is not None and _is_handle_ref(sub.value, name):
                return True
        elif isinstance(sub, ast.Call):
            # The handle object passed to any call other than its own
            # release methods: the callee (registry entry, container,
            # callback) owns the lifecycle now.
            if any(_is_handle_ref(arg, name) for arg in sub.args):
                return True
            if any(
                kw.value is not None and _is_handle_ref(kw.value, name)
                for kw in sub.keywords
            ):
                return True
        elif isinstance(sub, ast.Assign):
            if not _is_handle_ref(sub.value, name):
                continue
            for target in sub.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return True
    return False


def _handled(node: ast.AST, name: str) -> bool:
    return _releases(node, name) or _escapes(node, name)


def _trivial(stmt: ast.stmt) -> bool:
    """Statements that cannot plausibly raise before the hand-off."""
    if isinstance(stmt, (ast.Pass, ast.Break, ast.Continue, ast.Global,
                         ast.Nonlocal)):
        return True
    if is_docstring(stmt):
        return True
    if isinstance(stmt, ast.Assign):
        return isinstance(stmt.value, (ast.Constant, ast.Name))
    return False


def _try_protects(stmt: ast.Try, name: str) -> bool:
    """A try whose finally or every handler releases the handle."""
    if _releases(ast.Module(body=stmt.finalbody, type_ignores=[]), name):
        return True
    return bool(stmt.handlers) and all(
        _releases(ast.Module(body=h.body, type_ignores=[]), name)
        for h in stmt.handlers
    )


def _successors(body: list[ast.stmt], creation: ast.stmt) -> list[ast.stmt] | None:
    """Statements executing after ``creation``, walking out of nesting.

    Returns ``None`` when ``creation`` is not in this subtree.
    """
    for i, stmt in enumerate(body):
        if stmt is creation:
            return list(body[i + 1 :])
        for child_body in _child_blocks(stmt):
            rest = _successors(child_body, creation)
            if rest is not None:
                return rest + list(body[i + 1 :])
    return None


def _child_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    blocks: list[list[ast.stmt]] = []
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if block:
            blocks.append(block)
    for handler in getattr(stmt, "handlers", ()) or ():
        blocks.append(handler.body)
    return blocks


def check(ctx) -> Iterator[Diagnostic]:
    for func in walk_functions(ctx.tree):
        # with SharedMemory(...) as shm: lifecycle is managed — skip those.
        managed: set[ast.expr] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        managed.add(sub)

        creations: list[tuple[ast.stmt, str]] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if node.value in managed or not _is_shm_call(
                node.value, ctx.imports
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    creations.append((node, target.id))

        for creation, name in creations:
            if not _handled(func, name):
                yield ctx.diagnostic(
                    creation,
                    "RPA003",
                    f"SharedMemory handle {name!r} is never close()d, "
                    "unlink()ed, or handed to an owner — the segment "
                    "mapping leaks on every path",
                )
                continue
            # Exception-path audit: scan what runs after creation until
            # the hand-off; unprotected non-trivial work in between leaks
            # the handle when it raises.
            successors = _successors(func.body, creation) or []
            risky: ast.stmt | None = None
            for stmt in successors:
                if isinstance(stmt, ast.Try) and _try_protects(stmt, name):
                    if _handled(stmt, name):
                        risky = None
                        break
                    continue  # protected region; keep scanning after it
                if _handled(stmt, name):
                    if risky is not None:
                        yield ctx.diagnostic(
                            risky,
                            "RPA003",
                            f"statement may raise before {name!r} is "
                            "released — wrap it in a try whose handler or "
                            "finally closes the segment",
                        )
                    risky = None
                    break
                if not _trivial(stmt) and risky is None:
                    risky = stmt
            else:
                # Fell off the scan without an unconditional hand-off;
                # _handled(func) passed, so the release is conditional —
                # treat the first risky statement as the finding, if any.
                if risky is not None:
                    yield ctx.diagnostic(
                        risky,
                        "RPA003",
                        f"statement may raise before {name!r} is released "
                        "on this path — close the segment in a finally or "
                        "exception handler",
                    )
