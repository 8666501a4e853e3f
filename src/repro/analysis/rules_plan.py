"""RPA002 — compiled-plan immutability.

A :class:`~repro.plan.CompiledPlan`'s four flat arrays are *shared*
state: every live cursor, server and forked sweep worker reads the same
bytes, so a single in-place write corrupts the plan for all of them,
silently.  The hierarchy's cached reachability indexes are shared too:
every kernel built on a hierarchy reads the same arrays.  The arrays are
built read-only, but numpy's read-only flag can be flipped back and views
can launder mutability, so the rule flags the write *sites*:

* any assignment, item-store, or in-place op targeting a plan array
  attribute (``query_ix``/``yes_child``/``no_child``/``target_ix`` or the
  underlying ``_query``/``_yes``/``_no``/``_target`` slots);
* the same through a local alias — a name bound from a plan-array read,
  ``payload_arrays()``, ``reachability_closure()``,
  ``reachability_matrix()`` or ``tree_intervals()``, **or from any
  module-local helper that (transitively) returns such an alias** — the
  call graph's return-alias fixpoint
  (:meth:`~repro.analysis.callgraph.ModuleCallGraph.tainting_functions`)
  closes the old one-hop limitation, so a helper that launders
  ``plan.payload_arrays()["query"]`` through two levels of ``return``
  still taints the name its result is bound to;
* ``setflags(write=True)`` anywhere: un-freezing a frozen array is how
  every "impossible" plan corruption starts.

``plan/plan.py`` itself constructs the arrays (via ``object.__setattr__``
before freezing, which this rule does not match), and ``plan/lazy.py`` is
the *incremental* constructor (its same-named slots are mutable Python
lists, private to one process, by design).  ``self.<attr> = ...`` inside an
``__init__`` is likewise exempt — a class binding its *own* attribute of
the same name (e.g. a result record with a ``target_ix`` field) is
construction, not mutation of a plan.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import call_attr
from repro.analysis.diagnostics import Diagnostic

CODES = {
    "RPA002": (
        "compiled-plan immutability: no writes to CompiledPlan arrays or "
        "the cached reachability indexes outside their constructors"
    ),
}

#: Attribute names that read as "a CompiledPlan array".
_PLAN_ATTRS = frozenset(
    {
        "_query", "_yes", "_no", "_target",
        "query_ix", "yes_child", "no_child", "target_ix",
    }
)

#: Zero-argument-ish accessors whose results alias protected storage.
_TAINTING_CALLS = frozenset(
    {
        "payload_arrays",
        "reachability_closure",
        "reachability_matrix",
        "tree_intervals",
    }
)


_NO_EXTRA: frozenset[str] = frozenset()


def _protected_attr(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute) and node.attr in _PLAN_ATTRS:
        return node.attr
    return None


def _taints(value: ast.expr, extra: frozenset[str] = _NO_EXTRA) -> bool:
    """``value`` *aliases* protected storage (rather than copying it).

    Structural, not a blanket subtree scan: ``np.where(answers,
    plan.yes_child[nodes], ...)`` and fancy-indexed reads allocate fresh
    arrays and must not taint.  What does alias:

    * a bare protected-attribute read (``plan.query_ix``);
    * a basic slice of one (``plan.query_ix[2:]`` is a numpy view);
    * any subscript of a tainting accessor's result
      (``plan.payload_arrays()["query"]`` is the array itself);
    * the accessor calls themselves — including module-local helpers the
      call-graph fixpoint proved to return aliases (``extra``);
    * ternaries/containers where any branch/element aliases.
    """
    if _protected_attr(value):
        return True
    if isinstance(value, ast.Call):
        name = call_attr(value.func)
        return name in _TAINTING_CALLS or name in extra
    if isinstance(value, ast.Subscript):
        if _protected_attr(value.value):
            return isinstance(value.slice, ast.Slice)
        return _taints(value.value, extra)
    if isinstance(value, ast.IfExp):
        return _taints(value.body, extra) or _taints(value.orelse, extra)
    if isinstance(value, (ast.Tuple, ast.List)):
        return any(_taints(e, extra) for e in value.elts)
    if isinstance(value, ast.NamedExpr):
        return _taints(value.value, extra)
    return False


def _returns_alias(fn: ast.AST, tainting_names: frozenset[str]) -> bool:
    """``fn`` has a ``return`` whose value aliases protected storage.

    This is the seed/step predicate for the call graph's return-alias
    fixpoint: ``tainting_names`` carries the helpers already known to
    launder aliases, so indirection of any depth converges.
    """
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Return)
            and node.value is not None
            and _taints(node.value, tainting_names)
        ):
            return True
    return False


def _tainted_names(func: ast.AST, extra: frozenset[str] = _NO_EXTRA) -> set[str]:
    """Names bound (anywhere in ``func``) from protected-array aliases."""
    tainted: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        if not _taints(node.value, extra):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                tainted.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        tainted.add(element.id)
    return tainted


def _store_targets(node: ast.stmt) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def check(ctx) -> Iterator[Diagnostic]:
    # The eager and incremental plan constructors own their storage; only
    # the un-freeze check applies to them.
    in_plan_module = ctx.repro_parts[-2:] in (
        ("plan", "plan.py"),
        ("plan", "lazy.py"),
    )

    # Module-local helpers that (transitively) return protected aliases:
    # calling one taints the bound name exactly like a direct accessor.
    laundering = frozenset(
        qual.rpartition(".")[2]
        for qual in ctx.callgraph.tainting_functions(_returns_alias)
    )

    # Function-scope taint maps, computed lazily per enclosing function.
    taint_by_func: dict[ast.AST, set[str]] = {}
    func_of: dict[ast.stmt, ast.AST] = {}
    for func in ast.walk(ctx.tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(func):
                if isinstance(stmt, ast.stmt):
                    func_of.setdefault(stmt, func)

    def tainted_for(stmt: ast.stmt) -> set[str]:
        func = func_of.get(stmt)
        if func is None:
            return set()
        if func not in taint_by_func:
            taint_by_func[func] = _tainted_names(func, laundering)
        return taint_by_func[func]

    def _own_init_binding(stmt: ast.stmt, target: ast.expr) -> bool:
        """``self.<attr> = ...`` inside an ``__init__``: a class binding
        its own same-named attribute, not a write through a plan."""
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return False
        func = func_of.get(stmt)
        return getattr(func, "name", None) == "__init__"

    for node in ast.walk(ctx.tree):
        # setflags(write=True) — anywhere, any receiver.
        if isinstance(node, ast.Call) and call_attr(node.func) == "setflags":
            for kw in node.keywords:
                if (
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value in (True, 1)
                ):
                    yield ctx.diagnostic(
                        node,
                        "RPA002",
                        "setflags(write=True) re-enables writes on a frozen "
                        "array — plan and reachability buffers are shared "
                        "zero-copy across workers; copy instead",
                    )
        if in_plan_module:
            continue
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        for target in _store_targets(node):
            # plan._query = ... / plan.query_ix = ... (attribute rebinding)
            attr = _protected_attr(target)
            if attr is not None and not _own_init_binding(node, target):
                yield ctx.diagnostic(
                    node,
                    "RPA002",
                    f"assignment to {attr!r} outside its constructor — "
                    "CompiledPlan arrays are immutable once built; compile "
                    "a new plan instead",
                )
                continue
            # plan.query_ix[...] = ... / plan.yes_child[...] |= ...
            if isinstance(target, ast.Subscript):
                # Walk nested subscripts down to the stored-into base:
                # arrays["query"][0] = ... stores through `arrays`.
                base = target.value
                while isinstance(base, ast.Subscript):
                    base = base.value
                attr = _protected_attr(base)
                if attr is not None:
                    yield ctx.diagnostic(
                        node,
                        "RPA002",
                        f"item-store into {attr!r} — these arrays are "
                        "shared by every cursor and server reading the "
                        "plan; one write corrupts all of them",
                    )
                    continue
                if (
                    isinstance(base, ast.Name)
                    and base.id in tainted_for(node)
                ):
                    yield ctx.diagnostic(
                        node,
                        "RPA002",
                        f"item-store through {base.id!r}, an alias of a "
                        "compiled-plan/reachability array — these views "
                        "are shared and read-only by contract",
                    )
