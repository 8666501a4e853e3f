"""Module-level function index and cross-function alias propagation.

RPA002's alias taint used to stop at the binding function's boundary,
so a helper that *returns* ``plan.payload_arrays()`` laundered the alias
past the rule.  :meth:`ModuleCallGraph.tainting_functions` closes that
gap for one parsed module: it computes, to a fixpoint, the set of local
functions whose *return value* aliases storage the caller must treat as
protected (seeded by a rule-supplied predicate over return expressions).
A call to any of them taints the name it is bound to, exactly like a
direct ``payload_arrays()`` read, however many helpers deep.

Resolution is by name within the module: the linter analyzes one file at
a time, and a callee in another module is audited in its home module.
"""

from __future__ import annotations

import ast
from collections.abc import Callable

__all__ = ["ModuleCallGraph"]


class ModuleCallGraph:
    """The functions and methods of one module, by qualified name."""

    def __init__(self, tree: ast.Module) -> None:
        #: Qualified name (``Class.method`` / ``function``) -> def node.
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self._index(tree, cls=None)
        self._taint_cache: dict[int, frozenset[str]] = {}

    def _index(self, node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._index(child, cls=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{cls}.{child.name}" if cls else child.name
                # First definition wins on (rare) duplicate names.
                self.functions.setdefault(qual, child)
                # Nested defs are indexed under their own name, but they
                # do not shadow the enclosing scope.
                self._index(child, cls=cls)
            else:
                self._index(child, cls=cls)

    def tainting_functions(
        self,
        returns_alias: Callable[[ast.AST, frozenset[str]], bool],
    ) -> frozenset[str]:
        """Local functions whose return value aliases protected storage.

        ``returns_alias(fn_node, tainting_call_names)`` is the rule's
        verdict on one function given the *call names* (final attribute /
        bare name) currently known to taint; the set grows monotonically
        until stable, so a helper returning another helper's result is
        caught at any depth.  Results are memoized per predicate.
        """
        key = id(returns_alias)
        cached = self._taint_cache.get(key)
        if cached is not None:
            return cached
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            names = frozenset(q.rpartition(".")[2] for q in tainted)
            for qual, fn in self.functions.items():
                if qual in tainted:
                    continue
                if returns_alias(fn, names):
                    tainted.add(qual)
                    changed = True
        result = frozenset(tainted)
        self._taint_cache[key] = result
        return result
