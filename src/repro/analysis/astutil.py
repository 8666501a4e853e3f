"""Small shared AST helpers for the rule modules.

Everything here is stdlib ``ast`` only — the analyzer must run on a bare
python install (CI lint jobs, pre-commit hooks) with no repo imports
beyond :mod:`repro.exceptions`.
"""

from __future__ import annotations

import ast


def import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for every top-level-ish import.

    ``import time`` maps ``time -> time``; ``import numpy as np`` maps
    ``np -> numpy``; ``from time import sleep as zz`` maps
    ``zz -> time.sleep``.  Imports are collected from the whole module
    (function-local imports included) — a rare shadowing collision is an
    acceptable imprecision for a linter.
    """
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else local
                out[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: origin unknown, keep suffix
                base = "." * node.level + (node.module or "")
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}" if base else alias.name
    return out


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Dotted name of ``node`` with its import head rewritten to the origin.

    ``np.random.seed`` resolves to ``numpy.random.seed`` when ``np`` was
    imported as numpy; names with no matching import come back verbatim
    (``self._cg.restore`` stays ``self._cg.restore``).
    """
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = imports.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


def call_attr(node: ast.expr) -> str | None:
    """For a call's ``func``, the final attribute name (``x.y.close -> close``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
