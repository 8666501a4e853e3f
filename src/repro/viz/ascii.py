"""ASCII rendering of hierarchies and compiled plans (for examples and docs)."""

from __future__ import annotations

from collections.abc import Hashable

from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.plan.plan import ROOT, CompiledPlan


def render_hierarchy(
    hierarchy: Hierarchy,
    *,
    distribution: TargetDistribution | None = None,
    max_nodes: int = 200,
) -> str:
    """Indented tree view of a hierarchy (DAG nodes re-appear per parent).

    With a distribution, each node is annotated with its probability.
    Rendering stops after ``max_nodes`` lines with an ellipsis marker.
    """
    lines: list[str] = []
    budget = max_nodes

    def annotate(label: Hashable) -> str:
        if distribution is None:
            return str(label)
        return f"{label} ({distribution.p(label):.2%})"

    def walk(label: Hashable, prefix: str, tail: bool, is_root: bool) -> None:
        nonlocal budget
        if budget <= 0:
            return
        budget -= 1
        if is_root:
            lines.append(annotate(label))
        else:
            connector = "`-- " if tail else "|-- "
            lines.append(prefix + connector + annotate(label))
        children = hierarchy.children(label)
        for i, child in enumerate(children):
            extension = "" if is_root else ("    " if tail else "|   ")
            walk(child, prefix + extension, i == len(children) - 1, False)

    walk(hierarchy.root, "", True, True)
    if budget <= 0:
        lines.append("... (truncated)")
    return "\n".join(lines)


def render_decision_tree(plan: CompiledPlan, *, max_depth: int = 8) -> str:
    """Indented yes/no view of a policy's decision tree (its compiled plan).

    A branch no target is consistent with (:data:`~repro.plan.NO_PATH`)
    prints as ``(no target)``.
    """
    label = plan.hierarchy.label
    query, yes, no, target = (
        plan.query_ix, plan.yes_child, plan.no_child, plan.target_ix
    )
    lines: list[str] = []

    def walk(node: int, prefix: str, branch: str, depth: int) -> None:
        if node < 0:
            lines.append(f"{prefix}{branch}(no target)")
            return
        if target[node] >= 0:
            lines.append(f"{prefix}{branch}=> {label(int(target[node]))}")
            return
        lines.append(f"{prefix}{branch}reach({label(int(query[node]))})?")
        if depth >= max_depth:
            lines.append(f"{prefix}    ... (truncated at depth {max_depth})")
            return
        walk(int(yes[node]), prefix + "    ", "Y: ", depth + 1)
        walk(int(no[node]), prefix + "    ", "N: ", depth + 1)

    walk(ROOT, "", "", 0)
    return "\n".join(lines)
