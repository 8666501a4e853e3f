"""Precompiled policies: execute a stored decision tree.

Building a greedy policy's decision tree costs a pass over the hierarchy per
question, which is wasteful when the same hierarchy and distribution serve
millions of objects.  :class:`StaticTreePolicy` decouples the two phases:
compile any deterministic policy into its decision tree once
(:func:`repro.core.decision_tree.build_decision_tree`), persist it with
``DecisionTree.to_dict``, and execute searches by walking the stored tree —
``O(1)`` per question, zero per-object setup.

Compilation preserves costs exactly: the static policy asks the identical
question sequence as the compiled policy for every target.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.core.decision_tree import DecisionTree, Leaf, Question
from repro.core.policy import Policy
from repro.exceptions import PolicyError, SearchError


class StaticTreePolicy(Policy):
    """Replays a compiled decision tree as an interactive policy."""

    name = "StaticTree"
    uses_distribution = False
    supports_undo = True
    #: The wrapped tree is not captured by the fingerprint, so results of
    #: a StaticTree must not be cached on disk by key.
    plan_cacheable = False

    def __init__(self, tree: DecisionTree) -> None:
        super().__init__()
        self.tree = tree

    def _reset_state(self) -> None:
        if self.hierarchy is not self.tree.hierarchy:
            # Allow equivalent hierarchies (e.g. reloaded from disk) as long
            # as the node sets line up; queries outside it would be garbage.
            missing = [
                n for n in self.tree.hierarchy.nodes if n not in self.hierarchy
            ]
            if missing:
                raise SearchError(
                    f"decision tree references nodes missing from the "
                    f"hierarchy, e.g. {missing[:3]}"
                )
        self._cursor: Question | Leaf = self.tree.root

    def done(self) -> bool:
        self._require_reset()
        return isinstance(self._cursor, Leaf)

    def result(self) -> Hashable:
        if not isinstance(self._cursor, Leaf):
            raise PolicyError("StaticTree has not reached a leaf yet")
        return self._cursor.target

    def _select_query(self) -> Hashable:
        assert isinstance(self._cursor, Question)
        return self._cursor.query

    def _apply_answer(self, query: Hashable, answer: bool) -> None:
        assert isinstance(self._cursor, Question)
        if self._undo_enabled:
            self._undo_log.append((query, answer, self._cursor))
        self._cursor = self._cursor.yes if answer else self._cursor.no

    def _revert_answer(self, query: Hashable, answer: bool, payload) -> None:
        self._cursor = payload
