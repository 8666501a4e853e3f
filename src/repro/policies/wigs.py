"""``WIGS`` — the worst-case IGS baseline (Tao et al., SIGMOD'19 style).

The paper compares against the heavy-path-based binary search developed for
*worst-case* interactive graph search: probability-oblivious, near-optimal in
the maximum number of questions.  This module implements that strategy:

* **Trees** — repeatedly build the heavy path (by candidate count) from the
  current root down to a leaf, then binary-search the deepest yes-node on
  that path; every *no* answer prunes the corresponding subtree, every outer
  round descends at least one heavy-path segment.
* **DAGs** — the same interleaving on a *heavy chain* built by always moving
  to the alive child with the largest reachable-set count; reachable-set
  counts are maintained exactly as in ``GreedyDAG`` but with unit node
  weights (a documented substitution for Tao et al.'s more intricate DAG
  decomposition — it preserves the defining behaviour: halve the candidate
  count per question, ignore probabilities).

Both variants reuse the incremental-update machinery of the greedy policies,
so WIGS runs at ``GreedyTree``/``GreedyDAG`` speed and can be evaluated over
every target of the scaled datasets.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro.core.policy import Policy
from repro.exceptions import PolicyError
from repro.policies.greedy_dag import remove_subgraph, restore_subgraph


class WigsPolicy(Policy):
    """Heavy-path binary search minimising the worst-case query count."""

    name = "WIGS"
    uses_distribution = False
    supports_undo = True
    # Derived from the (excluded) hierarchy; it also holds the hierarchy,
    # whose lazy reachability caches fill up mid-walk.
    undo_fingerprint_exclude = ("_static_cache",)

    def __init__(self) -> None:
        super().__init__()
        self._static_cache: tuple | None = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        h = self.hierarchy
        cache = self._static_cache
        if cache is None or cache[0] is not h:
            ones = np.ones(h.n)
            cache = (h, ones.tolist(), h.reach_weight_vector(ones).tolist())
            self._static_cache = cache
        self._ones = cache[1]
        #: Number of alive nodes reachable from each node, maintained by
        #: GreedyDAG's one-pass Alg. 7 with unit weights.
        self._count = list(cache[2])
        self._alive = bytearray([1] * h.n)
        self._root = h.root_ix
        # Binary-search state over the current heavy path/chain.
        self._path: list[int] = []
        self._lo = 0
        self._hi = -1
        self._mid = 0

    def done(self) -> bool:
        self._require_reset()
        if any(self._alive[c] for c in self.hierarchy.children_ix(self._root)):
            return False
        return True

    def result(self) -> Hashable:
        if not self.done():
            raise PolicyError("WIGS has not identified the target yet")
        return self.hierarchy.label(self._root)

    # ------------------------------------------------------------------
    # Heavy path / chain construction
    # ------------------------------------------------------------------
    def _alive_children(self, v: int) -> list[int]:
        return [
            c for c in self.hierarchy.children_ix(v) if self._alive[c]
        ]

    def _build_path(self) -> None:
        """Heavy path from the root: index 0 is the root itself."""
        path = [self._root]
        v = self._root
        while True:
            children = self._alive_children(v)
            if not children:
                break
            v = max(children, key=lambda c: (self._count[c], -c))
            path.append(v)
        self._path = path
        self._lo = 0
        self._hi = len(path) - 1
        # Root is a known yes; nothing to ask on a single-node path.

    def _select_query(self) -> Hashable:
        if not self._path or self._lo >= self._hi:
            self._build_path()
        if self._lo >= self._hi:
            raise PolicyError("select_query called on a settled search")
        self._mid = (self._lo + self._hi + 1) // 2
        return self.hierarchy.label(self._path[self._mid])

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _apply_answer(self, query: Hashable, answer: bool) -> None:
        q = self.hierarchy.index(query)
        # The binary-search cursor state is (re)built inside _select_query,
        # so an exact undo must restore it as of *this* query's proposal —
        # _path is replaced (never mutated), keeping the reference is safe.
        search_state = (self._path, self._lo, self._hi, self._mid, self._root)
        if answer:
            if self._undo_enabled:
                self._undo_log.append((query, True, (search_state, None)))
            self._lo = self._mid
            self._root = q
            return
        removal = remove_subgraph(
            self.hierarchy, self._alive, self._count, self._ones, q
        )
        if self._undo_enabled:
            self._undo_log.append((query, False, (search_state, removal)))
        self._hi = self._mid - 1

    def _revert_answer(self, query: Hashable, answer: bool, payload) -> None:
        search_state, removal = payload
        if removal is not None:
            restore_subgraph(self._alive, self._count, removal)
        self._path, self._lo, self._hi, self._mid, self._root = search_state
