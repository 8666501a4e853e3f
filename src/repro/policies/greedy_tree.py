"""``GreedyTree`` — the efficient greedy instantiation on trees (Algorithm 4).

Theorem 5 of the paper shows the middle point of a tree always lies on the
*weighted heavy path* from the root (Definition 10): at every internal node
the child with the largest subtree weight dominates its siblings and all of
their descendants.  ``GreedyTree`` therefore walks down heavy edges only,
comparing at most ``h * d`` nodes per round instead of all ``n``.

State maintenance follows the paper exactly:

* ``SetWeightDFS`` (Algorithm 5) initialises subtree weights ``~p(v)`` and
  sizes once, in one bottom-up pass;
* a *yes* answer just re-roots the search at the query node;
* a *no* answer subtracts the removed subtree's weight and size along the
  root-to-query path (Lines 11–14) — everything off that path keeps valid
  values.

Total time ``O(n h d)``, or ``O(n h log d)`` with the max-heap child index of
the paper's footnote 3 (``heap_children=True``).

A caveat surfaced by the property tests: with *zero-probability* regions,
every split of a zero-mass subchain ties at the same middle-point objective,
and Definition 4's "break ties arbitrarily" can then walk such a chain one
node at a time — the Theorem-2 constant does not cover that degenerate case
(the underlying analyses assume positive weights).  In practice this only
affects targets that were assumed impossible; use ``rounded=True`` or a
smoothed distribution when zero-mass targets matter.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable

from repro.core.policy import Policy
from repro.exceptions import HierarchyError, PolicyError


class GreedyTreePolicy(Policy):
    """Weighted-heavy-path greedy for tree hierarchies.

    Parameters
    ----------
    rounded:
        Use Equation-(1) rounded integer weights instead of raw
        probabilities.
    heap_children:
        Maintain a lazy max-heap over each node's children (footnote 3),
        replacing the ``O(d)`` child scan by ``O(log d)`` amortised pops.
    """

    name = "GreedyTree"
    uses_distribution = True
    supports_undo = True
    #: The child-heap index is a lazily-invalidated cache: _revert_answer
    #: rebuilds it (clear + on-demand heapify) instead of restoring its
    #: layout byte-for-byte, and every surviving entry is re-validated
    #: against the live weights on pop — so heap layout is not part of the
    #: exact-undo state contract.
    undo_fingerprint_exclude = ("_heaps",)

    def __init__(
        self, *, rounded: bool = False, heap_children: bool = False
    ) -> None:
        super().__init__()
        self.rounded = rounded
        self.heap_children = heap_children
        if rounded:
            self.name = "GreedyTree(rounded)"

    def fingerprint(self) -> str:
        # heap_children is not reflected in the name but can break weight
        # ties differently (heap order vs child-list order), producing a
        # different decision structure — it must split the plan key.
        return f"{super().fingerprint()}:heap_children={self.heap_children}"

    # ------------------------------------------------------------------
    # Algorithm 5: SetWeightDFS
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        h, dist = self.hierarchy, self.distribution
        if not h.is_tree:
            raise HierarchyError(
                "GreedyTree requires a tree hierarchy; use GreedyDAG instead"
            )
        if self.rounded:
            probs = dist.rounded_weights(h).astype(float)
        else:
            probs = dist.as_array(h)
        n = h.n
        tilde_p = [float(probs[v]) for v in range(n)]
        size = [1] * n
        # Bottom-up accumulation over the topological order is the iterative
        # equivalent of the recursive SetWeightDFS.
        for v in reversed(h.topo_ix):
            for c in h.children_ix(v):
                tilde_p[v] += tilde_p[c]
                size[v] += size[c]
        self._tilde_p = tilde_p
        self._size = size
        self._root = h.root_ix
        self._removed: set[int] = set()
        self._last_path: list[int] = []
        if self.heap_children:
            self._heaps: dict[int, list[tuple[float, int]]] = {}

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def done(self) -> bool:
        self._require_reset()
        return self._size[self._root] <= 1

    def result(self) -> Hashable:
        if not self.done():
            raise PolicyError("GreedyTree has not identified the target yet")
        return self.hierarchy.label(self._root)

    # ------------------------------------------------------------------
    # Algorithm 4, Lines 4-9: walk the weighted heavy path
    # ------------------------------------------------------------------
    def _select_query(self) -> Hashable:
        root = self._root
        wt = self._tilde_p
        # When the remaining candidates carry no probability mass the
        # weighted walk is uninformative; fall back to splitting by size,
        # which preserves progress and keeps the policy well defined.
        if wt[root] <= 0:
            wt = [float(s) for s in self._size]
        total = wt[root]
        path = [root]
        u = None
        v = root
        while 2.0 * wt[v] > total:
            heavy = self._heaviest_child(v, wt)
            if heavy is None:  # v is a leaf of the candidate tree
                break
            u = v
            v = heavy
            path.append(v)
        if u is None:
            # Degenerate: even the root fails the descent test (zero mass).
            heavy = self._heaviest_child(root, wt)
            if heavy is None:
                raise PolicyError("select_query called on a settled search")
            query = heavy
            path.append(heavy)
        elif abs(2.0 * wt[u] - total) <= abs(2.0 * wt[v] - total):
            query = u
        else:
            query = v
        if query == root:
            # The root itself can win the comparison only in degenerate
            # zero-weight ties; querying it is informationless, so take the
            # heavy child instead.
            query = path[1] if len(path) > 1 else self._heaviest_child(root, wt)
        self._last_path = path[: path.index(query) + 1]
        return self.hierarchy.label(query)

    def _heaviest_child(self, v: int, wt) -> int | None:
        """Alive child of ``v`` with the largest subtree weight."""
        if self.heap_children and wt is self._tilde_p:
            return self._heaviest_child_heap(v)
        best = None
        best_wt = -1.0
        for c in self.hierarchy.children_ix(v):
            if c in self._removed:
                continue
            if wt[c] > best_wt:
                best_wt = wt[c]
                best = c
        return best

    def _heaviest_child_heap(self, v: int) -> int | None:
        """Footnote-3 variant: lazy max-heap keyed by current ``~p``.

        Entries are invalidated lazily: a popped entry whose stored weight no
        longer matches the child's live weight is re-pushed with the fresh
        value.  Each ``no`` answer changes weights only along one path, so
        amortised maintenance is ``O(log d)``.
        """
        heap = self._heaps.get(v)
        if heap is None:
            heap = [
                (-self._tilde_p[c], c)
                for c in self.hierarchy.children_ix(v)
                if c not in self._removed
            ]
            heapq.heapify(heap)
            self._heaps[v] = heap
        while heap:
            neg_wt, c = heap[0]
            if c in self._removed:
                heapq.heappop(heap)
                continue
            if -neg_wt != self._tilde_p[c]:
                heapq.heappop(heap)
                heapq.heappush(heap, (-self._tilde_p[c], c))
                continue
            return c
        return None

    # ------------------------------------------------------------------
    # Algorithm 4, Lines 10-14: state update
    # ------------------------------------------------------------------
    def _apply_answer(self, query: Hashable, answer: bool) -> None:
        q = self.hierarchy.index(query)
        if answer:
            if self._undo_enabled:
                # _last_path is rebuilt by every _select_query; the record
                # keeps the one belonging to *this* query so that observing
                # the sibling answer after undo() sees the right path.
                self._undo_log.append(
                    (query, True, (self._root, self._last_path, None))
                )
            self._root = q
            return
        if self._undo_enabled:
            saved = [
                (v, self._tilde_p[v], self._size[v])
                for v in self._last_path[:-1]
            ]
            self._undo_log.append(
                (query, False, (self._root, self._last_path, saved))
            )
        removed_weight = self._tilde_p[q]
        removed_size = self._size[q]
        for v in self._last_path[:-1]:
            self._tilde_p[v] -= removed_weight
            self._size[v] -= removed_size
        self._removed.add(q)

    def _revert_answer(self, query: Hashable, answer: bool, payload) -> None:
        old_root, last_path, saved = payload
        if answer:
            self._root = old_root
        else:
            for v, tilde, size in saved:
                self._tilde_p[v] = tilde
                self._size[v] = size
            self._removed.discard(self.hierarchy.index(query))
            if self.heap_children:
                # Lazily-dropped heap entries (e.g. for the just-revived
                # node) cannot be resurrected in place; rebuild on demand.
                self._heaps.clear()
        self._last_path = last_path

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    def candidate_count(self) -> int:
        """Number of remaining candidates (``size(r)``)."""
        self._require_reset()
        return self._size[self._root]

    def subtree_weight(self, label: Hashable) -> float:
        """Current maintained ``~p`` of a node (tests compare vs recompute)."""
        return self._tilde_p[self.hierarchy.index(label)]
