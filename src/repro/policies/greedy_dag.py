"""``GreedyDAG`` — the efficient rounded greedy on DAGs (Algorithms 6 and 7).

The DAG instantiation of the greedy policy with the Equation-(1) rounded
weights (Theorem 1's ``2(1 + 3 ln n)`` guarantee).  Two ideas make it
``O(n m)`` instead of the naive ``O(n^2 m)``:

* **Pruned top-down selection** (Alg. 6, Lines 4–11): starting a BFS at the
  current root, a node ``v`` whose reachable-set weight satisfies
  ``2 w̃(v) <= w̃(r)`` dominates all of its descendants — their objective
  ``|2 w̃(y) − w̃(r)|`` cannot beat ``v``'s — so the BFS never expands below
  it.
* **Incremental weight maintenance** (Alg. 7, ``AdjustWeight``): on a *no*
  answer, each node ``x`` of the removed subgraph ``G_q`` contributes
  ``w(x)`` to exactly the alive ancestors that can still reach it.
  :func:`remove_subgraph` applies the whole answer in one pass: it flags
  ``G_q`` dead, finds the alive ancestors outside it with one reverse BFS,
  and subtracts from each the weights of the removed nodes it reaches.

The initial ``w̃(v) = w(G_v)`` vector comes from
:meth:`repro.core.hierarchy.Hierarchy.reach_weight_vector`: a bottom-up sum
on trees and, on DAGs, exact sums of the integer Equation-(1) weights over
the cached CSR reachability closure (the raw variant's probabilities take
the reachability matrix product instead).  It is cached across resets on
the same ``(hierarchy, distribution)`` pair so that all-targets evaluation
does not recompute it ``n`` times.  ``WIGS`` maintains its reachable-set
counts with the same :func:`remove_subgraph`, using unit weights.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable
from itertools import chain

from repro.core.hierarchy import Hierarchy
from repro.core.policy import Policy
from repro.exceptions import PolicyError


def remove_subgraph(
    hierarchy: Hierarchy,
    alive: bytearray,
    values: list[float],
    weights: list[float],
    q: int,
) -> tuple[list[int], list[int], list[float]]:
    """Answer *no* to ``q``: remove ``G_q``, keep ``values`` exact (Alg. 7).

    ``values[v]`` is the weight of ``v``'s alive reachable set.  The alive
    set is closed under ancestors, so hierarchy reachability decides which
    removed nodes an alive node loses.  ``G_q`` is walked in BFS order and
    flagged dead; one reverse BFS that never re-enters it finds the alive
    ancestors of ``q``, which lose all of ``G_q``, then (on DAGs) the side
    ancestors, which lose part of it.  Each drops those weights one at a
    time in removal order: float subtraction is not associative, and the
    paper's order (one reverse BFS per removed node) keeps values, decisions
    and plans bit-identical for unrounded weights too.  Dead nodes keep
    stale values, which nothing reads before :func:`restore_subgraph`.

    Returns the undo record ``(removed, touched, old)``: the removed nodes,
    and the alive nodes whose values changed with their old values.
    """
    removed = [q]
    alive[q] = 0
    for u in removed:  # ``removed`` grows while it is walked: a BFS queue
        for v in hierarchy.children_ix(u):
            if alive[v]:
                alive[v] = 0
                removed.append(v)
    seen: set[int] = set()
    upper = _alive_ancestors(hierarchy, alive, seen, (q,))
    side = _alive_ancestors(hierarchy, alive, seen, removed[1:])
    touched = upper + side
    old = [values[a] for a in touched]
    dropped = [x for x in removed if weights[x]]
    for a in upper:
        value = values[a]
        for x in dropped:
            value -= weights[x]
        values[a] = value
    if side:
        # A side ancestor reaches a few removed nodes (two on average on
        # the SMALL ImageNet-like DAG): intersect, then restore their order.
        rank = {x: i for i, x in enumerate(dropped)}
        ranked = frozenset(rank)
        for a in side:
            value = values[a]
            for x in sorted(hierarchy.descendants_ix(a) & ranked, key=rank.__getitem__):
                value -= weights[x]
            values[a] = value
    return removed, touched, old


def restore_subgraph(alive: bytearray, values: list[float], removal: tuple) -> None:
    """Exactly revert one :func:`remove_subgraph` call (the most recent)."""
    removed, touched, old = removal
    for x in removed:
        alive[x] = 1
    for a, value in zip(touched, old):
        values[a] = value


def _alive_ancestors(
    hierarchy: Hierarchy, alive: bytearray, seen: set[int], sources: Iterable[int]
) -> list[int]:
    """Alive ancestors of ``sources`` not yet in ``seen`` (which grows), BFS order."""
    found: list[int] = []
    for u in chain(sources, found):  # ``found`` grows while it is walked
        for p in hierarchy.parents_ix(u):
            if alive[p] and p not in seen:
                seen.add(p)
                found.append(p)
    return found


class GreedyDagPolicy(Policy):
    """Rounded greedy with pruned selection and one-pass weight maintenance."""

    name = "GreedyDAG"
    uses_distribution = True
    supports_undo = True
    # Derived from the (excluded) hierarchy and distribution; it also holds
    # the hierarchy, whose lazy reachability caches fill up mid-walk.
    undo_fingerprint_exclude = ("_static_cache",)

    def __init__(self, *, rounded: bool = True) -> None:
        super().__init__()
        self.rounded = rounded
        if not rounded:
            self.name = "GreedyDAG(raw)"
        self._static_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Initialisation (Alg. 6, Lines 1-2)
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        h, dist = self.hierarchy, self.distribution
        cache = self._static_cache
        if cache is None or cache[0] is not h or cache[1] is not dist:
            if self.rounded:
                weights = dist.rounded_weights(h).astype(float)
            else:
                weights = dist.as_array(h)
            tilde0 = h.reach_weight_vector(weights)
            # Python float lists: Alg. 6 and 7 index them one scalar at a
            # time, which costs several times more on numpy arrays.
            cache = (h, dist, weights.tolist(), tilde0.tolist())
            self._static_cache = cache
        self._w = cache[2]
        self._tilde = list(cache[3])
        self._alive = bytearray([1] * h.n)
        self._root = h.root_ix

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def done(self) -> bool:
        self._require_reset()
        children = self.hierarchy.children_ix
        return not any(self._alive[c] for c in children(self._root))

    def result(self) -> Hashable:
        if not self.done():
            raise PolicyError("GreedyDAG has not identified the target yet")
        return self.hierarchy.label(self._root)

    # ------------------------------------------------------------------
    # Alg. 6, Lines 4-11: pruned BFS for the middle point
    # ------------------------------------------------------------------
    def _select_query(self) -> Hashable:
        h = self.hierarchy
        alive = self._alive
        tilde = self._tilde
        total = tilde[self._root]
        best = None
        best_val = float("inf")
        visited = {self._root}
        queue = deque([self._root])
        while queue:
            u = queue.popleft()
            for v in h.children_ix(u):
                if not alive[v] or v in visited:
                    continue
                visited.add(v)
                value = abs(2.0 * tilde[v] - total)
                if value < best_val:
                    best_val = value
                    best = v
                if 2.0 * tilde[v] > total:
                    queue.append(v)
        if best is None:
            raise PolicyError("select_query called on a settled search")
        return h.label(best)

    # ------------------------------------------------------------------
    # Alg. 6 Lines 12-15 and Alg. 7: state update
    # ------------------------------------------------------------------
    def _apply_answer(self, query: Hashable, answer: bool) -> None:
        q = self.hierarchy.index(query)
        if answer:
            if self._undo_enabled:
                self._undo_log.append((query, True, self._root))
            self._root = q
            return
        removal = remove_subgraph(
            self.hierarchy, self._alive, self._tilde, self._w, q
        )
        if self._undo_enabled:
            self._undo_log.append((query, False, removal))

    def _revert_answer(self, query: Hashable, answer: bool, payload) -> None:
        if answer:
            self._root = payload
        else:
            restore_subgraph(self._alive, self._tilde, payload)

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    def maintained_weight(self, label: Hashable) -> float:
        """Current maintained ``w̃`` of a node."""
        return self._tilde[self.hierarchy.index(label)]

    def recomputed_weight(self, label: Hashable) -> float:
        """``w(G_v)`` recomputed from scratch over the alive subgraph."""
        h = self.hierarchy
        reach = h.descendants_ix(h.index(label))
        return float(sum(self._w[v] for v in reach if self._alive[v]))

    def is_candidate(self, label: Hashable) -> bool:
        return bool(self._alive[self.hierarchy.index(label)])
