"""Single-rooted DAG hierarchies (the search substrate of IGS/AIGS).

The paper abstracts a category hierarchy as a directed acyclic graph
``G = (V, E)`` with exactly one root (Section II).  :class:`Hierarchy` is an
immutable, validated representation of such a graph.  Node labels may be any
hashable values; internally every node is also assigned a dense integer index
(``0 .. n-1``) so that search policies can run on flat lists, which matters
for the efficiency experiments (Fig. 6).

Label-level methods (``children``, ``descendants``, ...) are the public API.
Index-level methods carry an ``_ix`` suffix and are the documented
performance API used by the policies in :mod:`repro.policies`.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Hashable, Iterable, Sequence
from itertools import chain
from typing import Any

import numpy as np

from repro.exceptions import CycleError, HierarchyError

#: Default label used when a dummy root must be synthesised for a multi-rooted
#: input (the construction suggested in Section II of the paper).
DUMMY_ROOT = "__root__"

#: Above this many nodes the dense boolean reachability matrix is not built
#: automatically (n^2 bytes of memory); callers may override per call.
_MATRIX_NODE_LIMIT = 8192


class Hierarchy:
    """An immutable single-rooted DAG over hashable node labels.

    Parameters
    ----------
    edges:
        Iterable of ``(parent, child)`` label pairs.  Duplicate edges and
        self-loops are rejected.
    nodes:
        Optional iterable of labels to force into the node set (used for
        isolated roots of single-node hierarchies).
    ensure_single_root:
        When the edge set induces several roots (in-degree-0 nodes), a dummy
        root labelled :data:`DUMMY_ROOT` is added with an edge to each of them
        if this flag is true; otherwise a :class:`HierarchyError` is raised.
        This mirrors the paper's normalisation (Section II).

    Raises
    ------
    HierarchyError
        If the input is empty, has duplicate edges, self-loops, several roots
        (without ``ensure_single_root``), or unreachable nodes.
    CycleError
        If the input contains a directed cycle.
    """

    __slots__ = (
        "_labels",
        "_index",
        "_children",
        "_parents",
        "_root",
        "_topo",
        "_depth",
        "_height",
        "_m",
        "_desc_cache",
        "_anc_cache",
        "_reach_matrix",
        "_reach_closure",
        "_subtree_sizes",
        "_is_tree",
        "_intervals",
        "_fingerprint",
    )

    def __init__(
        self,
        edges: Iterable[tuple[Hashable, Hashable]],
        *,
        nodes: Iterable[Hashable] | None = None,
        ensure_single_root: bool = False,
    ) -> None:
        edge_list = [(u, v) for u, v in edges]
        labels: list[Hashable] = []
        index: dict[Hashable, int] = {}

        def intern(label: Hashable) -> int:
            pos = index.get(label)
            if pos is None:
                pos = len(labels)
                index[label] = pos
                labels.append(label)
            return pos

        for label in nodes or ():
            intern(label)
        seen_edges: set[tuple[int, int]] = set()
        pairs: list[tuple[int, int]] = []
        for u, v in edge_list:
            ui, vi = intern(u), intern(v)
            if ui == vi:
                raise HierarchyError(f"self-loop on node {u!r}")
            key = (ui, vi)
            if key in seen_edges:
                raise HierarchyError(f"duplicate edge {u!r} -> {v!r}")
            seen_edges.add(key)
            pairs.append(key)
        if not labels:
            raise HierarchyError("a hierarchy needs at least one node")

        n = len(labels)
        children: list[list[int]] = [[] for _ in range(n)]
        parents: list[list[int]] = [[] for _ in range(n)]
        for ui, vi in pairs:
            children[ui].append(vi)
            parents[vi].append(ui)

        roots = [i for i in range(n) if not parents[i]]
        if not roots:
            raise CycleError("no root found: every node has a parent (cycle)")
        if len(roots) > 1:
            if not ensure_single_root:
                raise HierarchyError(
                    f"{len(roots)} roots found "
                    f"({[labels[i] for i in roots[:5]]}...); pass "
                    "ensure_single_root=True to add a dummy root"
                )
            dummy = intern(DUMMY_ROOT)
            if dummy != n:
                raise HierarchyError(
                    f"dummy root label {DUMMY_ROOT!r} already used by a node"
                )
            children.append(list(roots))
            parents.append([])
            for r in roots:
                parents[r].append(dummy)
            n += 1
            roots = [dummy]
        root = roots[0]

        topo = _toposort(children, parents, labels)
        depth = _depths_from_root(root, children, n)
        unreachable = [labels[i] for i in range(n) if depth[i] < 0]
        if unreachable:
            raise HierarchyError(
                f"{len(unreachable)} node(s) unreachable from the root, "
                f"e.g. {unreachable[:5]}"
            )

        self._labels: list[Hashable] = labels
        self._index = index
        self._children: list[tuple[int, ...]] = [tuple(c) for c in children]
        self._parents: list[tuple[int, ...]] = [tuple(p) for p in parents]
        self._root = root
        self._topo: tuple[int, ...] = tuple(topo)
        self._depth = depth
        self._height = _longest_path(topo, self._children)
        self._m = sum(len(c) for c in self._children)
        self._desc_cache: dict[int, frozenset[int]] = {}
        self._anc_cache: dict[int, frozenset[int]] = {}
        self._reach_matrix: np.ndarray | None = None
        self._reach_closure: tuple[np.ndarray, np.ndarray] | None = None
        self._subtree_sizes: list[int] | None = None
        self._intervals: tuple[np.ndarray, np.ndarray] | None = None
        self._fingerprint: str | None = None
        self._is_tree = all(
            len(self._parents[i]) == 1 for i in range(n) if i != root
        )

    # ------------------------------------------------------------------
    # Basic accessors (label level)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes, the paper's ``n``."""
        return len(self._labels)

    @property
    def m(self) -> int:
        """Number of edges, the paper's ``m``."""
        return self._m

    @property
    def root(self) -> Hashable:
        """Label of the unique root."""
        return self._labels[self._root]

    @property
    def height(self) -> int:
        """Length (edge count) of the longest root-to-descendant path."""
        return self._height

    @property
    def nodes(self) -> tuple[Hashable, ...]:
        """All node labels, in insertion order."""
        return tuple(self._labels)

    @property
    def is_tree(self) -> bool:
        """True when every non-root node has exactly one parent."""
        return self._is_tree

    @property
    def max_out_degree(self) -> int:
        """Maximum number of children over all nodes (paper's ``d``)."""
        return max(len(c) for c in self._children)

    def __len__(self) -> int:
        return self.n

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        kind = "tree" if self.is_tree else "DAG"
        return (
            f"Hierarchy({kind}, n={self.n}, m={self.m}, "
            f"height={self.height}, root={self.root!r})"
        )

    def fingerprint(self) -> str:
        """Content hash over the node labels (in index order) and edges.

        Two hierarchies with equal fingerprints have identical node
        indexings and reachability relations, so index-level artifacts built
        on one (compiled plans in particular) are valid on the other.  Label
        identity uses ``repr``, so labels must have stable representations.
        Computed once and cached.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for label in self._labels:
                digest.update(repr(label).encode())
                digest.update(b"\x00")
            digest.update(b"|")
            for u, children in enumerate(self._children):
                for v in children:
                    digest.update(f"{u}>{v};".encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def index(self, label: Hashable) -> int:
        """Dense integer index of ``label`` (raises on unknown labels)."""
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise HierarchyError(f"unknown node {label!r}") from None

    def label(self, ix: int) -> Hashable:
        """Label of node index ``ix``."""
        return self._labels[ix]

    def children(self, label: Hashable) -> tuple[Hashable, ...]:
        """Child labels of ``label``."""
        return tuple(self._labels[c] for c in self._children[self.index(label)])

    def parents(self, label: Hashable) -> tuple[Hashable, ...]:
        """Parent labels of ``label`` (empty only for the root)."""
        return tuple(self._labels[p] for p in self._parents[self.index(label)])

    def out_degree(self, label: Hashable) -> int:
        return len(self._children[self.index(label)])

    def in_degree(self, label: Hashable) -> int:
        return len(self._parents[self.index(label)])

    def is_leaf(self, label: Hashable) -> bool:
        return not self._children[self.index(label)]

    def depth(self, label: Hashable) -> int:
        """Shortest-path distance (edge count) from the root."""
        return self._depth[self.index(label)]

    def leaves(self) -> tuple[Hashable, ...]:
        """Labels of all leaves."""
        return tuple(
            self._labels[i] for i in range(self.n) if not self._children[i]
        )

    def topological_order(self) -> tuple[Hashable, ...]:
        """Node labels in a topological order (parents before children)."""
        return tuple(self._labels[i] for i in self._topo)

    # ------------------------------------------------------------------
    # Reachability (label level)
    # ------------------------------------------------------------------
    def descendants(self, label: Hashable, *, include_self: bool = True) -> frozenset:
        """Labels reachable from ``label`` — the node set of ``G_label``."""
        ixs = self.descendants_ix(self.index(label))
        out = {self._labels[i] for i in ixs}
        if not include_self:
            out.discard(label)
        return frozenset(out)

    def ancestors(self, label: Hashable, *, include_self: bool = True) -> frozenset:
        """Labels that can reach ``label``."""
        ixs = self.ancestors_ix(self.index(label))
        out = {self._labels[i] for i in ixs}
        if not include_self:
            out.discard(label)
        return frozenset(out)

    def reaches(self, source: Hashable, target: Hashable) -> bool:
        """True iff a directed path ``source -> ... -> target`` exists.

        This is the relation the oracle answers: ``reach(q) = yes`` iff
        ``reaches(q, z)`` for the hidden target ``z``.
        """
        return self.index(target) in self.descendants_ix(self.index(source))

    def subtree_size(self, label: Hashable) -> int:
        """Number of nodes reachable from ``label`` (including itself)."""
        return len(self.descendants_ix(self.index(label)))

    # ------------------------------------------------------------------
    # Index-level performance API (used by policies)
    # ------------------------------------------------------------------
    @property
    def root_ix(self) -> int:
        return self._root

    @property
    def topo_ix(self) -> tuple[int, ...]:
        return self._topo

    def children_ix(self, ix: int) -> tuple[int, ...]:
        return self._children[ix]

    def parents_ix(self, ix: int) -> tuple[int, ...]:
        return self._parents[ix]

    def depth_ix(self, ix: int) -> int:
        return self._depth[ix]

    def descendants_ix(self, ix: int) -> frozenset[int]:
        """Cached reachable-set (indices) of node index ``ix``."""
        cached = self._desc_cache.get(ix)
        if cached is None:
            cached = frozenset(_bfs(ix, self._children))
            self._desc_cache[ix] = cached
        return cached

    def ancestors_ix(self, ix: int) -> frozenset[int]:
        """Cached set of node indices that can reach ``ix``."""
        cached = self._anc_cache.get(ix)
        if cached is None:
            cached = frozenset(_bfs(ix, self._parents))
            self._anc_cache[ix] = cached
        return cached

    def subtree_sizes_ix(self) -> list[int]:
        """|G_v| for every node index ``v``.

        One bottom-up pass on trees; on DAGs, the row lengths of
        :meth:`reachability_closure`.
        """
        if self._subtree_sizes is None:
            if self.is_tree:
                sizes = [1] * self.n
                for v in reversed(self._topo):
                    for c in self._children[v]:
                        sizes[v] += sizes[c]
            else:
                sizes = np.diff(self.reachability_closure()[0]).tolist()
            self._subtree_sizes = sizes
        return list(self._subtree_sizes)

    def tree_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Preorder entry/exit times: the O(1) reachability index for trees.

        Returns ``(tin, tout)`` aligned to node indices with the invariant
        ``u reaches z  iff  tin[u] <= tin[z] < tout[u]`` — so a *vector* of
        targets can be split on a query with two numpy comparisons, which is
        what :mod:`repro.engine` uses instead of per-target set lookups.
        Built once (O(n)) and cached.  Raises on DAGs, where a single
        interval per node cannot encode reachability.
        """
        if not self.is_tree:
            raise HierarchyError(
                "tree_intervals() requires a tree; DAG reachability needs "
                "the matrix or the CSR closure"
            )
        if self._intervals is None:
            n = self.n
            tin = np.zeros(n, dtype=np.int64)
            tout = np.zeros(n, dtype=np.int64)
            timer = 0
            stack: list[tuple[int, bool]] = [(self._root, False)]
            while stack:
                v, expanded = stack.pop()
                if expanded:
                    tout[v] = timer
                    continue
                tin[v] = timer
                timer += 1
                stack.append((v, True))
                for c in reversed(self._children[v]):
                    stack.append((c, False))
            # Local import: core sits below the analysis layer, and this
            # path runs once per hierarchy.
            from repro.analysis import sanitize

            self._intervals = (sanitize.freeze(tin), sanitize.freeze(tout))
        return self._intervals

    def reachability_matrix(self, *, allow_large: bool = False) -> np.ndarray | None:
        """Dense boolean matrix ``R`` with ``R[u, v] = u reaches v``.

        Returns ``None`` when the hierarchy exceeds the size limit and
        ``allow_large`` is false.  The matrix is cached after the first build.
        """
        if self._reach_matrix is not None:
            return self._reach_matrix
        if self.n > _MATRIX_NODE_LIMIT and not allow_large:
            return None
        matrix = np.zeros((self.n, self.n), dtype=bool)
        for v in reversed(self._topo):
            row = matrix[v]
            row[v] = True
            for c in self._children[v]:
                row |= matrix[c]
        from repro.analysis import sanitize

        self._reach_matrix = sanitize.freeze(matrix)
        return matrix

    def reachability_closure(self) -> tuple[np.ndarray, np.ndarray]:
        """Every reachable set in CSR form: ``(indptr, members)``.

        ``members[indptr[v]:indptr[v + 1]]`` are the ``int32`` node indices
        of ``G_v`` in ascending order, ``v`` included, so no row is empty;
        ``indptr`` is ``int64``.  Its size is the closure's, 4 bytes per
        reachable pair, not ``n^2`` (0.3% of the pairs on the SMALL
        ImageNet-like DAG, 0.97 MB on a 27,714-node one).  This is the
        reachability index of DAGs that do not take the dense matrix
        (:mod:`repro.engine.vector`).  Built once in one
        reverse-topological pass over transient sets, which leaves the
        :meth:`descendants_ix` cache empty, plus one sort of the row-major
        keys ``v * n + member``; cached.
        """
        if self._reach_closure is None:
            n = self.n
            rows: list = [None] * n
            for v in reversed(self._topo):
                row = {v}
                for c in self._children[v]:
                    row |= rows[c]
                rows[v] = row
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum([len(row) for row in rows], out=indptr[1:])
            keys = np.fromiter(
                chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
            )
            keys += np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))
            keys.sort()
            keys %= n
            members = keys.astype(np.int32)
            from repro.analysis import sanitize

            self._reach_closure = (
                sanitize.freeze(indptr),
                sanitize.freeze(members),
            )
        return self._reach_closure

    def reach_weight_vector(self, weights: np.ndarray) -> np.ndarray:
        """``w(G_v)`` for every node ``v``: total weight of its reachable set.

        ``weights`` must be aligned to node indices.  Trees use a one-pass
        bottom-up sum.  On DAGs, ``float64`` or ``int64`` weights that are
        non-negative integers totalling below ``2**53`` (GreedyDAG's
        Equation-(1) weights, WIGS's unit weights) are summed over
        :meth:`reachability_closure`: every partial sum is then an exact
        integer, so any order returns the bytes of the matrix product.
        Other weights (``GreedyDAG(raw)``'s probabilities) take
        ``reachability_matrix() @ weights`` up to the matrix's size limit
        and column-blocked slabs (:meth:`_reach_weights_blocked`) beyond
        it.  The dtype is those paths' either way: the weights' own below
        the limit, ``float64`` above it.
        """
        if len(weights) != self.n:
            raise HierarchyError(
                f"weight vector has length {len(weights)}, expected {self.n}"
            )
        if self.is_tree:
            totals = np.asarray(weights, dtype=np.result_type(weights, 0.0))
            totals = totals.copy()
            for v in reversed(self._topo):
                for c in self._children[v]:
                    totals[v] += totals[c]
            return totals
        weights = np.asarray(weights)
        # reachability_matrix()'s size guard, without building the matrix.
        matrix_ok = self._reach_matrix is not None or self.n <= _MATRIX_NODE_LIMIT
        if not matrix_ok:
            weights = weights.astype(float, copy=False)
        if _integer_sums_exact(weights):
            indptr, members = self.reachability_closure()
            return np.add.reduceat(weights[members], indptr[:-1])
        if matrix_ok:
            return self.reachability_matrix() @ weights
        return self._reach_weights_blocked(weights)

    def _reach_weights_blocked(
        self, weights: np.ndarray, block: int = 4096
    ) -> np.ndarray:
        """``w(G_v)`` for all ``v`` without materialising the n x n matrix.

        Processes reachability in column blocks: for each block of target
        nodes ``C``, one reverse-topological sweep computes the boolean
        ``n x |C|`` slab ``R[v, j] = (v reaches C[j])``, which immediately
        contributes ``R @ w[C]`` to the totals.  Peak memory is ``n * block``
        bytes, so paper-scale DAGs (~28k nodes) need ~100 MB instead of the
        ~800 MB dense matrix.
        """
        totals = np.zeros(self.n, dtype=float)
        order = list(reversed(self._topo))
        for start in range(0, self.n, block):
            columns = np.arange(start, min(start + block, self.n))
            slab = np.zeros((self.n, len(columns)), dtype=bool)
            in_block = {int(c): j for j, c in enumerate(columns)}
            for v in order:
                row = slab[v]
                j = in_block.get(v)
                if j is not None:
                    row[j] = True
                for c in self._children[v]:
                    row |= slab[c]
            totals += slab @ weights[columns]
        return totals

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    #: Lazily built caches excluded from pickles: the matrix takes n^2
    #: bytes, the closure 4 bytes per reachable pair, and the descendant
    #: sets O(n^2) entries — embedding them would bloat every plan-cache
    #: file and spawn-context worker pickle.  They rebuild on
    #: demand; the content fingerprint (a 64-byte hex string) is kept.
    _LAZY_SLOTS = (
        "_desc_cache",
        "_anc_cache",
        "_reach_matrix",
        "_reach_closure",
        "_subtree_sizes",
        "_intervals",
    )

    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in self._LAZY_SLOTS
        }

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            # Legacy pickle (default slots protocol, pre-__getstate__):
            # a (dict-state, slots-dict) pair with every cache included,
            # the retired packed-bitset slot among them.
            state = dict(state[1] or {})
            state.pop("_reach_bits", None)
        self._desc_cache = {}
        self._anc_cache = {}
        self._reach_matrix = None
        self._reach_closure = None
        self._subtree_sizes = None
        self._intervals = None
        for slot, value in state.items():
            setattr(self, slot, value)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_parent_map(
        cls, parent_of: dict[Hashable, Hashable | None], **kwargs: Any
    ) -> "Hierarchy":
        """Build from a ``child -> parent`` mapping (``None`` marks the root)."""
        edges = [
            (parent, child)
            for child, parent in parent_of.items()
            if parent is not None
        ]
        nodes = list(parent_of)
        return cls(edges, nodes=nodes, **kwargs)

    @classmethod
    def from_networkx(cls, graph: Any, **kwargs: Any) -> "Hierarchy":
        """Build from a ``networkx.DiGraph``."""
        return cls(list(graph.edges()), nodes=list(graph.nodes()), **kwargs)

    def to_networkx(self) -> Any:
        """Export as a ``networkx.DiGraph`` (labels preserved)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._labels)
        for u in range(self.n):
            for v in self._children[u]:
                graph.add_edge(self._labels[u], self._labels[v])
        return graph

    def edges(self) -> list[tuple[Hashable, Hashable]]:
        """All edges as ``(parent, child)`` label pairs."""
        return [
            (self._labels[u], self._labels[v])
            for u in range(self.n)
            for v in self._children[u]
        ]


# ----------------------------------------------------------------------
# Module-level helpers
# ----------------------------------------------------------------------
def _integer_sums_exact(weights: np.ndarray) -> bool:
    """Every sum over a subset of ``weights`` is exact, in any order.

    True for ``float64`` or ``int64`` non-negative integers totalling below
    ``2**53``.  The ``float64`` total checks this soundly: partial sums
    below ``2**53`` are exact and rounding is monotone, so it stays below
    ``2**53`` only when the exact total does.  ``signbit`` also rejects
    ``-0.0``: the sign of a zero sum depends on its terms' order.
    """
    if weights.dtype != np.float64 and weights.dtype != np.int64:
        return False
    if weights.dtype == np.float64 and not np.array_equal(
        weights, np.floor(weights)
    ):
        return False
    if np.signbit(weights).any():
        return False
    return weights.sum(dtype=np.float64) < 2.0**53


def _bfs(start: int, adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Nodes reachable from ``start`` (inclusive) following ``adjacency``."""
    seen = {start}
    queue = deque([start])
    order = [start]
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    return order


def _toposort(
    children: Sequence[Sequence[int]],
    parents: Sequence[Sequence[int]],
    labels: Sequence[Hashable],
) -> list[int]:
    """Kahn's algorithm; raises :class:`CycleError` with a witness cycle."""
    n = len(children)
    indeg = [len(p) for p in parents]
    queue = deque(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) < n:
        cycle = _find_cycle(children, set(range(n)) - set(order))
        raise CycleError(
            "the input graph contains a directed cycle: "
            + " -> ".join(repr(labels[i]) for i in cycle),
            cycle=[labels[i] for i in cycle],
        )
    return order


def _find_cycle(
    children: Sequence[Sequence[int]], suspects: set[int]
) -> list[int]:
    """Recover one cycle among ``suspects`` (nodes left out of the toposort)."""
    start = next(iter(suspects))
    path: list[int] = []
    at: dict[int, int] = {}
    u = start
    while u not in at:
        at[u] = len(path)
        path.append(u)
        u = next(v for v in children[u] if v in suspects)
    return path[at[u] :] + [u]


def _depths_from_root(
    root: int, children: Sequence[Sequence[int]], n: int
) -> list[int]:
    """Shortest-path depth from the root; ``-1`` marks unreachable nodes."""
    depth = [-1] * n
    depth[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in children[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def _longest_path(topo: Sequence[int], children: Sequence[Sequence[int]]) -> int:
    """Length of the longest directed path (the paper's ``h``)."""
    longest = {v: 0 for v in topo}
    best = 0
    for v in reversed(topo):
        for c in children[v]:
            if longest[c] + 1 > longest[v]:
                longest[v] = longest[c] + 1
        if longest[v] > best:
            best = longest[v]
    return best
