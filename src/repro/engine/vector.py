"""The index-level vector protocol and target-splitting kernels.

The plan compiler (:func:`repro.plan.compile_policy`) walks a policy's
decision structure once, and the engine then carries the set of
still-consistent targets through the compiled plan as a flat array of node
indices.  Two ingredients make that possible:

* :class:`VectorPolicy` — the protocol a policy must satisfy for the
  one-pass compile walk: the usual interactive protocol plus exact answer
  reversal (:meth:`undo`).  ``GreedyTree``, ``GreedyDAG``, ``TopDown``,
  ``MIGS``, ``WIGS``, ``StaticTree``, ``GreedyNaive``, ``CostGreedy`` and
  ``Random`` implement it natively (``supports_undo``); a third-party
  deterministic policy without it is handled by the engine's
  transcript-replay adapter instead.

* :func:`make_splitter`, :func:`make_answerer` and
  :func:`make_reach_rows` — per-hierarchy exact-oracle kernels, because the
  exact oracle's answer for target ``z`` on query ``q`` is
  ``reaches(q, z)``.  A splitter splits one target-index array on one
  query into (yes, no) halves (the compile walk's shape), an answerer
  answers aligned ``(q_i, z_i)`` pairs (the shape of the engine's
  level-by-level descent and of the noisy sessions), and a row kernel
  returns one boolean reach mask per query (the belief engine's shape).
  This module is the only reader of the reachability indexes; each family
  comes in three kinds, picked from the input by :func:`_choose_kind` (or
  forced with ``kind``):

  ======  ===========================================================
  kind    index and mechanism
  ======  ===========================================================
  tree    Euler-tour intervals (:meth:`~repro.core.hierarchy.Hierarchy.
          tree_intervals`): two numpy comparisons per target
  matrix  the dense reachability matrix: a row gather (small DAGs,
          up to ``_MATRIX_NODE_LIMIT`` nodes, or a matrix already built)
  csr     the sorted CSR closure (:meth:`~repro.core.hierarchy.
          Hierarchy.reachability_closure`), one entry per reachable
          pair: splits and rows scatter row ``q`` into a bool mask,
          pairs binary-search ``q * n + z`` in the row-major keys
  ======  ===========================================================
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core import hierarchy as _hierarchy_mod
from repro.core.hierarchy import Hierarchy
from repro.exceptions import HierarchyError

#: A splitter takes ``(query_ix, targets)`` and returns ``(yes, no)`` —
#: the targets reachable / not reachable from the query node.  The chosen
#: kernel is exposed on the returned callable as ``.kind``, and its
#: one-target test ``reaches(query_ix, target_ix) -> bool``, which reads
#: the same index, as ``.reaches``.
Splitter = Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]

#: Valid ``kind`` arguments of the kernel factories.
SPLITTER_KINDS = ("tree", "matrix", "csr")


@runtime_checkable
class VectorPolicy(Protocol):
    """An interactive policy compilable in one pass (one reset, no replay).

    Beyond the base interactive protocol this requires *exact answer
    reversal*: after ``observe(a)`` — with undo journaling enabled —
    ``undo()`` must restore the policy to the state it had right after the
    corresponding ``propose()``, bit-exact, so the plan compiler can explore
    the sibling answer.  :class:`repro.core.policy.Policy` subclasses
    advertise this with ``supports_undo = True``.
    """

    supports_undo: bool

    def reset(self, hierarchy, distribution=None, cost_model=None) -> None: ...

    def done(self) -> bool: ...

    def propose(self) -> Hashable: ...

    def observe(self, answer: bool) -> None: ...

    def undo(self) -> None: ...

    def enable_undo(self, enabled: bool = True) -> None: ...

    def result(self) -> Hashable: ...


def is_vector_policy(policy: object) -> bool:
    """True when ``policy`` compiles through the one-pass undo walk."""
    return bool(getattr(policy, "supports_undo", False)) and callable(
        getattr(policy, "undo", None)
    )


def _tagged(split: Splitter, kind: str) -> Splitter:
    split.kind = kind  # type: ignore[attr-defined]
    return split


def _resolve_kind(hierarchy: Hierarchy, num_targets: int, kind: str | None) -> str:
    if kind is None:
        return _choose_kind(hierarchy, num_targets)
    if kind not in SPLITTER_KINDS:
        raise HierarchyError(
            f"unknown splitter kind {kind!r}; expected one of {SPLITTER_KINDS}"
        )
    return kind


def make_splitter(
    hierarchy: Hierarchy, num_targets: int, *, kind: str | None = None
) -> Splitter:
    """Choose the cheapest exact reachability split for this hierarchy.

    ``num_targets`` steers the DAG trade-off (see :func:`_choose_kind`):
    the dense matrix only pays off when the walk splits large target
    vectors many times; otherwise the CSR closure answers.  Both halves
    keep the targets' order.

    ``kind`` forces a specific kernel (one of :data:`SPLITTER_KINDS`),
    bypassing the heuristics — the parity tests use it to compare kernels
    on one hierarchy.  The chosen kind is exposed as ``.kind`` on the
    returned callable.
    """
    kind = _resolve_kind(hierarchy, num_targets, kind)

    if kind == "tree":
        tin, tout = hierarchy.tree_intervals()

        def split_tree(qix: int, targets: np.ndarray):
            times = tin[targets]
            mask = (times >= tin[qix]) & (times < tout[qix])
            return targets[mask], targets[~mask]

        def reaches_tree(qix: int, target: int) -> bool:
            return tin[qix] <= tin[target] < tout[qix]

        split_tree.reaches = reaches_tree  # type: ignore[attr-defined]
        return _tagged(split_tree, "tree")

    if kind == "matrix":
        matrix = hierarchy.reachability_matrix(allow_large=True)

        def split_matrix(qix: int, targets: np.ndarray):
            mask = matrix[qix][targets]
            return targets[mask], targets[~mask]

        def reaches_matrix(qix: int, target: int) -> bool:
            return matrix[qix, target]

        split_matrix.reaches = reaches_matrix  # type: ignore[attr-defined]
        return _tagged(split_matrix, "matrix")

    indptr, members = hierarchy.reachability_closure()
    n = hierarchy.n

    def split_csr(qix: int, targets: np.ndarray):
        row = np.zeros(n, dtype=bool)
        row[members[indptr[qix] : indptr[qix + 1]]] = True
        mask = row[targets]
        return targets[mask], targets[~mask]

    def reaches_csr(qix: int, target: int) -> bool:
        # Closure rows are sorted: binary-search the target in row ``qix``.
        start, stop = indptr[qix], indptr[qix + 1]
        found = start + np.searchsorted(members[start:stop], target)
        return found < stop and members[found] == target

    split_csr.reaches = reaches_csr  # type: ignore[attr-defined]
    return _tagged(split_csr, "csr")


#: An answerer takes aligned ``(query_ix, target_ix)`` arrays — one entry
#: per live session — and returns the boolean exact-oracle answers
#: ``reaches(query, target)`` for all of them in one vectorized pass.
Answerer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def make_answerer(
    hierarchy: Hierarchy, num_sessions: int, *, kind: str | None = None
) -> Answerer:
    """A batched exact-oracle kernel: answers for many sessions at once.

    Where :func:`make_splitter` splits *one* target vector on *one* query
    (the compile walk's shape), an answerer evaluates ``reaches(q_i, z_i)``
    element-wise over aligned query/target arrays — the shape of the
    engine's descent (:mod:`repro.engine.driver`) and of the batched noisy
    sessions (:mod:`repro.engine.belief`), where each target or session
    sits at its *own* plan node.  Kernel choice and semantics
    mirror :func:`make_splitter` exactly (same ``kind`` values, same
    heuristics via ``num_sessions``); the chosen kind is exposed as
    ``.kind``.  The ``csr`` answerer builds its ``int64`` pair keys
    (8 bytes per reachable pair) once, here.
    """
    kind = _resolve_kind(hierarchy, num_sessions, kind)

    if kind == "tree":
        tin, tout = hierarchy.tree_intervals()

        def answer_tree(queries: np.ndarray, targets: np.ndarray):
            times = tin[targets]
            return (times >= tin[queries]) & (times < tout[queries])

        return _tagged(answer_tree, "tree")

    if kind == "matrix":
        matrix = hierarchy.reachability_matrix(allow_large=True)

        def answer_matrix(queries: np.ndarray, targets: np.ndarray):
            return matrix[queries, targets]

        return _tagged(answer_matrix, "matrix")

    indptr, members = hierarchy.reachability_closure()
    n = hierarchy.n
    # Row-major pair keys, sorted because every closure row is; no row is
    # empty, so the keys are too.
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + members
    last = len(keys) - 1

    def answer_csr(queries: np.ndarray, targets: np.ndarray):
        probe = queries.astype(np.int64) * n + targets
        found = np.minimum(np.searchsorted(keys, probe), last)
        return keys[found] == probe

    return _tagged(answer_csr, "csr")


#: A row kernel takes ``(S,)`` query indices and returns the ``(S, n)``
#: boolean reach masks, row ``i`` holding ``reaches(queries[i], z)``.
ReachRows = Callable[[np.ndarray], np.ndarray]


def make_reach_rows(
    hierarchy: Hierarchy, num_sessions: int, *, kind: str | None = None
) -> ReachRows:
    """One boolean reach mask per query: the belief engine's kernel.

    The dense counterpart of :func:`make_answerer` for
    :func:`repro.engine.belief.make_belief_updater`, which needs every
    candidate target's answer at once.  Same ``kind`` values and
    heuristics; every kind returns the same masks.
    """
    kind = _resolve_kind(hierarchy, num_sessions, kind)
    n = hierarchy.n

    if kind == "tree":
        tin, tout = hierarchy.tree_intervals()

        def rows_tree(queries: np.ndarray) -> np.ndarray:
            return (tin[None, :] >= tin[queries][:, None]) & (
                tin[None, :] < tout[queries][:, None]
            )

        return _tagged(rows_tree, "tree")

    if kind == "matrix":
        matrix = hierarchy.reachability_matrix(allow_large=True)

        def rows_matrix(queries: np.ndarray) -> np.ndarray:
            return matrix[queries]

        return _tagged(rows_matrix, "matrix")

    indptr, members = hierarchy.reachability_closure()

    def rows_csr(queries: np.ndarray) -> np.ndarray:
        mask = np.zeros((len(queries), n), dtype=bool)
        for row, qix in enumerate(queries):
            mask[row, members[indptr[qix] : indptr[qix + 1]]] = True
        return mask

    return _tagged(rows_csr, "csr")


def _choose_kind(hierarchy: Hierarchy, num_targets: int) -> str:
    """The kernel for this input: intervals, matrix, or CSR closure.

    Trees take their Euler intervals.  A DAG whose matrix is already built
    reuses it.  Otherwise the matrix pays only up to ``_MATRIX_NODE_LIMIT``
    nodes, and only when the walk's split work (~ ``num_targets * height``
    memberships) rivals its ``n^2`` build; every other DAG takes the CSR
    closure, whose size is the number of reachable pairs.
    """
    if hierarchy.is_tree:
        return "tree"
    if hierarchy._reach_matrix is not None:
        return "matrix"
    if (
        hierarchy.n <= _hierarchy_mod._MATRIX_NODE_LIMIT
        and num_targets * max(hierarchy.height, 1) >= hierarchy.n
    ):
        return "matrix"
    return "csr"
