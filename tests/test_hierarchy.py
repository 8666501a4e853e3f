"""Unit tests for the Hierarchy substrate."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.hierarchy as hierarchy_module
from repro.core.hierarchy import DUMMY_ROOT, Hierarchy
from repro.engine.vector import make_answerer, make_reach_rows, make_splitter
from repro.exceptions import CycleError, HierarchyError

from repro.testing import make_random_dag, make_random_tree


class TestConstruction:
    def test_basic_tree(self, vehicle_hierarchy):
        h = vehicle_hierarchy
        assert h.n == 7
        assert h.m == 6
        assert h.root == "Vehicle"
        assert h.is_tree
        assert h.height == 3

    def test_single_node(self):
        h = Hierarchy([], nodes=["only"])
        assert h.n == 1
        assert h.root == "only"
        assert h.is_leaf("only")
        assert h.height == 0

    def test_empty_rejected(self):
        with pytest.raises(HierarchyError, match="at least one node"):
            Hierarchy([])

    def test_self_loop_rejected(self):
        with pytest.raises(HierarchyError, match="self-loop"):
            Hierarchy([("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(HierarchyError, match="duplicate edge"):
            Hierarchy([("a", "b"), ("a", "b")])

    def test_cycle_rejected_with_witness(self):
        with pytest.raises(CycleError) as excinfo:
            Hierarchy([("r", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
        assert set(excinfo.value.cycle) >= {"a", "b", "c"}

    def test_two_node_cycle_has_no_root(self):
        with pytest.raises(CycleError):
            Hierarchy([("a", "b"), ("b", "a")])

    def test_multiple_roots_rejected_by_default(self):
        with pytest.raises(HierarchyError, match="roots"):
            Hierarchy([("a", "c"), ("b", "c")], nodes=["a", "b"])

    def test_dummy_root_added_on_request(self):
        h = Hierarchy(
            [("a", "c"), ("b", "c")], nodes=["a", "b"], ensure_single_root=True
        )
        assert h.root == DUMMY_ROOT
        assert set(h.children(DUMMY_ROOT)) == {"a", "b"}
        assert h.n == 4

    def test_dummy_root_label_collision(self):
        with pytest.raises(HierarchyError, match="dummy root"):
            Hierarchy(
                [(DUMMY_ROOT, "x"), ("y", "x")],
                nodes=["y"],
                ensure_single_root=True,
            )

    def test_unreachable_node_rejected(self):
        # b -> c hangs off a second root; without the dummy root it errors,
        # and an isolated extra node is unreachable even with one root.
        with pytest.raises(HierarchyError):
            Hierarchy([("a", "b")], nodes=["a", "isolated"])


class TestAccessors:
    def test_children_parents(self, vehicle_hierarchy):
        h = vehicle_hierarchy
        assert set(h.children("Car")) == {"Nissan", "Honda", "Mercedes"}
        assert h.parents("Car") == ("Vehicle",)
        assert h.parents("Vehicle") == ()
        assert h.out_degree("Nissan") == 2
        assert h.in_degree("Maxima") == 1
        assert h.max_out_degree == 3

    def test_unknown_node(self, vehicle_hierarchy):
        with pytest.raises(HierarchyError, match="unknown node"):
            vehicle_hierarchy.children("Tesla")

    @pytest.mark.parametrize("label", [[1], {"a": 1}, {"Car"}])
    def test_unhashable_label_is_unknown_typed(self, vehicle_hierarchy, label):
        with pytest.raises(HierarchyError, match="unknown node"):
            vehicle_hierarchy.index(label)

    def test_depth(self, vehicle_hierarchy):
        h = vehicle_hierarchy
        assert h.depth("Vehicle") == 0
        assert h.depth("Car") == 1
        assert h.depth("Sentra") == 3

    def test_leaves(self, vehicle_hierarchy):
        assert set(vehicle_hierarchy.leaves()) == {
            "Honda",
            "Mercedes",
            "Maxima",
            "Sentra",
        }

    def test_contains_len_repr(self, vehicle_hierarchy):
        h = vehicle_hierarchy
        assert "Car" in h
        assert "Tesla" not in h
        assert len(h) == 7
        assert "tree" in repr(h)

    def test_topological_order(self, diamond_dag):
        order = diamond_dag.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for u, v in diamond_dag.edges():
            assert pos[u] < pos[v]

    def test_label_index_round_trip(self, vehicle_hierarchy):
        h = vehicle_hierarchy
        for node in h.nodes:
            assert h.label(h.index(node)) == node


class TestReachability:
    def test_descendants(self, vehicle_hierarchy):
        h = vehicle_hierarchy
        assert h.descendants("Nissan") == {"Nissan", "Maxima", "Sentra"}
        assert h.descendants("Nissan", include_self=False) == {
            "Maxima",
            "Sentra",
        }
        assert h.descendants("Sentra") == {"Sentra"}

    def test_ancestors(self, vehicle_hierarchy):
        h = vehicle_hierarchy
        assert h.ancestors("Sentra") == {"Sentra", "Nissan", "Car", "Vehicle"}
        assert h.ancestors("Vehicle") == {"Vehicle"}

    def test_reaches(self, vehicle_hierarchy):
        h = vehicle_hierarchy
        assert h.reaches("Vehicle", "Sentra")
        assert h.reaches("Car", "Car")
        assert not h.reaches("Honda", "Sentra")
        assert not h.reaches("Sentra", "Car")

    def test_dag_shared_descendant(self, diamond_dag):
        assert diamond_dag.descendants("a") == {"a", "c", "d"}
        assert diamond_dag.descendants("b") == {"b", "c", "d"}
        assert diamond_dag.ancestors("c") == {"c", "a", "b", "r"}
        assert not diamond_dag.is_tree

    def test_matrix_matches_bfs(self):
        h = make_random_dag(40, seed=3)
        matrix = h.reachability_matrix()
        assert matrix is not None
        for u in range(h.n):
            reachable = {i for i in range(h.n) if matrix[u, i]}
            assert reachable == set(h.descendants_ix(u))

    def test_subtree_sizes(self, vehicle_hierarchy):
        h = vehicle_hierarchy
        sizes = h.subtree_sizes_ix()
        assert sizes[h.index("Vehicle")] == 7
        assert sizes[h.index("Nissan")] == 3
        assert sizes[h.index("Maxima")] == 1

    def test_subtree_sizes_dag_counts_shared_once(self, diamond_dag):
        sizes = diamond_dag.subtree_sizes_ix()
        assert sizes[diamond_dag.index("r")] == 5
        assert sizes[diamond_dag.index("a")] == 3  # a, c, d

    def test_reach_weight_vector_tree_vs_dag(self):
        for h in (make_random_tree(30, 1), make_random_dag(30, 2)):
            weights = np.arange(1.0, h.n + 1.0)
            vector = h.reach_weight_vector(weights)
            for v in range(h.n):
                expected = sum(weights[d] for d in h.descendants_ix(v))
                assert vector[v] == expected

    def test_reach_weight_vector_length_check(self, diamond_dag):
        with pytest.raises(HierarchyError, match="length"):
            diamond_dag.reach_weight_vector(np.ones(3))


def complete_dag(n: int) -> Hierarchy:
    """Every forward edge ``i -> j`` (``i < j``): height ``n - 1``, and each
    node reaches all later ones, the largest closure an ``n``-node DAG has."""
    return Hierarchy(
        [(i, j) for j in range(1, n) for i in range(j)], nodes=[0]
    )


@st.composite
def hierarchies(draw, shapes=("tree", "dag", "dense", "complete")):
    """A random tree, sparse DAG, dense forward DAG, or complete DAG."""
    n = draw(st.integers(min_value=2, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    shape = draw(st.sampled_from(shapes))
    if shape == "tree":
        return make_random_tree(n, seed)
    if shape == "dag":
        return make_random_dag(n, seed)
    if shape == "dense":
        return make_random_dag(n, seed, extra=n * n // 4)
    return complete_dag(n)


#: The shapes on which the closure can run (small draws can still be trees).
dags = hierarchies(shapes=("dag", "dense", "complete")).filter(
    lambda h: not h.is_tree
)


def int_bits(array: np.ndarray) -> np.ndarray:
    """The raw 64-bit words, so ``-0.0``/``0.0`` or NaN payloads differ."""
    return array.view(np.int64)


class TestReachWeightExactness:
    """Integer weights are summed over the CSR closure; the result must be
    byte-identical to ``reachability_matrix() @ w``, and every other
    weight must not take the closure at all."""

    @settings(max_examples=120, deadline=None)
    @given(h=hierarchies(), data=st.data())
    def test_integer_weights_match_matrix_bytes(self, h, data):
        square = h.n * h.n
        values = data.draw(
            st.lists(
                st.one_of(st.just(0), st.integers(0, square)),
                min_size=h.n,
                max_size=h.n,
            )
        )
        matrix = h.reachability_matrix()
        for dtype in (np.float64, np.int64):
            weights = np.array(values, dtype=dtype)
            expected = matrix @ weights
            assert expected.dtype == dtype
            if h.is_tree:  # the bottom-up pass sums in floating point
                expected = expected.astype(np.result_type(dtype, 0.0))
            got = h.reach_weight_vector(weights)
            assert got.dtype == expected.dtype
            assert np.array_equal(int_bits(got), int_bits(expected))
        assert h.is_tree or h._reach_closure is not None

    @settings(max_examples=80, deadline=None)
    @given(
        h=dags,
        kind=st.sampled_from(["fractional", "negative", "-0.0", "huge", "huge-int"]),
        data=st.data(),
    )
    def test_other_weights_keep_the_matrix_product(self, h, kind, data):
        n = h.n
        if kind in ("huge", "huge-int"):
            # Each at least 2**52, so the total passes 2**53: the matrix
            # product rounds, and a closure sum could round differently.
            values = data.draw(
                st.lists(st.integers(2**52, 2**53), min_size=n, max_size=n)
            )
            dtype = np.int64 if kind == "huge-int" else np.float64
            weights = np.array(values, dtype=dtype)
        else:
            values = data.draw(
                st.lists(st.integers(0, n * n), min_size=n, max_size=n)
            )
            weights = np.array(values, dtype=float)
            pos = data.draw(st.integers(0, n - 1))
            weights[pos] = {"fractional": 0.5, "negative": -1.0}.get(kind, -0.0)
        got = h.reach_weight_vector(weights)
        assert h._reach_closure is None
        expected = h.reachability_matrix() @ weights
        assert got.dtype == expected.dtype
        assert np.array_equal(int_bits(got), int_bits(expected))

    @settings(max_examples=40, deadline=None)
    @given(h=dags, data=st.data())
    def test_integer_weights_above_matrix_guard(self, h, data):
        values = data.draw(
            st.lists(st.integers(0, h.n * h.n), min_size=h.n, max_size=h.n)
        )
        guarded = Hierarchy(h.edges(), nodes=h.nodes)
        with mock.patch.object(hierarchy_module, "_MATRIX_NODE_LIMIT", h.n - 1):
            assert guarded.reachability_matrix() is None
            for dtype in (np.float64, np.int64):
                got = guarded.reach_weight_vector(np.array(values, dtype=dtype))
                assert got.dtype == np.float64  # the slab path's dtype
                for v in range(h.n):
                    reach = guarded.descendants_ix(v)
                    assert got[v] == sum(values[d] for d in reach)
        assert guarded._reach_matrix is None

    @settings(max_examples=60, deadline=None)
    @given(h=hierarchies())
    def test_subtree_sizes_match_descendant_sets(self, h):
        sizes = h.subtree_sizes_ix()
        assert sizes == [len(h.descendants_ix(v)) for v in range(h.n)]
        assert all(type(size) is int for size in sizes)

    def test_closure_rows(self, diamond_dag):
        indptr, members = diamond_dag.reachability_closure()
        assert indptr.dtype == np.int64 and members.dtype == np.int32
        assert len(indptr) == diamond_dag.n + 1
        for v in range(diamond_dag.n):
            row = members[indptr[v]:indptr[v + 1]]
            assert len(row) == len(set(row.tolist()))
            assert set(row.tolist()) == diamond_dag.descendants_ix(v)
        # Built without filling the per-node descendant-set cache.
        fresh = make_random_dag(50, seed=4)
        fresh.reachability_closure()
        assert fresh._desc_cache == {}
        assert fresh.reachability_closure() is fresh.reachability_closure()


class TestCsrKernels:
    """The sorted CSR closure and the ``csr`` split, pair and row kernels
    that read it, against ``Hierarchy.reaches`` for every ``(q, z)``."""

    @settings(max_examples=80, deadline=None)
    @given(h=hierarchies(shapes=("tree", "dag", "dense")))
    @example(h=Hierarchy([], nodes=["only"]))
    def test_closure_rows_sorted(self, h):
        indptr, members = h.reachability_closure()
        for v in range(h.n):
            row = members[indptr[v] : indptr[v + 1]].tolist()
            assert row == sorted(h.descendants_ix(v))

    @settings(max_examples=80, deadline=None)
    @given(
        h=hierarchies(shapes=("tree", "dag", "dense")),
        seed=st.integers(0, 2**16),
    )
    @example(h=Hierarchy([], nodes=["only"]), seed=0)
    def test_kernels_agree_with_reaches(self, h, seed):
        n = h.n
        reach = np.array([[h.reaches(q, z) for z in h.nodes] for q in h.nodes])
        split = make_splitter(h, n, kind="csr")
        targets = np.random.default_rng(seed).permutation(n).astype(np.int64)
        for q in range(n):
            yes, no = split(q, targets)
            # Both halves keep the targets' order.
            assert np.array_equal(yes, targets[reach[q, targets]])
            assert np.array_equal(no, targets[~reach[q, targets]])
        queries, pair_targets = np.divmod(np.arange(n * n, dtype=np.int64), n)
        answer = make_answerer(h, n, kind="csr")
        assert np.array_equal(answer(queries, pair_targets), reach.ravel())
        rows = make_reach_rows(h, n, kind="csr")
        assert np.array_equal(rows(np.arange(n, dtype=np.int64)), reach)


class TestConversions:
    def test_networkx_round_trip(self, vehicle_hierarchy):
        graph = vehicle_hierarchy.to_networkx()
        back = Hierarchy.from_networkx(graph)
        assert set(back.edges()) == set(vehicle_hierarchy.edges())
        assert back.root == vehicle_hierarchy.root

    def test_from_parent_map(self):
        h = Hierarchy.from_parent_map({"r": None, "a": "r", "b": "a"})
        assert h.root == "r"
        assert h.depth("b") == 2

    def test_edges_complete(self, diamond_dag):
        assert len(diamond_dag.edges()) == diamond_dag.m


class TestMatrixGuard:
    """Regression: above _MATRIX_NODE_LIMIT the dense matrix is refused and
    every reachability consumer must fall back to the cached/blocked paths
    with unchanged answers."""

    def test_guard_refuses_matrix_but_answers_stay_correct(self, monkeypatch):
        import repro.core.hierarchy as hierarchy_module

        h = make_random_dag(60, seed=9)
        reference = h.reachability_matrix()  # built while under the limit
        assert reference is not None

        # A fresh copy of the same graph, now "over" the (patched) limit.
        monkeypatch.setattr(hierarchy_module, "_MATRIX_NODE_LIMIT", h.n - 1)
        guarded = Hierarchy(h.edges())
        assert guarded.reachability_matrix() is None  # the guard path

        # Node interning order differs after the rebuild; compare by label.
        for u in h.nodes:
            expected = {
                h.label(v) for v in range(h.n) if reference[h.index(u), v]
            }
            assert guarded.descendants(u) == expected
            assert guarded.subtree_size(u) == len(expected)
        values = np.random.default_rng(9).uniform(0.5, 2.0, h.n)
        guarded_weights = np.array(
            [values[h.index(label)] for label in guarded.nodes]
        )
        totals = guarded.reach_weight_vector(guarded_weights)
        dense = reference @ values
        for u in h.nodes:
            assert totals[guarded.index(u)] == pytest.approx(
                dense[h.index(u)]
            )
        # allow_large overrides the guard explicitly.
        assert guarded.reachability_matrix(allow_large=True) is not None

    def test_real_size_above_limit(self):
        """An actually-oversized hierarchy (> _MATRIX_NODE_LIMIT nodes)
        answers reachability queries without ever building the matrix."""
        from repro.core.hierarchy import _MATRIX_NODE_LIMIT

        n = _MATRIX_NODE_LIMIT + 100
        edges = [(f"c{(i - 1) // 4}", f"c{i}") for i in range(1, n)]
        h = Hierarchy(edges, nodes=["c0"])
        assert h.n > _MATRIX_NODE_LIMIT
        assert h.reachability_matrix() is None
        assert h.reaches("c0", f"c{n - 1}")
        assert h.reaches("c1", "c5")  # c5's parent is (5-1)//4 = c1
        assert not h.reaches(f"c{n - 1}", "c0")
        # Engine evaluation also works on the guarded hierarchy (tree path).
        from repro.engine import simulate_all_targets
        from repro.policies import TopDownPolicy

        engine = simulate_all_targets(
            TopDownPolicy(), h, targets=["c0", "c1", f"c{n - 1}"]
        )
        assert engine.query_count("c0") >= 1
