"""Tests for the paper-scale evaluation substrate.

Three subsystems under contract here:

* the reachability kernels (:func:`repro.engine.make_splitter`,
  :func:`repro.engine.make_answerer`,
  :func:`repro.engine.vector.make_reach_rows`) over the sorted CSR closure
  (:meth:`repro.core.hierarchy.Hierarchy.reachability_closure`) — every
  kind must agree with ``Hierarchy.reaches`` on trees and on DAGs
  straddling ``_MATRIX_NODE_LIMIT``, and hierarchy pickles must never
  carry the indexes;
* the sharded noisy sweep (:func:`repro.engine.simulate_noisy`'s
  ``jobs=`` executor) — the :class:`~repro.engine.NoisyResult` arrays must
  be bit-identical for every ``jobs`` value (the exact engine runs
  in-process; ``test_bit_identity.py`` pins its descent);
* the persistent engine-result cache (:mod:`repro.engine.cache`) —
  hit/miss/corrupt-entry behaviour.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import hierarchy as hierarchy_mod
from repro.core.costs import TableCost
from repro.engine import (
    EngineResultCache,
    make_answerer,
    make_splitter,
    resolve_jobs,
    set_default_jobs,
    set_default_result_cache,
    simulate_all_targets,
    simulate_noisy,
)
from repro.engine.vector import make_reach_rows
from repro.exceptions import HierarchyError
from repro.plan import compile_policy
from repro.policies import GreedyDagPolicy, GreedyTreePolicy, make_policy
from repro.testing import (
    make_random_dag,
    make_random_tree,
    random_distribution,
)


def _fresh_dag(n=40, seed=3):
    return make_random_dag(n, seed=seed)


def _assert_same_result(a, b):
    """Two EngineResults must agree bit for bit (the sharding contract)."""
    assert a.policy == b.policy
    assert a.method == b.method
    assert a.decision_nodes == b.decision_nodes
    assert np.array_equal(a.target_ix, b.target_ix)
    assert np.array_equal(a.queries, b.queries)
    assert np.array_equal(a.prices, b.prices, equal_nan=True)


# ----------------------------------------------------------------------
# Hierarchy pickles
# ----------------------------------------------------------------------
class TestBitsetReachability:
    def test_legacy_slot_tuple_pickles_still_load(self):
        """Plan-cache entries written before __getstate__ must not be
        misreported as corrupt (their state is a (None, slots) tuple)."""
        hierarchy = _fresh_dag()
        legacy = (
            None,
            {s: getattr(hierarchy, s) for s in hierarchy.__slots__},
        )
        clone = object.__new__(hierarchy_mod.Hierarchy)
        clone.__setstate__(legacy)
        assert clone.fingerprint() == hierarchy.fingerprint()
        assert clone.descendants_ix(0) == hierarchy.descendants_ix(0)

    def test_legacy_pickles_with_retired_bitset_slot_still_load(self):
        """States written while hierarchies had a packed-bitset slot carry
        ``_reach_bits``; loading them skips the retired key instead of
        failing (a saved plan file would be refused as corrupt)."""
        hierarchy = _fresh_dag()
        slots = {s: getattr(hierarchy, s) for s in hierarchy.__slots__}
        slots["_reach_bits"] = np.packbits(hierarchy.reachability_matrix(), axis=1)
        clone = object.__new__(hierarchy_mod.Hierarchy)
        clone.__setstate__((None, slots))
        assert not hasattr(clone, "_reach_bits")
        assert clone.fingerprint() == hierarchy.fingerprint()
        assert clone.descendants_ix(0) == hierarchy.descendants_ix(0)

    def test_legacy_pickles_without_closure_slot_still_load(self):
        """States written before the reachability closure existed lack its
        slot; loading them must leave the cache empty, to build on demand."""
        hierarchy = _fresh_dag()
        legacy = (
            None,
            {
                s: getattr(hierarchy, s)
                for s in hierarchy.__slots__
                if s != "_reach_closure"
            },
        )
        clone = object.__new__(hierarchy_mod.Hierarchy)
        clone.__setstate__(legacy)
        assert clone._reach_closure is None
        weights = np.arange(hierarchy.n, dtype=float)
        assert np.array_equal(
            clone.reach_weight_vector(weights),
            hierarchy.reachability_matrix() @ weights,
        )
        assert clone.subtree_sizes_ix() == [
            len(hierarchy.descendants_ix(v)) for v in range(hierarchy.n)
        ]

    def test_lazy_caches_excluded_from_pickles(self):
        """Plan-cache files / worker pickles must not embed the indexes."""
        hierarchy = _fresh_dag()
        cold = len(pickle.dumps(hierarchy))
        hierarchy.reachability_matrix()
        hierarchy.reachability_closure()
        for ix in range(hierarchy.n):
            hierarchy.descendants_ix(ix)
        warm = len(pickle.dumps(hierarchy))
        assert warm <= cold * 1.1  # indexes rebuild on demand, not shipped
        assert pickle.loads(pickle.dumps(hierarchy))._reach_closure is None
        clone = pickle.loads(pickle.dumps(hierarchy))
        assert clone.fingerprint() == hierarchy.fingerprint()


# ----------------------------------------------------------------------
# Splitter kernels
# ----------------------------------------------------------------------
class TestSplitterKinds:
    @pytest.mark.parametrize("seed", range(3))
    def test_all_dag_kinds_agree(self, seed):
        hierarchy = _fresh_dag(seed=seed)
        targets = np.arange(hierarchy.n, dtype=np.int64)
        rng = np.random.default_rng(seed)
        splitters = {
            kind: make_splitter(hierarchy, hierarchy.n, kind=kind)
            for kind in ("matrix", "csr")
        }
        for qix in rng.integers(0, hierarchy.n, size=10):
            reference = None
            for kind, split in splitters.items():
                yes, no = split(int(qix), targets)
                assert np.concatenate([np.sort(yes), np.sort(no)]).size == len(
                    targets
                )
                if reference is None:
                    reference = (yes, no)
                else:
                    assert np.array_equal(yes, reference[0]), kind
                    assert np.array_equal(no, reference[1]), kind

    def test_tree_kind_agrees_with_every_forced_kind(self):
        hierarchy = make_random_tree(35, seed=7)
        targets = np.arange(hierarchy.n, dtype=np.int64)
        tree_split = make_splitter(hierarchy, hierarchy.n)
        assert tree_split.kind == "tree"
        for kind in ("matrix", "csr"):
            other = make_splitter(hierarchy, hierarchy.n, kind=kind)
            for qix in range(hierarchy.n):
                assert np.array_equal(
                    np.sort(tree_split(qix, targets)[0]),
                    np.sort(other(qix, targets)[0]),
                ), kind

    def test_auto_kind_straddles_matrix_limit(self, monkeypatch):
        """Above _MATRIX_NODE_LIMIT the big-walk DAG kernel is the CSR
        closure, and no matrix is built."""
        hierarchy = _fresh_dag()
        below = make_splitter(hierarchy, hierarchy.n)
        assert below.kind == "matrix"
        fresh = _fresh_dag()  # no cached matrix to be reused
        monkeypatch.setattr(hierarchy_mod, "_MATRIX_NODE_LIMIT", 16)
        above = make_splitter(fresh, fresh.n)
        assert above.kind == "csr"
        assert fresh._reach_matrix is None

    def test_auto_kind_small_walks_use_csr(self):
        """A walk whose split work is below the matrix build takes CSR."""
        hierarchy = _fresh_dag()
        assert make_splitter(hierarchy, 1).kind == "csr"
        assert make_answerer(hierarchy, 1).kind == "csr"
        assert make_reach_rows(hierarchy, 1).kind == "csr"
        assert hierarchy._reach_matrix is None

    def test_auto_kind_reuses_built_index(self, monkeypatch):
        monkeypatch.setattr(hierarchy_mod, "_MATRIX_NODE_LIMIT", 16)
        hierarchy = _fresh_dag()
        hierarchy.reachability_matrix(allow_large=True)
        # Even a tiny walk above the limit uses the matrix once it is built.
        assert make_splitter(hierarchy, 1).kind == "matrix"
        assert make_answerer(hierarchy, 1).kind == "matrix"
        assert make_reach_rows(hierarchy, 1).kind == "matrix"

    def test_unknown_kind_rejected(self):
        with pytest.raises(HierarchyError, match="splitter kind"):
            make_splitter(_fresh_dag(), 4, kind="quantum")


# ----------------------------------------------------------------------
# Sharded noisy sweeps (simulate_noisy's jobs= executor)
# ----------------------------------------------------------------------
def _noisy(policy, hierarchy, distribution=None, costs=None, **kwargs):
    return simulate_noisy(
        policy, hierarchy, distribution, costs,
        error_model=0.1, replications=2, seed=5, votes=3, **kwargs,
    )


def _assert_same_noisy(a, b):
    """Two NoisyResults must agree bit for bit (the sharding contract)."""
    for name in (
        "target_ix", "labels", "queries", "vote_queries", "prices",
        "run_labels", "run_outcomes", "run_queries",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestShardedEngine:
    """Noisy sweeps shard their sessions over ``jobs`` processes; every
    session seeds from its global id, so the arrays match ``jobs=1``."""

    def test_tree_jobs_bit_identical(self):
        hierarchy = make_random_tree(120, seed=9)
        distribution = random_distribution(hierarchy, 9)
        sequential = _noisy(GreedyTreePolicy(), hierarchy, distribution, jobs=1)
        for jobs in (2, 4):
            sharded = _noisy(
                GreedyTreePolicy(), hierarchy, distribution, jobs=jobs
            )
            _assert_same_noisy(sequential, sharded)

    def test_dag_csr_path_jobs_bit_identical(self, monkeypatch):
        """Above the matrix limit, and with no matrix built, the sweep
        pins the csr kernel and every worker answers with it."""
        monkeypatch.setattr(hierarchy_mod, "_MATRIX_NODE_LIMIT", 16)
        hierarchy = _fresh_dag(n=60, seed=4)
        plan = compile_policy(
            GreedyDagPolicy(), hierarchy, random_distribution(hierarchy, 4)
        )
        cold = pickle.loads(pickle.dumps(hierarchy))
        assert make_answerer(cold, 2 * cold.n).kind == "csr"
        sequential = _noisy(plan, cold, jobs=1)
        sharded = _noisy(plan, cold, jobs=3)
        _assert_same_noisy(sequential, sharded)
        assert cold._reach_matrix is None

    def test_restricted_targets_jobs_bit_identical(self):
        hierarchy = make_random_tree(80, seed=10)
        distribution = random_distribution(hierarchy, 10)
        # Caller order and duplicates are part of the session grid.
        sample = list(hierarchy.nodes[::2]) + list(hierarchy.nodes[:5])
        kwargs = dict(targets=sample, max_queries=2 * hierarchy.n + 10)
        sequential = _noisy(
            GreedyTreePolicy(), hierarchy, distribution, jobs=1, **kwargs
        )
        sharded = _noisy(
            GreedyTreePolicy(), hierarchy, distribution, jobs=2, **kwargs
        )
        _assert_same_noisy(sequential, sharded)

    def test_heterogeneous_prices_jobs_bit_identical(self):
        hierarchy = make_random_tree(60, seed=12)
        distribution = random_distribution(hierarchy, 12)
        costs = TableCost(
            {node: 1.0 + (i % 5) for i, node in enumerate(hierarchy.nodes)}
        )
        sequential = _noisy(
            GreedyTreePolicy(), hierarchy, distribution, costs, jobs=1
        )
        sharded = _noisy(
            GreedyTreePolicy(), hierarchy, distribution, costs, jobs=2
        )
        _assert_same_noisy(sequential, sharded)

    def test_loaded_plan_with_callers_hierarchy_jobs_bit_identical(
        self, tmp_path
    ):
        """Workers must sweep with the caller's (pre-warmed) hierarchy."""
        from repro.plan import CompiledPlan

        hierarchy = make_random_tree(80, seed=13)
        distribution = random_distribution(hierarchy, 13)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        plan.save(tmp_path / "p.plan")
        loaded = CompiledPlan.load(tmp_path / "p.plan")
        assert loaded.hierarchy is not hierarchy  # equal but distinct
        sequential = _noisy(loaded, hierarchy, jobs=1)
        sharded = _noisy(loaded, hierarchy, jobs=2)
        _assert_same_noisy(sequential, sharded)

    def test_resolve_jobs(self):
        import os

        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)
        assert resolve_jobs(-1) == max(1, os.cpu_count() or 1)
        set_default_jobs(2)
        try:
            assert resolve_jobs(None) == 2
            assert resolve_jobs(1) == 1  # explicit beats the default
        finally:
            set_default_jobs(None)
        assert resolve_jobs(None) == 1


# ----------------------------------------------------------------------
# Persistent engine-result cache (mirrors tests/test_plan.py's cache suite)
# ----------------------------------------------------------------------
class TestEngineResultCache:
    def _config(self, seed=21):
        hierarchy = make_random_tree(30, seed=seed)
        return hierarchy, random_distribution(hierarchy, seed)

    def test_hit_on_identical_config(self, tmp_path):
        hierarchy, distribution = self._config()
        cache = EngineResultCache(tmp_path)
        first = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution, result_cache=cache
        )
        assert (cache.hits, cache.misses) == (0, 1)
        second = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution, result_cache=cache
        )
        assert (cache.hits, cache.misses) == (1, 1)
        _assert_same_result(first, second)

    def test_miss_on_any_changed_ingredient(self, tmp_path):
        hierarchy, distribution = self._config()
        cache = EngineResultCache(tmp_path)
        base = dict(result_cache=cache)
        simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution, **base
        )
        # Different distribution, prices, policy, targets, budget: all miss.
        simulate_all_targets(
            GreedyTreePolicy(),
            hierarchy,
            random_distribution(hierarchy, 77),
            **base,
        )
        simulate_all_targets(
            GreedyTreePolicy(),
            hierarchy,
            distribution,
            TableCost({node: 2.0 for node in hierarchy.nodes}),
            **base,
        )
        simulate_all_targets(
            make_policy("topdown"), hierarchy, distribution, **base
        )
        simulate_all_targets(
            GreedyTreePolicy(),
            hierarchy,
            distribution,
            targets=list(hierarchy.nodes),
            max_queries=hierarchy.n + 5,
            **base,
        )
        assert (cache.hits, cache.misses) == (0, 5)

    def test_corrupt_entry_rewalks_and_heals(self, tmp_path):
        hierarchy, distribution = self._config()
        cache = EngineResultCache(tmp_path)
        first = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution, result_cache=cache
        )
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"garbage" * 10)
        with pytest.warns(UserWarning, match="unreadable engine-result"):
            again = simulate_all_targets(
                GreedyTreePolicy(), hierarchy, distribution, result_cache=cache
            )
        assert cache.errors == 1
        assert (cache.hits, cache.misses) == (0, 2)
        _assert_same_result(first, again)
        # The corrupt entry was overwritten with a good one.
        final = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution, result_cache=cache
        )
        assert cache.hits == 1
        _assert_same_result(first, final)

    def test_foreign_hierarchy_entry_rejected(self, tmp_path):
        """An entry recorded on another hierarchy must not be served."""
        hierarchy, distribution = self._config()
        cache = EngineResultCache(tmp_path)
        result = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution, result_cache=cache
        )
        other, _ = self._config(seed=22)
        (entry,) = tmp_path.glob("*.npz")
        key = entry.stem
        from repro.engine import result_key  # sanity: key is content-derived

        assert len(key) == len(
            result_key("x", result.target_ix, 1, np.ones(hierarchy.n))
        )
        with pytest.warns(UserWarning, match="unreadable engine-result"):
            assert cache.get(key, other) is None
        assert cache.errors == 1

    def test_uncacheable_policy_never_written(self, tmp_path):
        from repro.plan import CompiledPlan

        hierarchy, distribution = self._config()
        compiled = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        keyless = CompiledPlan(
            hierarchy, *compiled.payload_arrays().values(),
            policy_name=compiled.policy_name, config_key="",
        )
        cache = EngineResultCache(tmp_path)
        engine = simulate_all_targets(
            keyless, hierarchy, distribution, result_cache=cache
        )
        assert engine.num_targets == hierarchy.n
        assert not any(tmp_path.iterdir())
        assert (cache.hits, cache.misses) == (0, 0)

    def test_replay_policy_results_cached(self, tmp_path):
        """Seeded replay results are deterministic, so they cache too."""
        from repro.testing import ForcedReplayPolicy

        hierarchy, distribution = self._config()
        cache = EngineResultCache(tmp_path)
        first = simulate_all_targets(
            ForcedReplayPolicy(), hierarchy, distribution, result_cache=cache
        )
        second = simulate_all_targets(
            ForcedReplayPolicy(), hierarchy, distribution, result_cache=cache
        )
        assert first.method == "replay"
        assert (cache.hits, cache.misses) == (1, 1)
        _assert_same_result(first, second)

    def test_pruned_walk_results_cached(self, tmp_path):
        """Sampled (restricted-compile) evaluations cache per target-set."""
        hierarchy, distribution = self._config()
        cache = EngineResultCache(tmp_path)
        sample = list(hierarchy.nodes[:3])
        first = simulate_all_targets(
            GreedyTreePolicy(),
            hierarchy,
            distribution,
            targets=sample,
            result_cache=cache,
        )
        assert first.method == "vector"
        second = simulate_all_targets(
            GreedyTreePolicy(),
            hierarchy,
            distribution,
            targets=sample,
            result_cache=cache,
        )
        assert (cache.hits, cache.misses) == (1, 1)
        _assert_same_result(first, second)

    def test_plan_walked_under_different_cost_model_misses(self, tmp_path):
        """One plan, two walk-time cost models: entries must not collide."""
        hierarchy, distribution = self._config()
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        cache = EngineResultCache(tmp_path)
        priced = TableCost({node: 3.0 for node in hierarchy.nodes})
        unit = simulate_all_targets(plan, result_cache=cache)
        table = simulate_all_targets(
            plan, cost_model=priced, result_cache=cache
        )
        assert (cache.hits, cache.misses) == (0, 2)  # no collision
        assert table.mean_price() == pytest.approx(3.0 * unit.mean_price())
        # Each configuration hits its own entry on the re-run.
        again = simulate_all_targets(
            plan, cost_model=priced, result_cache=cache
        )
        assert cache.hits == 1
        _assert_same_result(table, again)

    def test_unchecked_entry_refused_by_checked_call(self, tmp_path):
        """check_correctness=True must never be served unvalidated numbers."""
        hierarchy, distribution = self._config()
        cache = EngineResultCache(tmp_path)
        unchecked = simulate_all_targets(
            GreedyTreePolicy(),
            hierarchy,
            distribution,
            check_correctness=False,
            result_cache=cache,
        )
        checked = simulate_all_targets(
            GreedyTreePolicy(),
            hierarchy,
            distribution,
            check_correctness=True,
            result_cache=cache,
        )
        assert (cache.hits, cache.misses) == (0, 2)  # unchecked entry refused
        _assert_same_result(unchecked, checked)
        # The checked walk overwrote the entry; both call styles now hit.
        simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution, result_cache=cache
        )
        simulate_all_targets(
            GreedyTreePolicy(),
            hierarchy,
            distribution,
            check_correctness=False,
            result_cache=cache,
        )
        assert (cache.hits, cache.misses) == (2, 2)

    def test_default_cache_installed(self, tmp_path):
        hierarchy, distribution = self._config()
        cache = EngineResultCache(tmp_path)
        set_default_result_cache(cache)
        try:
            simulate_all_targets(GreedyTreePolicy(), hierarchy, distribution)
            simulate_all_targets(GreedyTreePolicy(), hierarchy, distribution)
            # result_cache=False opts out of the installed default: timed
            # callers must never be served (or write) cache entries.
            simulate_all_targets(
                GreedyTreePolicy(),
                hierarchy,
                distribution,
                result_cache=False,
            )
        finally:
            set_default_result_cache(None)
        assert (cache.hits, cache.misses) == (1, 1)
        # With the default cleared, nothing else is read or written.
        simulate_all_targets(GreedyTreePolicy(), hierarchy, distribution)
        assert (cache.hits, cache.misses) == (1, 1)


# ----------------------------------------------------------------------
# EngineResult.per_target memoization
# ----------------------------------------------------------------------
class TestPerTargetMemoized:
    def test_same_mapping_returned(self):
        hierarchy = make_random_tree(20, seed=5)
        distribution = random_distribution(hierarchy, 5)
        engine = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution
        )
        first = engine.per_target()
        assert engine.per_target() is first  # memoized, not rebuilt
        assert first[hierarchy.nodes[-1]] == engine.query_count(
            hierarchy.nodes[-1]
        )

    def test_mapping_is_read_only(self):
        hierarchy = make_random_tree(12, seed=6)
        engine = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, random_distribution(hierarchy, 6)
        )
        with pytest.raises(TypeError):
            engine.per_target()["x"] = 1

    def test_result_stays_picklable_after_memoization(self):
        import pickle

        hierarchy = make_random_tree(12, seed=6)
        engine = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, random_distribution(hierarchy, 6)
        )
        first = engine.per_target()
        clone = pickle.loads(pickle.dumps(engine))
        assert dict(clone.per_target()) == dict(first)
        assert np.array_equal(clone.queries, engine.queries)
