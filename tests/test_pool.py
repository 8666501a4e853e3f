"""Tests for the persistent shared-memory evaluation pool.

Contracts under test (:mod:`repro.engine.pool`), driven through the pool's
one consumer, the batched noisy sweep
(``simulate_noisy(plan, ..., pool=pool)`` → :meth:`EvaluationPool.run_noise`):

* **bit-identity** — a warm pool sweep and a repeated warm sweep
  reproduce the inline sweep's arrays exactly (``test_belief.py`` fuzzes
  this across random configurations; here the fixed cases double as
  precise failure locators);
* **lifecycle** — context-manager / ``close()`` teardown unlinks every
  published segment (the session fixture in ``conftest.py`` backs this up
  globally), double close is safe, a closed pool refuses work;
* **registry** — publications are idempotent per ``config_key``,
  refcounted, LRU-evicted at ``max_plans``, and exhausting the registry
  (everything pinned) raises a clear :class:`PoolError` instead of
  unmapping plans in use;
* **failure injection** — a worker killed mid-task or while idle (holding
  the shared queue's read lock!), a corrupted shared segment, and worker
  exceptions all surface as errors or transparent recovery, never a hang;
* **spawn** — the no-fork fallback path works end to end
  (``EvaluationPool(start_method="spawn")``; CI also runs this module with
  ``REPRO_POOL_START_METHOD=spawn`` on Linux, whose default is fork).

``simulate_policies`` is pinned here too: it is the loop over
``simulate_all_targets`` that multi-policy comparisons use.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import hierarchy as hierarchy_mod
from repro.core.costs import TableCost
from repro.engine import (
    EvaluationPool,
    get_default_pool,
    make_answerer,
    resolve_pool,
    set_default_pool,
    simulate_all_targets,
    simulate_noisy,
    simulate_policies,
)
from repro.exceptions import BudgetExceededError, HierarchyError, PoolError
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy, make_policy
from repro.testing import make_random_dag, make_random_tree, random_distribution


def _pool_segments() -> list[str]:
    shm_dir = Path("/dev/shm")
    if not shm_dir.exists():
        return []
    return sorted(p.name for p in shm_dir.glob(f"rp_{os.getpid()}_*"))


def _assert_same_result(a, b):
    assert a.policy == b.policy
    assert a.decision_nodes == b.decision_nodes
    assert np.array_equal(a.target_ix, b.target_ix)
    assert np.array_equal(a.queries, b.queries)
    assert np.array_equal(a.prices, b.prices, equal_nan=True)


def _sweep(plan, hierarchy=None, costs=None, **kwargs):
    """One noisy sweep over ``plan``; ``pool=False`` runs it inline."""
    return simulate_noisy(
        plan, hierarchy, None, costs,
        error_model=0.1, replications=2, seed=3, votes=3, **kwargs,
    )


def _assert_same_sweep(a, b):
    assert a.policy == b.policy
    for name in (
        "target_ix", "labels", "queries", "vote_queries", "prices",
        "run_labels", "run_outcomes", "run_queries",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _tree_config(n=120, seed=3):
    hierarchy = make_random_tree(n, seed=seed)
    return hierarchy, random_distribution(hierarchy, seed)


@pytest.fixture
def pool():
    with EvaluationPool(workers=2) as p:
        yield p


# ----------------------------------------------------------------------
# Bit-identity of the warm-pool sweep
# ----------------------------------------------------------------------
class TestPoolParity:
    def test_tree_walk_matches_sequential(self, pool):
        hierarchy, distribution = _tree_config()
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        inline = _sweep(plan, pool=False)
        warm = _sweep(plan, pool=pool)
        _assert_same_sweep(inline, warm)
        again = _sweep(plan, pool=pool)
        _assert_same_sweep(inline, again)
        assert pool.walks == 2
        # One publication serves both sweeps: that is the point of the pool.
        assert len(pool.published_keys) == 1

    def test_dag_walk_matches_sequential(self, pool):
        hierarchy = make_random_dag(90, seed=7)
        distribution = random_distribution(hierarchy, 7)
        plan = compile_policy(
            make_policy("greedy-dag"), hierarchy, distribution
        )
        _assert_same_sweep(_sweep(plan, pool=False), _sweep(plan, pool=pool))

    def test_heterogeneous_prices(self, pool):
        hierarchy, distribution = _tree_config(seed=12)
        costs = TableCost(
            {node: 1.0 + (i % 5) for i, node in enumerate(hierarchy.nodes)}
        )
        plan = compile_policy(
            GreedyTreePolicy(), hierarchy, distribution, costs
        )
        _assert_same_sweep(
            _sweep(plan, costs=costs, pool=False),
            _sweep(plan, costs=costs, pool=pool),
        )

    def test_restricted_targets(self, pool):
        hierarchy, distribution = _tree_config(seed=9)
        sample = list(hierarchy.nodes[::2])
        kwargs = dict(targets=sample, max_queries=2 * hierarchy.n + 10)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        _assert_same_sweep(
            _sweep(plan, pool=False, **kwargs), _sweep(plan, pool=pool, **kwargs)
        )

    def test_csr_walk_rebuilds_closure_in_workers(self, pool, monkeypatch):
        """Above ``_MATRIX_NODE_LIMIT`` the parent pins the "csr" kind.  The
        segment ships the hierarchy pickle, which carries no closure, so
        every worker rebuilds it and sweeps bit-identically."""
        monkeypatch.setattr(hierarchy_mod, "_MATRIX_NODE_LIMIT", 16)
        hierarchy = make_random_dag(80, seed=5)
        distribution = random_distribution(hierarchy, 5)
        plan = compile_policy(
            make_policy("greedy-dag"), hierarchy, distribution
        )
        cold = pickle.loads(pickle.dumps(hierarchy))
        assert make_answerer(cold, 2 * cold.n).kind == "csr"
        inline = _sweep(plan, cold, pool=False)
        warm = _sweep(plan, cold, pool=pool)
        _assert_same_sweep(inline, warm)
        assert pool.walks == 1
        assert cold._reach_matrix is None
        assert cold._reach_closure is not None
        assert pickle.loads(pickle.dumps(cold))._reach_closure is None

    def test_domain_error_propagates_with_type(self, pool):
        """A worker's own library error reaches the caller with its type
        (here the interval kernel refusing a DAG), and the pool survives."""
        hierarchy = make_random_dag(40, seed=2)
        plan = compile_policy(
            make_policy("greedy-dag"), hierarchy,
            random_distribution(hierarchy, 2),
        )
        with pytest.raises(HierarchyError, match="requires a tree"):
            _sweep(plan, kind="tree", pool=pool)
        # The pool survives the domain error and keeps serving.
        _assert_same_sweep(_sweep(plan, pool=False), _sweep(plan, pool=pool))


# ----------------------------------------------------------------------
# Multi-policy batches
# ----------------------------------------------------------------------
class TestOverlappedBatch:
    """``simulate_policies`` is a loop over ``simulate_all_targets`` with
    one shared target set; its results equal the one-policy calls."""

    def test_simulate_policies_matches_singles(self):
        hierarchy = make_random_dag(80, seed=4)
        distribution = random_distribution(hierarchy, 4)
        policies = [make_policy("greedy-dag"), make_policy("topdown")]
        singles = [
            simulate_all_targets(
                p, hierarchy, distribution, result_cache=False,
            )
            for p in policies
        ]
        batch = simulate_policies(
            [make_policy("greedy-dag"), make_policy("topdown")],
            hierarchy, distribution, result_cache=False,
        )
        for single, batched in zip(singles, batch):
            _assert_same_result(single, batched)

    def test_replay_policy_mixes_into_batch(self):
        """A non-compilable policy inside a batch takes its replay path
        while the others descend their plans — same numbers either way."""
        from repro.testing import ForcedReplayPolicy

        hierarchy, distribution = _tree_config(n=40, seed=6)
        sample = iter(hierarchy.nodes[::3])  # one-shot: read once, shared
        singles = [
            simulate_all_targets(
                policy, hierarchy, distribution,
                targets=hierarchy.nodes[::3], result_cache=False,
            )
            for policy in (make_policy("greedy-tree"), ForcedReplayPolicy())
        ]
        batch = simulate_policies(
            [make_policy("greedy-tree"), ForcedReplayPolicy()],
            hierarchy, distribution, targets=sample, result_cache=False,
        )
        assert batch[1].method == "replay"
        for single, batched in zip(singles, batch):
            _assert_same_result(single, batched)


# ----------------------------------------------------------------------
# Lifecycle and teardown
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_context_manager_unlinks_segments(self):
        hierarchy, distribution = _tree_config(n=60)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        with EvaluationPool(workers=1) as pool:
            _sweep(plan, pool=pool)
            assert _pool_segments()  # resident while the pool lives
        assert not _pool_segments()
        assert pool.closed

    def test_double_close_and_use_after_close(self):
        pool = EvaluationPool(workers=1)
        pool.close()
        pool.close()  # idempotent
        hierarchy, distribution = _tree_config(n=30)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        with pytest.raises(PoolError, match="closed"):
            _sweep(plan, pool=pool)
        with pytest.raises(PoolError, match="closed"):
            pool.publish(plan)

    def test_atexit_teardown_of_orphaned_pool(self, tmp_path):
        """A pool never closed explicitly must still unlink at exit."""
        script = tmp_path / "orphan.py"
        script.write_text(
            "import os\n"
            "from repro.engine import EvaluationPool, simulate_noisy\n"
            "from repro.plan import compile_policy\n"
            "from repro.policies import GreedyTreePolicy\n"
            "from repro.testing import make_random_tree, random_distribution\n"
            "\n"
            "# __main__ guard: under the spawn start method the workers\n"
            "# re-import this module, and must not build pools of their own.\n"
            "if __name__ == '__main__':\n"
            "    h = make_random_tree(40, seed=1)\n"
            "    d = random_distribution(h, 1)\n"
            "    plan = compile_policy(GreedyTreePolicy(), h, d)\n"
            "    pool = EvaluationPool(workers=1)\n"
            "    simulate_noisy(plan, error_model=0.1, pool=pool)\n"
            "    print(os.getpid())\n"
            "    # no close(): the atexit hook must tear the pool down\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        child_pid = int(proc.stdout.strip().splitlines()[-1])
        shm_dir = Path("/dev/shm")
        if shm_dir.exists():
            leaked = list(shm_dir.glob(f"rp_{child_pid}_*"))
            assert not leaked, f"atexit left segments behind: {leaked}"
        assert "Traceback" not in proc.stderr

    def test_default_pool_resolution(self):
        pool = EvaluationPool(workers=1)
        try:
            set_default_pool(pool)
            assert get_default_pool() is pool
            assert resolve_pool(None) is pool
            assert resolve_pool(False) is None  # explicit opt-out
            other = EvaluationPool(workers=1)
            try:
                assert resolve_pool(other) is other
            finally:
                other.close()
        finally:
            set_default_pool(None)
            pool.close()
        assert resolve_pool(None) is None

    def test_explicit_jobs_opts_out_of_default_pool(self):
        """jobs=1 must mean a sequential in-process sweep even when a
        default pool is installed (timing callers depend on it)."""
        hierarchy, distribution = _tree_config(n=40)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        pool = EvaluationPool(workers=1)
        try:
            set_default_pool(pool)
            result = _sweep(plan, jobs=1)
            assert len(result.target_ix) == hierarchy.n
            assert pool.walks == 0  # the pool was never consulted
            _sweep(plan)  # no jobs=: the installed default serves it
            assert pool.walks == 1
        finally:
            set_default_pool(None)
            pool.close()


# ----------------------------------------------------------------------
# Registry: refcounts, pinning, eviction, exhaustion
# ----------------------------------------------------------------------
class TestRegistry:
    def _plan(self, n=40, seed=1, name="greedy-tree"):
        hierarchy = make_random_tree(n, seed=seed)
        distribution = random_distribution(hierarchy, seed)
        return compile_policy(make_policy(name), hierarchy, distribution)

    def test_publish_is_idempotent_per_key(self):
        with EvaluationPool(workers=1) as pool:
            plan = self._plan()
            key = pool.publish(plan)
            assert pool.publish(plan) == key
            assert pool.published_keys == (key,)

    def test_lru_eviction_unlinks(self):
        with EvaluationPool(workers=1, max_plans=2) as pool:
            keys = [pool.publish(self._plan(seed=s)) for s in range(3)]
            assert pool.evictions == 1
            resident = pool.published_keys
            assert keys[0] not in resident  # oldest went first
            assert set(keys[1:]) == set(resident)
            assert len(_pool_segments()) == 2

    def test_exhaustion_raises_and_release_recovers(self):
        with EvaluationPool(workers=1, max_plans=1) as pool:
            first = self._plan(seed=1)
            key = pool.publish(first, pin=True)
            with pytest.raises(PoolError, match="registry exhausted"):
                pool.publish(self._plan(seed=2))
            pool.release(key)
            pool.publish(self._plan(seed=2))  # now evicts the released plan
            assert pool.evictions == 1
            with pytest.raises(PoolError, match="not pinned"):
                pool.release(key)

    def test_eviction_respects_active_walk_then_recovers(self):
        """A plan evicted between sweeps is transparently republished."""
        with EvaluationPool(workers=1, max_plans=1) as pool:
            plan = self._plan(seed=1)
            inline = _sweep(plan, pool=False)
            _sweep(plan, pool=pool)
            # Push the plan out of the registry with a different one.
            _sweep(self._plan(seed=2), pool=pool)
            assert pool.evictions == 1
            again = _sweep(plan, pool=pool)
            _assert_same_sweep(inline, again)

    def test_uncacheable_plan_is_transient(self):
        """Plans without a content key are published per sweep, never
        resident (no stable identity to evict later)."""
        from repro.core.decision_tree import build_decision_tree
        from repro.policies import StaticTreePolicy

        hierarchy, distribution = _tree_config(n=30, seed=2)
        tree = build_decision_tree(GreedyTreePolicy, hierarchy, distribution)
        plan = compile_policy(StaticTreePolicy(tree), hierarchy, distribution)
        assert plan.config_key == ""
        with EvaluationPool(workers=1) as pool:
            _assert_same_sweep(_sweep(plan, pool=False), _sweep(plan, pool=pool))
            assert pool.published_keys == ()
            with pytest.raises(PoolError, match="cannot be pinned"):
                pool.publish(plan, pin=True)


# ----------------------------------------------------------------------
# Failure injection
# ----------------------------------------------------------------------
class TestFailureInjection:
    def _plan_and_reference(self, seed=3):
        hierarchy, distribution = _tree_config(seed=seed)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        return plan, _sweep(plan, pool=False)

    def test_worker_killed_mid_task_recovers(self):
        """SIGKILL during a task: restart, resubmit, identical results."""
        plan, reference = self._plan_and_reference()
        with EvaluationPool(workers=1) as pool:
            _sweep(plan, pool=pool)
            pool._inject_sleep(60.0)  # the lone worker is now busy
            time.sleep(0.3)
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            result = _sweep(plan, pool=pool)
            _assert_same_sweep(reference, result)
            assert pool.respawns >= 1

    def test_worker_killed_while_idle_recovers(self):
        """SIGKILL while blocked in Queue.get() — the kill poisons the
        queue's shared read lock; recovery must rebuild the queues."""
        plan, reference = self._plan_and_reference(seed=4)
        with EvaluationPool(workers=2) as pool:
            _sweep(plan, pool=pool)
            time.sleep(0.2)  # both workers back in Queue.get()
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            result = _sweep(plan, pool=pool)
            _assert_same_sweep(reference, result)

    def test_corrupt_segment_raises_clear_error_and_pool_survives(self):
        plan, reference = self._plan_and_reference(seed=5)
        with EvaluationPool(workers=1) as pool:
            key = pool.publish(plan, pin=True)
            pool._registry[key].shm.buf[:64] = b"\x00" * 64
            with pytest.raises(PoolError, match="torn header|corrupt"):
                _sweep(plan, pool=pool)
            # Drop the torn segment; the next sweep republishes cleanly.
            pool.release(key)
            pool._unlink(pool._registry.pop(key))
            result = _sweep(plan, pool=pool)
            _assert_same_sweep(reference, result)

    def test_vanished_segment_raises_not_hangs(self):
        """Unlinking a segment behind the pool's back is an error, not a
        deadlock (workers report the failed attach)."""
        plan, _ = self._plan_and_reference(seed=6)
        with EvaluationPool(workers=1) as pool:
            key = pool.publish(plan, pin=True)
            entry = pool._registry[key]
            entry.shm.unlink()  # simulate an external rm /dev/shm/...
            # A fresh worker cannot attach a vanished segment.
            with pytest.raises(PoolError, match="gone|corrupt"):
                _sweep(plan, pool=pool)
            pool.release(key)

    def test_max_respawns_bounds_repeated_deaths(self):
        """A worker population that keeps dying ends in PoolError, not an
        infinite restart loop (and not a hang).

        Deterministic construction: the one pending task is a 60 s sleep —
        far longer than the 50 ms kill cadence — so no restarted worker can
        ever complete it and the respawn budget must run out.
        """
        import threading

        stop = threading.Event()
        with EvaluationPool(workers=1) as pool:
            pool._ensure_started()
            task_id = pool._inject_sleep(60.0)
            pending = {task_id: ("sleep", task_id, 60.0)}
            time.sleep(0.2)  # let the worker pull the sleep task

            def murder_loop():
                while not stop.is_set():
                    for proc in list(pool._procs):
                        if proc.pid and proc.is_alive():
                            try:
                                os.kill(proc.pid, signal.SIGKILL)
                            except ProcessLookupError:
                                pass
                    stop.wait(0.05)

            killer = threading.Thread(target=murder_loop, daemon=True)
            killer.start()
            try:
                with pytest.raises(PoolError, match="giving up"):
                    pool._collect(pending, {task_id: lambda payload: None})
            finally:
                stop.set()
                killer.join(5.0)

    def test_error_marshalling_preserves_domain_types(self):
        """Worker exceptions keep their type when they are this library's
        own (inline parity), everything else wraps into PoolError."""
        import pickle

        exc = EvaluationPool._as_exception(
            pickle.dumps(BudgetExceededError("boom"))
        )
        assert isinstance(exc, BudgetExceededError)
        wrapped = EvaluationPool._as_exception(pickle.dumps(ValueError("x")))
        assert isinstance(wrapped, PoolError)
        assert "ValueError" in str(wrapped)
        plain = EvaluationPool._as_exception("worker exploded")
        assert isinstance(plain, PoolError)


# ----------------------------------------------------------------------
# Spawn start method (the no-fork fallback)
# ----------------------------------------------------------------------
class TestSpawnStartMethod:
    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_pool_parity(self):
        hierarchy, distribution = _tree_config(n=80, seed=10)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        inline = _sweep(plan, pool=False)
        with EvaluationPool(workers=2, start_method="spawn") as pool:
            assert pool.start_method == "spawn"
            _assert_same_sweep(inline, _sweep(plan, pool=pool))
            _assert_same_sweep(inline, _sweep(plan, pool=pool))

    def test_env_start_method_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "spawn")
        pool = EvaluationPool(workers=1)
        try:
            assert pool.start_method == "spawn"
        finally:
            pool.close()
