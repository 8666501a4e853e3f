"""Tests for the noisy sweeps' worker processes (``simulate_noisy(jobs=N)``).

Contracts under test (the warm executor in :mod:`repro.engine.belief`),
each checked against the inline sweep (``jobs=1``):

* **bit-identity** — a cold and a warm ``jobs=2`` sweep reproduce the
  inline sweep's arrays exactly on trees, DAGs, the csr kernel,
  heterogeneous prices and restricted targets (``test_belief.py`` fuzzes
  this across random configurations; here the fixed cases double as
  precise failure locators);
* **warm reuse** — a second sweep on the same plan keeps the worker
  processes; another plan, another worker count or another start method
  replaces them;
* **lifecycle** — close joins every worker, double close is safe, a
  sweep after close starts afresh, and a process that never closes still
  leaves no worker behind at exit (the session fixture in ``conftest.py``
  checks ``multiprocessing.active_children()`` for the whole suite);
* **failure handling** — a worker killed mid-task or while idle is
  replaced and only the unfinished shards rerun, with identical results;
  workers that keep dying end in :class:`PoolError`; a worker's
  :class:`ReproError` keeps its type and anything else becomes
  :class:`PoolError`;
* **spawn** — the no-fork path works end to end
  (``REPRO_POOL_START_METHOD=spawn``; CI also runs this module under that
  setting on Linux, whose default is fork).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import connection
from pathlib import Path

import numpy as np
import pytest

from repro.core import hierarchy as hierarchy_mod
from repro.core.costs import TableCost
from repro.engine import (
    belief,
    close_sweep_executor,
    make_answerer,
    set_default_jobs,
    simulate_noisy,
)
from repro.engine.belief import NoiseChunkSpec, sweep_workers
from repro.exceptions import HierarchyError, PoolError
from repro.faults import FaultPlan
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy, make_policy
from repro.testing import make_random_dag, make_random_tree, random_distribution


def _sweep(plan, hierarchy=None, costs=None, *, jobs=2, **kwargs):
    """One noisy sweep over ``plan``; ``jobs=1`` runs it inline."""
    return simulate_noisy(
        plan, hierarchy, None, costs,
        error_model=0.1, replications=2, seed=3, votes=3, jobs=jobs, **kwargs,
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


def _tree_plan(n=120, seed=3):
    hierarchy, distribution = _tree_config(n, seed)
    return compile_policy(GreedyTreePolicy(), hierarchy, distribution)


def _pids() -> list[int]:
    return sorted(p.pid for p in sweep_workers() if p.is_alive())


def _exited(processes, timeout=10.0) -> bool:
    """Wait until every process has exited.

    Waits on the sentinels rather than joining: the executor's own thread
    reaps its workers, and a second joiner can briefly see a reaped
    worker as alive.
    """
    end = time.monotonic() + timeout
    pending = list(processes)
    while pending and time.monotonic() < end:
        ready = connection.wait(
            [p.sentinel for p in pending], end - time.monotonic()
        )
        pending = [p for p in pending if p.sentinel not in ready]
    return not pending


@pytest.fixture(autouse=True)
def cold_executor():
    """Every test starts without a warm executor and leaves none behind."""
    close_sweep_executor()
    yield
    close_sweep_executor()


# ----------------------------------------------------------------------
# Bit-identity of the sharded sweep
# ----------------------------------------------------------------------
class TestPoolParity:
    def test_tree_walk_matches_sequential(self):
        plan = _tree_plan()
        inline = _sweep(plan, jobs=1)
        cold = _sweep(plan)
        _assert_same_sweep(inline, cold)
        workers = _pids()
        assert len(workers) == 2
        _assert_same_sweep(inline, _sweep(plan))  # warm
        assert _pids() == workers

    def test_dag_walk_matches_sequential(self):
        hierarchy = make_random_dag(90, seed=7)
        distribution = random_distribution(hierarchy, 7)
        plan = compile_policy(
            make_policy("greedy-dag"), hierarchy, distribution
        )
        _assert_same_sweep(_sweep(plan, jobs=1), _sweep(plan))

    def test_heterogeneous_prices(self):
        hierarchy, distribution = _tree_config(seed=12)
        costs = TableCost(
            {node: 1.0 + (i % 5) for i, node in enumerate(hierarchy.nodes)}
        )
        plan = compile_policy(
            GreedyTreePolicy(), hierarchy, distribution, costs
        )
        _assert_same_sweep(
            _sweep(plan, costs=costs, jobs=1), _sweep(plan, costs=costs)
        )

    def test_restricted_targets(self):
        hierarchy, distribution = _tree_config(seed=9)
        sample = list(hierarchy.nodes[::2])
        kwargs = dict(targets=sample, max_queries=2 * hierarchy.n + 10)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        _assert_same_sweep(
            _sweep(plan, jobs=1, **kwargs), _sweep(plan, **kwargs)
        )

    def test_csr_walk_rebuilds_closure_in_workers(self, monkeypatch):
        """Above ``_MATRIX_NODE_LIMIT`` the parent pins the "csr" kind.
        The workers' hierarchy carries no closure (spawn workers unpickle
        a cache-free copy), so every worker builds its own and sweeps
        bit-identically."""
        monkeypatch.setattr(hierarchy_mod, "_MATRIX_NODE_LIMIT", 16)
        hierarchy = make_random_dag(80, seed=5)
        distribution = random_distribution(hierarchy, 5)
        plan = compile_policy(
            make_policy("greedy-dag"), hierarchy, distribution
        )
        cold = pickle.loads(pickle.dumps(hierarchy))
        assert make_answerer(cold, 2 * cold.n).kind == "csr"
        _assert_same_sweep(_sweep(plan, cold, jobs=1), _sweep(plan, cold))
        assert cold._reach_matrix is None
        assert cold._reach_closure is not None
        assert pickle.loads(pickle.dumps(cold))._reach_closure is None

    def test_domain_error_propagates_with_type(self):
        """A worker's own library error reaches the caller with its type
        (here the interval kernel refusing a DAG), and the warm workers
        survive it."""
        hierarchy = make_random_dag(40, seed=2)
        plan = compile_policy(
            make_policy("greedy-dag"), hierarchy,
            random_distribution(hierarchy, 2),
        )
        with pytest.raises(HierarchyError, match="requires a tree"):
            _sweep(plan, kind="tree")
        workers = _pids()
        _assert_same_sweep(_sweep(plan, jobs=1), _sweep(plan))
        assert _pids() == workers


# ----------------------------------------------------------------------
# Warm reuse across sweeps
# ----------------------------------------------------------------------
class TestWarmReuse:
    def test_same_plan_keeps_the_workers(self):
        hierarchy, distribution = _tree_config(n=60, seed=1)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        _sweep(plan)
        workers = _pids()
        # Other sweep knobs, and an equal plan compiled again (same
        # config_key, another object), reuse the workers.
        simulate_noisy(plan, error_model=0.2, seed=9, jobs=2, repeats=3)
        again = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        assert again is not plan and again.config_key == plan.config_key
        _sweep(again)
        assert _pids() == workers

    def test_another_plan_replaces_the_workers(self):
        first, second = _tree_plan(n=60, seed=1), _tree_plan(n=60, seed=2)
        reference = _sweep(second, jobs=1)
        _sweep(first)
        old = list(sweep_workers())
        _assert_same_sweep(reference, _sweep(second))
        assert not any(p.is_alive() for p in old)
        assert set(_pids()).isdisjoint(p.pid for p in old)

    def test_another_worker_count_replaces_the_workers(self):
        plan = _tree_plan(n=60, seed=4)
        reference = _sweep(plan, jobs=1)
        _sweep(plan)
        assert len(_pids()) == 2
        _assert_same_sweep(reference, _sweep(plan, jobs=3))
        assert len(_pids()) == 3

    def test_keyless_plan_reused_by_identity(self):
        """A plan without a content key keeps the workers only while the
        same plan object sweeps."""
        from repro.plan import CompiledPlan

        hierarchy, distribution = _tree_config(n=30, seed=2)
        compiled = compile_policy(GreedyTreePolicy(), hierarchy, distribution)

        def keyless():
            return CompiledPlan(
                hierarchy, *compiled.payload_arrays().values(),
                policy_name=compiled.policy_name, config_key="",
            )

        plan = keyless()
        assert plan.config_key == ""
        _assert_same_sweep(_sweep(plan, jobs=1), _sweep(plan))
        workers = _pids()
        _sweep(plan)
        assert _pids() == workers
        _sweep(keyless())
        assert set(_pids()).isdisjoint(workers)


# ----------------------------------------------------------------------
# Lifecycle and teardown
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_jobs_one_sweeps_inline(self):
        _sweep(_tree_plan(n=40), jobs=1)
        assert sweep_workers() == []

    def test_close_leaves_no_worker_alive(self):
        _sweep(_tree_plan(n=60))
        workers = list(sweep_workers())
        assert len(workers) == 2 and all(p.is_alive() for p in workers)
        close_sweep_executor()
        assert not any(p.is_alive() for p in workers)
        assert sweep_workers() == []
        assert multiprocessing.active_children() == []

    def test_default_jobs_shards_sweeps(self):
        """``set_default_jobs`` (the CLI's ``--jobs``) is what a sweep
        without ``jobs=`` uses; an explicit ``jobs=1`` still runs inline."""
        plan = _tree_plan(n=40, seed=7)
        reference = _sweep(plan, jobs=1)
        set_default_jobs(2)
        try:
            _assert_same_sweep(reference, _sweep(plan, jobs=None))
            assert len(_pids()) == 2
            close_sweep_executor()
            _sweep(plan, jobs=1)
            assert sweep_workers() == []
        finally:
            set_default_jobs(None)

    def test_cli_jobs_prints_the_inline_table(self, capsys):
        """``repro noise --jobs 2`` sweeps on the warm workers and prints
        the ``--jobs 1`` table; the ``--pool`` flag is gone."""
        from repro.cli import main

        def table():
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "finished" not in line]

        try:
            assert main(["noise", "--scale", "tiny", "--jobs", "1"]) == 0
            inline = table()
            assert main(["noise", "--scale", "tiny", "--jobs", "2"]) == 0
            assert table() == inline
            assert len(_pids()) == 2
        finally:
            set_default_jobs(None)
        with pytest.raises(SystemExit):
            main(["noise", "--scale", "tiny", "--pool", "2"])

    def test_close_kills_busy_workers_promptly(self):
        """Close never waits on running tasks: a stalled executor is shut
        down in well under the stall, every worker reaped."""
        _sweep(_tree_plan(n=40, seed=8))
        workers = list(sweep_workers())
        belief._stall_workers(60.0)
        start = time.monotonic()
        close_sweep_executor()
        assert time.monotonic() - start < 10.0
        assert not any(p.is_alive() for p in workers)
        assert multiprocessing.active_children() == []

    def test_double_close_and_use_after_close(self):
        plan = _tree_plan(n=30)
        _sweep(plan)
        old = _pids()
        close_sweep_executor()
        close_sweep_executor()  # idempotent
        _assert_same_sweep(_sweep(plan, jobs=1), _sweep(plan))
        assert set(_pids()).isdisjoint(old)  # a fresh executor

    def test_atexit_teardown_of_orphaned_pool(self, tmp_path):
        """A process that never closes the executor still leaves no
        worker behind when it exits."""
        script = tmp_path / "orphan.py"
        script.write_text(
            "from repro.engine import simulate_noisy\n"
            "from repro.engine.belief import sweep_workers\n"
            "from repro.plan import compile_policy\n"
            "from repro.policies import GreedyTreePolicy\n"
            "from repro.testing import make_random_tree, random_distribution\n"
            "\n"
            "# __main__ guard: under the spawn start method the workers\n"
            "# re-import this module, and must not sweep on their own.\n"
            "if __name__ == '__main__':\n"
            "    h = make_random_tree(40, seed=1)\n"
            "    d = random_distribution(h, 1)\n"
            "    plan = compile_policy(GreedyTreePolicy(), h, d)\n"
            "    simulate_noisy(plan, error_model=0.1, jobs=2)\n"
            "    print(*(p.pid for p in sweep_workers()))\n"
            "    # no close: the atexit hook must shut the workers down\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        worker_pids = [int(p) for p in proc.stdout.split()]
        assert len(worker_pids) == 2
        for pid in worker_pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------
class TestFailureInjection:
    def _plan_and_reference(self, seed=3):
        plan = _tree_plan(seed=seed)
        return plan, _sweep(plan, jobs=1)

    def test_worker_killed_mid_task_recovers(self):
        """SIGKILL while the sweep waits on busy workers: the executor
        breaks, is rebuilt, and the shards rerun with identical results."""
        plan, reference = self._plan_and_reference()
        _sweep(plan)
        old = _pids()
        belief._stall_workers(60.0)  # the sweep's shards queue behind these
        killer = threading.Timer(0.3, os.kill, (old[0], signal.SIGKILL))
        killer.start()
        try:
            result = _sweep(plan)
        finally:
            killer.join(10.0)
        _assert_same_sweep(reference, result)
        assert set(_pids()).isdisjoint(old)

    def test_worker_killed_while_idle_recovers(self):
        """SIGKILL while a worker waits for work (it may die holding the
        call queue's read lock): the next sweep replaces the executor."""
        plan, reference = self._plan_and_reference(seed=4)
        _sweep(plan)
        old = _pids()
        time.sleep(0.2)  # both workers back waiting on the call queue
        victim = next(p for p in sweep_workers() if p.pid == old[0])
        os.kill(victim.pid, signal.SIGKILL)
        assert _exited([victim])
        _assert_same_sweep(reference, _sweep(plan))
        assert set(_pids()).isdisjoint(old)

    def test_max_respawns_bounds_repeated_deaths(self, monkeypatch):
        """Workers that keep dying end in PoolError, not an endless
        rebuild loop (and not a hang): a worker is killed at every result
        poll, so every rebuilt executor breaks before its shards finish.
        """
        monkeypatch.setenv("REPRO_FAULTS", "1")
        plan = _tree_plan(seed=5)
        _sweep(plan)  # warm: the kill finds workers at the first poll
        murder = FaultPlan.random(
            seed=0, rate=1.0, kinds=("kill_worker",),
            sites=("pool.collect",), max_faults=None,
        )
        with murder.armed():
            with pytest.raises(PoolError, match="giving up"):
                _sweep(plan)
        assert murder.fired >= belief._MAX_RESPAWNS + 1
        assert sweep_workers() == []  # the last broken executor is closed

    def test_worker_shards_respect_the_posterior_bound(self, monkeypatch):
        """A tracked posterior bounds every worker's shard like an inline
        chunk (``4_000_000 // n`` sessions by default), so no worker is
        asked for a dense block over all of its sessions at once."""
        plan = _tree_plan(n=60, seed=9)
        monkeypatch.setattr(belief, "_POSTERIOR_CELLS", 60 * 25)  # 25 sessions
        shard_sizes = []
        run_on_workers = belief._run_on_workers

        def spy(plan, hierarchy, specs, workers):
            shard_sizes.extend(len(spec.flat_index) for spec in specs)
            return run_on_workers(plan, hierarchy, specs, workers)

        monkeypatch.setattr(belief, "_run_on_workers", spy)
        knobs = dict(map_threshold=0.9, track_posterior=True)
        inline = _sweep(plan, jobs=1, **knobs)
        sharded = _sweep(plan, **knobs)
        _assert_same_sweep(inline, sharded)
        assert np.array_equal(inline.posterior, sharded.posterior)
        assert sum(shard_sizes) == 60 * 2  # targets x replications
        assert max(shard_sizes) <= 25 and len(shard_sizes) >= 5

    def test_error_marshalling_preserves_domain_types(self):
        """A worker's ReproError keeps its type (inline parity); any other
        exception arrives as PoolError naming the original."""
        hierarchy, _ = _tree_config(n=30, seed=6)
        plan = compile_policy(GreedyTreePolicy(), hierarchy)
        n = hierarchy.n

        def spec(kind=None, target=0):
            return NoiseChunkSpec(
                flat_index=np.arange(2, dtype=np.int64),
                target_ix=np.array([0, target], dtype=np.int64),
                seed=0, rates=np.full(n, 0.1), persistent=False, votes=1,
                budget=2 * n + 10, price_vec=np.ones(n),
                prior=np.full(n, 1.0 / n), map_threshold=None,
                track_posterior=False, kind=kind,
            )

        with pytest.raises(HierarchyError, match="unknown splitter kind"):
            belief._run_on_workers(plan, hierarchy, [spec(kind="bogus")], 2)
        with pytest.raises(PoolError, match="IndexError"):
            belief._run_on_workers(plan, hierarchy, [spec(target=n + 7)], 2)
        (payload,) = belief._run_on_workers(plan, hierarchy, [spec()], 2)
        assert payload["labels"].shape == (2,)


# ----------------------------------------------------------------------
# Spawn start method (the no-fork path)
# ----------------------------------------------------------------------
_needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)


class TestSpawnStartMethod:
    @_needs_spawn
    def test_spawn_pool_parity(self, monkeypatch):
        plan = _tree_plan(n=80, seed=10)
        inline = _sweep(plan, jobs=1)
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "spawn")
        _assert_same_sweep(inline, _sweep(plan))
        assert belief._WARM.start_method == "spawn"
        workers = _pids()
        _assert_same_sweep(inline, _sweep(plan))
        assert _pids() == workers

    @_needs_spawn
    def test_env_start_method_override(self, monkeypatch):
        plan = _tree_plan(n=30, seed=11)
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "spawn")
        _sweep(plan)
        assert belief._WARM.start_method == "spawn"
        spawned = _pids()
        # The start method is read per sweep: changing it replaces the
        # workers even for the same plan.
        monkeypatch.delenv("REPRO_POOL_START_METHOD")
        _sweep(plan)
        if "fork" in multiprocessing.get_all_start_methods():
            assert belief._WARM.start_method == "fork"  # the default
            assert set(_pids()).isdisjoint(spawned)
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "no-such-method")
        with pytest.raises(PoolError, match="start method"):
            _sweep(plan)
