"""Tests for deterministic fault injection and the resilience layer.

Four contracts:

1. **Injection mechanics** — the ``REPRO_FAULTS=1`` gate, scripted and
   seeded-random :class:`~repro.faults.FaultPlan` determinism, trace
   replay, and the typed-exception registry (``FAULT_SITES``).

2. **Resilience primitives** — :class:`~repro.faults.RetryPolicy`
   (deterministic jittered backoff) and
   :class:`~repro.faults.CircuitBreaker` (tick-counted trip ->
   cooldown -> probe -> restore).

3. **Stack behaviour under faults** — ``jobs=2`` noisy sweeps stalled
   past ``REPRO_POOL_DEADLINE`` raise typed
   :class:`~repro.exceptions.PoolTimeoutError` instead of hanging,
   injected worker kills mid-sweep or between sweeps recover
   bit-identically, crashed rebuilds end typed and leave the sweeps
   usable, a slow oracle cannot hold ``Server.drain(timeout=)`` past its
   bound, and crash-atomic cache writes never leave torn files.

4. **Mini chaos soak** — seeded random fault schedules over a server and
   a ``jobs=2`` noisy sweep on the warm executor: termination, typed
   errors only, completed sessions and sweep arrays bit-identical to
   fault-free runs (the full-size soak is ``benchmarks/bench_faults.py``).

Every test arms its own environment (``monkeypatch.setenv``), so the
suite passes in a tier-1 run without ``REPRO_FAULTS`` set.
"""

from __future__ import annotations

import asyncio
import errno
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.analysis import schedule as _schedule
from repro.analysis.schedule import schedule_point
from repro.core.oracle import ExactOracle
from repro.core.session import run_search
from repro.engine import (
    belief,
    close_sweep_executor,
    simulate_all_targets,
    simulate_noisy,
)
from repro.engine.belief import sweep_workers
from repro.engine.cache import EngineResultCache, result_key
from repro.exceptions import (
    AdmissionError,
    FaultError,
    FaultInjectedError,
    OracleError,
    PoolError,
    PoolTimeoutError,
    ReproError,
    ServeError,
    ServeTimeoutError,
    TransportError,
)
from repro.faults import (
    FAULT_SITES,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    FlakyOracle,
    RetryPolicy,
    site_exception,
)
from repro.faults import inject as _inject
from repro.plan import CompiledPlan, compile_policy
from repro.plan.cache import PlanCache
from repro.policies import GreedyTreePolicy
from repro.serve import Server, ServeClient, ServeTransport, SessionRequest
from repro.testing import make_random_tree, random_distribution


@pytest.fixture
def faults_on(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "1")


@pytest.fixture
def cold_executor():
    """Start without a warm sweep executor and leave none behind."""
    close_sweep_executor()
    yield
    close_sweep_executor()


def _config(n=40, seed=7):
    hierarchy = make_random_tree(n, seed=seed)
    distribution = random_distribution(hierarchy, seed)
    plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
    return plan, hierarchy, distribution


def _reference_outcomes(plan, hierarchy, targets):
    return {
        t: run_search(plan, ExactOracle(hierarchy, t), hierarchy)
        for t in targets
    }


def _sweep(plan, **kwargs):
    """One noisy sweep over ``plan``; ``jobs=1`` runs it inline."""
    knobs = dict(error_model=0.1, replications=2, seed=3, votes=3, jobs=2)
    return simulate_noisy(plan, **{**knobs, **kwargs})


def _wedge(plan) -> None:
    """A warm sweep whose first poll stalls the workers: the sweep's own
    shards are queued first and finish, then every worker sleeps."""
    with FaultPlan([FaultSpec("stall", at="pool.collect")]).armed():
        _sweep(plan)


def _pids() -> list[int]:
    return sorted(p.pid for p in sweep_workers() if p.is_alive())


def _same_sweep(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in (
            "labels", "queries", "vote_queries", "prices",
            "run_labels", "run_outcomes", "run_queries",
        )
    )


# ----------------------------------------------------------------------
# 1. Injection mechanics
# ----------------------------------------------------------------------
class TestGate:
    def test_arming_requires_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert not _inject.enabled()
        plan = FaultPlan([FaultSpec("crash", at="serve.step")])
        with pytest.raises(FaultError, match="REPRO_FAULTS=1"):
            with plan.armed():
                pass

    def test_one_plan_at_a_time(self, faults_on):
        with FaultPlan().armed():
            with pytest.raises(FaultError, match="already armed"):
                with FaultPlan().armed():
                    pass

    def test_hook_cleared_even_on_error(self, faults_on):
        plan = FaultPlan([FaultSpec("crash", at="serve.step")])
        with pytest.raises(ServeError):
            with plan.armed():
                schedule_point("serve.step")
        assert _schedule._FAULT_HOOK is None

    def test_spec_validation(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec("meteor", at="serve.step")
        with pytest.raises(FaultError, match="1-based"):
            FaultSpec("crash", at="serve.step", nth=0)
        with pytest.raises(FaultError, match="rate"):
            FaultPlan.random(seed=1, rate=1.5)

    def test_disarmed_hook_costs_nothing(self):
        # With no plan armed, schedule_point is one global load.
        assert _schedule._FAULT_HOOK is None
        schedule_point("serve.step")  # no-op, no error


class TestTypedSites:
    def test_registry_covers_all_stack_boundaries(self):
        # Spot-check the contract the resilience layer leans on.
        assert FAULT_SITES["pool.collect"] is PoolTimeoutError
        assert FAULT_SITES["serve.submit"] is AdmissionError
        assert site_exception("serve.submit") is AdmissionError

    def test_unregistered_label_falls_back_typed(self):
        exc = site_exception("totally.adhoc")
        assert exc is FaultInjectedError
        assert issubclass(exc, ReproError)

    def test_scripted_crash_raises_site_type(self, faults_on):
        plan = FaultPlan([FaultSpec("crash", at="serve.submit")])
        with plan.armed():
            with pytest.raises(AdmissionError, match="injected fault"):
                schedule_point("serve.submit")
        assert plan.trace == [("serve.submit", 1, "crash")]

    def test_nth_occurrence_counts(self, faults_on):
        plan = FaultPlan([FaultSpec("crash", at="oracle.answer", nth=3)])
        with plan.armed():
            schedule_point("oracle.answer")
            schedule_point("oracle.answer")
            with pytest.raises(OracleError):
                schedule_point("oracle.answer")
        assert plan.counts["oracle.answer"] == 3


class TestDeterminism:
    def _drive(self, plan, crossings=300):
        with plan.armed():
            for _ in range(crossings):
                try:
                    schedule_point("serve.step")
                except ReproError:
                    pass
        return list(plan.trace)

    def test_same_seed_same_trace(self, faults_on):
        make = lambda: FaultPlan.random(seed=42, rate=0.1, kinds=("crash",))
        assert self._drive(make()) == self._drive(make())
        assert self._drive(make())  # and some faults actually fired

    def test_different_seed_different_trace(self, faults_on):
        a = self._drive(FaultPlan.random(seed=1, rate=0.1, kinds=("crash",)))
        b = self._drive(FaultPlan.random(seed=2, rate=0.1, kinds=("crash",)))
        assert a != b

    def test_trace_replay(self, faults_on):
        recorded = self._drive(
            FaultPlan.random(seed=9, rate=0.08, kinds=("crash", "slow"))
        )
        assert recorded
        replay = FaultPlan.from_trace(recorded)
        assert self._drive(replay) == recorded

    def test_max_faults_caps_injections(self, faults_on):
        plan = FaultPlan.random(
            seed=3, rate=1.0, kinds=("crash",), max_faults=2
        )
        assert len(self._drive(plan, crossings=50)) == 2

    def test_excluded_sites_never_fire(self, faults_on):
        plan = FaultPlan.random(
            seed=3, rate=1.0, kinds=("crash",), exclude=("serve.step",)
        )
        assert self._drive(plan, crossings=50) == []

    def test_scripted_worker_kinds_without_workers_are_noops(self, faults_on):
        # A scripted kill or stall fires (and is traced) even with no
        # sweep executor running; it just has nothing to act on.
        close_sweep_executor()
        plan = FaultPlan(
            [
                FaultSpec("kill_worker", at="serve.step"),
                FaultSpec("stall", at="serve.step", nth=2),
            ]
        )
        assert self._drive(plan, crossings=3) == [
            ("serve.step", 1, "kill_worker"),
            ("serve.step", 2, "stall"),
        ]
        assert sweep_workers() == []

    def test_pool_kinds_skipped_without_pool(self, faults_on):
        # kill_worker and stall act on the sweep executor's workers; with
        # no executor running, random plans never draw them.
        close_sweep_executor()
        plan = FaultPlan.random(
            seed=3, rate=1.0, kinds=("kill_worker", "stall")
        )
        assert self._drive(plan, crossings=50) == []


# ----------------------------------------------------------------------
# 2. Resilience primitives
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_deterministic_and_bounded(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=0.4, jitter=0.5, seed=11
        )
        delays = policy.delays()
        assert delays == policy.delays()
        assert len(delays) == 4
        for i, pause in enumerate(delays):
            raw = min(0.4, 0.1 * 2**i)
            assert 0.5 * raw <= pause <= raw

    def test_seed_desynchronizes(self):
        a = RetryPolicy(attempts=4, seed=1).delays()
        b = RetryPolicy(attempts=4, seed=2).delays()
        assert a != b

    def test_call_retries_then_succeeds(self):
        calls = {"n": 0}
        retried = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ValueError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0)
        result = policy.call(
            flaky,
            retry_on=(ValueError,),
            on_retry=lambda attempt, exc: retried.append(attempt),
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert retried == [0, 1]

    def test_call_exhausts_and_reraises(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0)

        def always():
            raise ValueError("permanent")

        with pytest.raises(ValueError, match="permanent"):
            policy.call(always, retry_on=(ValueError,))

    def test_foreign_exception_propagates_immediately(self):
        policy = RetryPolicy(attempts=5, base_delay=0.0)
        calls = {"n": 0}

        def wrong_type():
            calls["n"] += 1
            raise KeyError("not retried")

        with pytest.raises(KeyError):
            policy.call(wrong_type, retry_on=(ValueError,))
        assert calls["n"] == 1

    def test_validation(self):
        with pytest.raises(FaultError):
            RetryPolicy(attempts=0)
        with pytest.raises(FaultError):
            RetryPolicy(jitter=1.0)


class TestCircuitBreaker:
    def test_trip_cooldown_probe_restore(self):
        breaker = CircuitBreaker(cooldown=2)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert (breaker.trips, breaker.restores) == (1, 0)
        breaker.tick()
        assert breaker.state == CircuitBreaker.OPEN
        breaker.tick()
        assert breaker.state == CircuitBreaker.HALF_OPEN  # the probe is due
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert (breaker.trips, breaker.restores) == (1, 1)
        breaker.record_success()  # healthy traffic while closed: no transition
        assert (breaker.trips, breaker.restores) == (1, 1)

    def test_failed_probe_retrips_fresh_cooldown(self):
        breaker = CircuitBreaker(cooldown=3)
        breaker.record_failure()
        for _ in range(3):
            breaker.tick()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert (breaker.trips, breaker.restores) == (2, 0)
        breaker.tick()
        assert breaker.state == CircuitBreaker.OPEN  # full cooldown again

    def test_threshold_counts_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN

    def test_failures_while_open_ignored(self):
        breaker = CircuitBreaker(cooldown=2)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.trips == 1
        breaker.tick()
        assert breaker.state == CircuitBreaker.OPEN  # cooldown not extended

    def test_validation(self):
        with pytest.raises(FaultError):
            CircuitBreaker(cooldown=0)
        with pytest.raises(FaultError):
            CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# 3. Stack behaviour under faults
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("cold_executor")
class TestPoolDeadlines:
    def test_wedged_worker_raises_typed_timeout(self, faults_on, monkeypatch):
        plan, hierarchy, _ = _config(seed=21)
        reference = _sweep(plan, jobs=1)
        # Warm before the deadline: under spawn, worker boot itself takes
        # longer than 0.3s of "no progress".  The variable is read on
        # every sweep.
        _wedge(plan)
        wedged = _pids()
        monkeypatch.setenv("REPRO_POOL_DEADLINE", "0.3")
        start = time.monotonic()
        with pytest.raises(PoolTimeoutError) as exc_info:
            _sweep(plan)
        assert time.monotonic() - start < 20.0
        message = str(exc_info.value)
        assert "no progress" in message
        assert "pids" in message and "shard" in message
        assert sweep_workers() == []  # the wedged workers were killed
        assert multiprocessing.active_children() == []
        # Without the deadline (a spawn boot alone can exceed 0.3s), the
        # next sweep starts fresh workers and matches.
        monkeypatch.delenv("REPRO_POOL_DEADLINE")
        assert _same_sweep(_sweep(plan), reference)
        assert set(_pids()).isdisjoint(wedged)

    def test_deadline_validation(self, monkeypatch):
        plan, hierarchy, _ = _config(seed=22)
        for raw in ("-1", "0", "soon"):
            monkeypatch.setenv("REPRO_POOL_DEADLINE", raw)
            with pytest.raises(PoolError, match="DEADLINE"):
                _sweep(plan)
        _sweep(plan, jobs=1)  # inline sweeps have no workers to wait on


@pytest.mark.usefixtures("cold_executor")
class TestInjectedPoolFaults:
    def test_kill_worker_recovers_bit_identical(self, faults_on):
        """A kill mid-sweep: the wedged workers cannot finish a shard
        before the kill lands, the executor is rebuilt, and the shards
        rerun with identical results."""
        plan, hierarchy, _ = _config(seed=25)
        reference = _sweep(plan, jobs=1)
        _wedge(plan)
        wedged = _pids()
        fault = FaultPlan([FaultSpec("kill_worker", at="pool.collect", nth=1)])
        with fault.armed():
            result = _sweep(plan)
        assert fault.fired == 1
        assert set(_pids()).isdisjoint(wedged)
        assert _same_sweep(reference, result)

    def test_kill_while_idle_between_sweeps_recovers(self, faults_on):
        """A kill between two sweeps, while the workers wait for work:
        the second sweep finds the executor broken, rebuilds it and
        matches the fault-free arrays."""
        plan, hierarchy, _ = _config(seed=26)
        reference = _sweep(plan, jobs=1)
        fault = FaultPlan([FaultSpec("kill_worker", at="serve.submit")])
        with fault.armed():
            first = _sweep(plan)
            idle = _pids()
            with Server(plan) as server:
                server.submit(SessionRequest("s", target=hierarchy.root))
                server.drain(timeout=30.0)
            second = _sweep(plan)
        assert fault.trace == [("serve.submit", 1, "kill_worker")]
        assert set(_pids()).isdisjoint(idle)
        assert _same_sweep(first, reference)
        assert _same_sweep(second, reference)

    def test_crash_mid_restart_leaves_the_pool_usable(self, faults_on):
        """A crash injected while a rebuild replaces the broken executor
        must not leave the broken one behind: the sweep fails typed, and
        the next sweep matches the inline arrays."""
        plan, hierarchy, _ = _config(n=30, seed=51)
        reference = _sweep(plan, jobs=1)
        _wedge(plan)  # the kill lands before any shard can finish
        fault = FaultPlan(
            [
                FaultSpec("kill_worker", at="pool.collect", nth=1),
                FaultSpec("crash", at="pool.restart.rebuild", nth=1),
            ]
        )
        with fault.armed():
            with pytest.raises(PoolError, match="injected"):
                _sweep(plan)
        assert sweep_workers() == []
        again = _sweep(plan)
        assert ("pool.restart.rebuild", 1, "crash") in fault.trace
        assert _same_sweep(again, reference)

    def test_queue_rebuild_failure_is_typed_and_leaves_the_pool_usable(
        self, monkeypatch
    ):
        """A rebuild whose fresh executor cannot build its result queue
        (out of file descriptors) raises ``PoolError`` chained to the
        ``OSError``; the next sweep builds an executor and matches."""
        plan, hierarchy, _ = _config(n=120, seed=52)
        reference = _sweep(plan, jobs=1)
        _sweep(plan)
        for proc in sweep_workers():
            os.kill(proc.pid, signal.SIGKILL)
        context = multiprocessing.get_context(belief._start_method())
        real_simple_queue = context.SimpleQueue
        calls = []

        def simple_queue():
            calls.append(None)
            if len(calls) == 1:
                raise OSError(errno.EMFILE, "Too many open files")
            return real_simple_queue()

        monkeypatch.setattr(context, "SimpleQueue", simple_queue)
        with pytest.raises(PoolError, match="cannot start") as info:
            _sweep(plan)
        assert isinstance(info.value.__cause__, OSError)
        assert sweep_workers() == []
        for _ in range(2):
            assert _same_sweep(_sweep(plan), reference)
        assert len(calls) == 2  # one failed build, then one warm executor


class TestServerBreaker:
    def test_drain_timeout_raises_typed_under_stall(self):
        """A slow oracle holds its session open past the drain bound: the
        drain ends in a typed ServeTimeoutError naming what is left."""
        plan, hierarchy, _ = _config(seed=34)
        depths = plan.leaf_depths()
        deepest = max(depths, key=depths.get)
        assert depths[deepest] >= 3, depths

        class SlowOracle:
            def __init__(self, inner):
                self.inner = inner

            def answer(self, query):
                time.sleep(0.25)
                return self.inner.answer(query)

        with Server(plan) as server:
            server.submit(SessionRequest("warm", target=hierarchy.root))
            server.drain(timeout=30.0)
            server.submit(
                SessionRequest(
                    "slow", oracle=SlowOracle(ExactOracle(hierarchy, deepest))
                )
            )
            for i, t in enumerate(list(hierarchy.nodes)[:4]):
                server.submit(SessionRequest(i, target=t))
            with pytest.raises(ServeTimeoutError) as exc_info:
                server.drain(timeout=0.5)
            message = str(exc_info.value)
            assert "deadline" in message and "outstanding" in message
            assert server.in_flight == 1  # the slow session, still open

    def test_drain_timeout_validation(self):
        plan, hierarchy, _ = _config(seed=35)
        with Server(plan) as server:
            with pytest.raises(ServeError, match="positive"):
                server.drain(timeout=0.0)

    def test_flaky_oracle_errors_one_session_typed(self, faults_on):
        plan, hierarchy, _ = _config(seed=36)
        fault = FaultPlan([FaultSpec("crash", at="oracle.answer", nth=1)])
        targets = list(hierarchy.nodes)[:3]
        with Server(plan) as server:
            server.submit(
                SessionRequest(
                    "flaky",
                    oracle=FlakyOracle(ExactOracle(hierarchy, targets[0])),
                )
            )
            for t in targets:
                server.submit(SessionRequest(t, target=t))
            with fault.armed():
                outcomes = {
                    o.session_id: o for o in server.drain(timeout=30.0)
                }
        assert isinstance(outcomes["flaky"].error, OracleError)
        for t in targets:  # co-served sessions are untouched
            assert outcomes[t].ok


class TestCrashAtomicWrites:
    def _result(self, plan, hierarchy):
        return simulate_all_targets(plan, result_cache=False)

    def test_result_cache_put_crash_preserves_old_entry(
        self, faults_on, tmp_path
    ):
        plan, hierarchy, _ = _config(seed=41)
        result = self._result(plan, hierarchy)
        cache = EngineResultCache(tmp_path)
        key = result_key(
            "cfg", result.target_ix, 99,
            np.ones(hierarchy.n),
        )
        cache.put(result, key)
        before = cache.path_for(key).read_bytes()
        fault = FaultPlan([FaultSpec("crash", at="cache.result_put")])
        with fault.armed():
            with pytest.raises(FaultInjectedError):
                cache.put(result, key, checked=True)
        assert cache.path_for(key).read_bytes() == before  # old entry intact
        assert not list(tmp_path.glob("*.tmp"))  # no torn temporaries
        assert cache.get(key, hierarchy) is not None

    def test_plan_save_crash_preserves_old_file(self, faults_on, tmp_path):
        plan, hierarchy, _ = _config(seed=42)
        path = tmp_path / "plan.bin"
        plan.save(path)
        before = path.read_bytes()
        fault = FaultPlan([FaultSpec("crash", at="plan.save")])
        with fault.armed():
            with pytest.raises(FaultInjectedError):
                plan.save(path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp*"))
        loaded = CompiledPlan.load(path)
        assert loaded.config_key == plan.config_key

    def test_plan_cache_corrupt_entry_still_degrades_to_miss(self, tmp_path):
        plan, hierarchy, _ = _config(seed=43)
        cache = PlanCache(tmp_path)
        path = cache.put(plan)
        path.write_bytes(b"scribble" * 100)
        with pytest.warns(UserWarning, match="unreadable"):
            assert cache.probe(plan.config_key) is None
        assert not path.exists()  # corrupt entry dropped

    def test_result_cache_corrupt_entry_still_degrades_to_miss(
        self, tmp_path
    ):
        plan, hierarchy, _ = _config(seed=44)
        result = self._result(plan, hierarchy)
        cache = EngineResultCache(tmp_path)
        key = result_key("cfg", result.target_ix, 99, np.ones(hierarchy.n))
        path = cache.put(result, key)
        path.write_bytes(b"scribble" * 100)
        with pytest.warns(UserWarning, match="unreadable"):
            assert cache.get(key, hierarchy) is None
        assert cache.errors == 1


# ----------------------------------------------------------------------
# 4. Mini chaos soak (the full-size one is benchmarks/bench_faults.py)
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("cold_executor")
class TestMiniSoak:
    def test_seeded_schedules_terminate_typed_and_bit_identical(
        self, faults_on
    ):
        plan, hierarchy, _ = _config(n=30, seed=51)
        targets = list(hierarchy.nodes)[:10]
        reference = _reference_outcomes(plan, hierarchy, targets)
        sweep_reference = _sweep(plan, jobs=1)
        for seed in range(12):
            fault = FaultPlan.random(
                seed,
                rate=0.03,
                kinds=("crash", "kill_worker", "slow"),
                max_faults=3,
            )
            server = Server(plan)
            outcomes = {}
            sweep = None
            try:
                with fault.armed():
                    try:
                        for o in server.serve(
                            SessionRequest(t, target=t) for t in targets
                        ):
                            outcomes[o.session_id] = o
                    except ReproError:
                        # An injected crash escaped through the serve
                        # loop itself: typed, so the schedule is a
                        # pass — sessions it cut short are unserved.
                        pass
                    try:
                        sweep = _sweep(plan)
                    except ReproError:
                        pass  # typed: the sweep was cut short, legally
            finally:
                server.close()
            if sweep is not None:
                assert _same_sweep(sweep, sweep_reference), (
                    f"seed {seed} trace {fault.trace}"
                )
            for sid, outcome in outcomes.items():
                if outcome.ok:
                    assert outcome.result == reference[sid], (
                        f"seed {seed} trace {fault.trace}"
                    )
                else:
                    assert isinstance(outcome.error, ReproError), (
                        f"seed {seed} trace {fault.trace}"
                    )


# ----------------------------------------------------------------------
# 8. The network edge: transport.* fault sites
# ----------------------------------------------------------------------
class TestTransportFaults:
    def test_registry_has_transport_sites(self):
        assert FAULT_SITES["transport.request"] is TransportError
        assert FAULT_SITES["transport.open"] is AdmissionError
        assert FAULT_SITES["transport.drain"] is ServeTimeoutError
        assert site_exception("transport.connect") is TransportError

    def test_connect_fault_absorbed_by_retry(self, faults_on):
        """An injected dial failure is retried away by the RetryPolicy."""
        plan, hierarchy, _ = _config(n=30)
        target = list(hierarchy.nodes)[3]
        reference = run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )
        fault = FaultPlan([FaultSpec("crash", at="transport.connect")])

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    with fault.armed():
                        client = await ServeClient.connect(
                            host,
                            port,
                            retry=RetryPolicy(attempts=2, base_delay=0.001),
                        )
                        try:
                            return await client.serve_target("s", target)
                        finally:
                            await client.close()

        result = asyncio.run(main())
        assert result == reference
        assert fault.trace == [("transport.connect", 1, "crash")]

    def test_open_fault_is_typed_and_retried(self, faults_on):
        """A crash at transport.open surfaces as AdmissionError on the
        wire, which the client's retry policy absorbs."""
        plan, hierarchy, _ = _config(n=30)
        target = list(hierarchy.nodes)[5]
        reference = run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )
        fault = FaultPlan([FaultSpec("crash", at="transport.open")])

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    client = await ServeClient.connect(
                        host,
                        port,
                        retry=RetryPolicy(attempts=3, base_delay=0.001),
                    )
                    try:
                        with fault.armed():
                            return await client.serve_target("s", target)
                    finally:
                        await client.close()

        result = asyncio.run(main())
        assert result == reference
        assert ("transport.open", 1, "crash") in fault.trace

    def test_request_fault_trips_the_breaker(self, faults_on):
        """A transport-level failure trips the per-backend breaker:
        requests fail fast during the cooldown, then one probe restores."""
        plan, hierarchy, _ = _config(n=30)
        targets = list(hierarchy.nodes)[:4]
        fault = FaultPlan([FaultSpec("crash", at="transport.request")])
        breaker = CircuitBreaker(cooldown=3)

        async def main():
            failures = []
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    client = await ServeClient.connect(
                        host, port, breaker=breaker
                    )
                    try:
                        with fault.armed():
                            for i, t in enumerate(targets):
                                try:
                                    await client.serve_target(f"s-{i}", t)
                                except TransportError as exc:
                                    failures.append(str(exc))
                    finally:
                        await client.close()
            return failures

        failures = asyncio.run(main())
        # Request 1: injected crash (trip).  Requests 2-3: refused fast
        # while cooling down.  Request 4: half-open probe succeeds.
        assert len(failures) == 3
        assert "injected fault" in failures[0]
        assert all("circuit breaker open" in f for f in failures[1:])
        assert breaker.trips == 1
        assert breaker.restores == 1

    def test_drain_fault_is_typed(self, faults_on):
        """An injected fault in the drain window surfaces as the
        registered ServeTimeoutError, never untyped."""
        plan, _, _ = _config(n=30)
        fault = FaultPlan([FaultSpec("crash", at="transport.drain")])

        async def main():
            with Server(plan) as server:
                transport = ServeTransport(server)
                await transport.start()
                with fault.armed():
                    with pytest.raises(ServeTimeoutError, match="injected"):
                        await transport.shutdown(timeout=5.0)
                # The typed failure aborted the drain before the listener
                # closed; a clean retry finishes the shutdown.
                await transport.shutdown(timeout=5.0)

        asyncio.run(main())
