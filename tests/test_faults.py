"""Tests for deterministic fault injection and the resilience layer.

Four contracts:

1. **Injection mechanics** — the ``REPRO_FAULTS=1`` gate, scripted and
   seeded-random :class:`~repro.faults.FaultPlan` determinism, trace
   replay, and the typed-exception registry (``FAULT_SITES``).

2. **Resilience primitives** — :class:`~repro.faults.RetryPolicy`
   (deterministic jittered backoff) and
   :class:`~repro.faults.CircuitBreaker` (tick-counted trip ->
   cooldown -> probe -> restore).

3. **Stack behaviour under faults** — pool/stream deadlines raise typed
   :class:`~repro.exceptions.PoolTimeoutError` instead of hanging,
   injected worker kills recover bit-identically, the server's breaker
   degrades and *restores* streaming, and crash-atomic cache writes
   never leave torn files.

4. **Mini chaos soak** — seeded random fault schedules over a real
   pool + server: termination, typed errors only, completed sessions
   bit-identical to fault-free serving (the full-size soak is
   ``benchmarks/bench_faults.py``).

Every test arms its own environment (``monkeypatch.setenv``), so the
suite passes in a tier-1 run without ``REPRO_FAULTS`` set.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import os
import signal
import time

import numpy as np
import pytest

from repro.analysis import schedule as _schedule
from repro.core.oracle import ExactOracle
from repro.core.session import run_search
from repro.engine import EvaluationPool, simulate_all_targets
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
    maybe_inject,
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
                maybe_inject("serve.step")
        assert _schedule._FAULT_HOOK is None

    def test_spec_validation(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec("meteor", at="serve.step")
        with pytest.raises(FaultError, match="1-based"):
            FaultSpec("crash", at="serve.step", nth=0)
        with pytest.raises(FaultError, match="rate"):
            FaultPlan.random(seed=1, rate=1.5)

    def test_disarmed_hook_costs_nothing(self):
        # With no plan armed, schedule_point is two global loads.
        assert _schedule._FAULT_HOOK is None
        maybe_inject("serve.step")  # no-op, no error


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
                maybe_inject("serve.submit")
        assert plan.trace == [("serve.submit", 1, "crash")]

    def test_nth_occurrence_counts(self, faults_on):
        plan = FaultPlan([FaultSpec("crash", at="oracle.answer", nth=3)])
        with plan.armed():
            maybe_inject("oracle.answer")
            maybe_inject("oracle.answer")
            with pytest.raises(OracleError):
                maybe_inject("oracle.answer")
        assert plan.counts["oracle.answer"] == 3


class TestDeterminism:
    def _drive(self, plan, crossings=300):
        with plan.armed():
            for _ in range(crossings):
                try:
                    maybe_inject("serve.step")
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

    def test_pool_kinds_skipped_without_pool(self, faults_on):
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
        events = []
        breaker = CircuitBreaker(
            cooldown=2,
            on_trip=lambda: events.append("trip"),
            on_restore=lambda: events.append("restore"),
        )
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow_probe()
        breaker.tick()
        assert breaker.state == CircuitBreaker.OPEN
        breaker.tick()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow_probe() and breaker.probing
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert events == ["trip", "restore"]
        assert breaker.trips == 1 and breaker.restores == 1

    def test_failed_probe_retrips_fresh_cooldown(self):
        breaker = CircuitBreaker(cooldown=3)
        breaker.record_failure()
        for _ in range(3):
            breaker.tick()
        assert breaker.probing
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
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
class TestPoolDeadlines:
    def test_wedged_worker_raises_typed_timeout(self):
        plan, hierarchy, _ = _config(seed=21)
        with EvaluationPool(workers=1) as pool:
            simulate_all_targets(plan, result_cache=False, pool=pool)  # warm
            # Tighten only after the warm run: under spawn, worker boot
            # itself takes longer than 0.3s of "no progress".  The
            # attribute is read per collect call, so this is the same
            # deadline the constructor argument installs.
            pool.deadline = 0.3
            pool._inject_sleep(60.0)  # the lone worker is now busy
            with pytest.raises(PoolTimeoutError) as exc_info:
                simulate_all_targets(plan, result_cache=False, pool=pool)
        message = str(exc_info.value)
        assert "no progress" in message
        assert "pid" in message and "task" in message

    def test_per_call_deadline_overrides_pool_default(self):
        plan, hierarchy, _ = _config(seed=22)
        with EvaluationPool(workers=1) as pool:  # no pool-wide deadline
            # Boot + attach before the deadlined stream opens: spawn
            # workers take longer than 0.3s to come up.
            simulate_all_targets(plan, result_cache=False, pool=pool)
            pool.publish(plan)
            with pool.stream(plan, deadline=0.3) as stream:
                stream.submit(list(hierarchy.nodes)[:5])
                stream.join()  # warm: worker attached
                pool._inject_sleep(60.0)
                stream.submit(list(hierarchy.nodes)[:5])
                give_up = time.monotonic() + 20.0
                with pytest.raises(PoolTimeoutError, match="no progress"):
                    while time.monotonic() < give_up:
                        stream.poll()
                        time.sleep(0.02)

    def test_deadline_validation(self):
        with pytest.raises(PoolError, match="deadline"):
            EvaluationPool(workers=1, deadline=-1.0)

    def test_health_tracks_worker_results(self):
        plan, hierarchy, _ = _config(seed=23)
        with EvaluationPool(workers=2) as pool:
            simulate_all_targets(plan, result_cache=False, pool=pool)
            health = pool.health()
            assert health  # at least one worker reported a result
            assert all(h.alive for h in health)
            assert sum(h.completed for h in health) > 0


class TestInjectedPoolFaults:
    def test_kill_worker_recovers_bit_identical(self, faults_on):
        plan, hierarchy, _ = _config(seed=25)
        reference = simulate_all_targets(
            plan, result_cache=False, pool=False
        )
        fault = FaultPlan([FaultSpec("kill_worker", at="pool.collect", nth=1)])
        with EvaluationPool(workers=1) as pool:
            simulate_all_targets(plan, result_cache=False, pool=pool)  # warm
            pool._inject_sleep(60.0)  # the worker is busy: the kill
            # deterministically lands before it can produce a result
            with fault.armed(pool=pool):
                result = simulate_all_targets(
                    plan, result_cache=False, pool=pool
                )
            assert fault.fired == 1
            assert pool.respawns >= 1
        assert np.array_equal(reference.queries, result.queries)
        assert np.allclose(
            reference.prices[reference.target_ix],
            result.prices[result.target_ix],
        )

    def test_segment_attack_ends_typed_not_hung(self, faults_on):
        """Vanish the plan's segment, then kill the attached worker: the
        respawned worker cannot re-attach, and the failure must surface
        as a typed PoolError within the retry budget — never a hang."""
        plan, hierarchy, _ = _config(seed=26)
        fault = FaultPlan(
            [
                FaultSpec("vanish_segment", at="stream.submit", nth=1),
                FaultSpec("kill_worker", at="stream.poll", nth=1),
            ]
        )
        with EvaluationPool(workers=1) as pool:
            with pool.stream(plan) as stream:
                stream.submit(list(hierarchy.nodes)[:6])
                stream.join()  # warm: worker attached to the segment
                pool._inject_sleep(60.0)  # wedge it so the kill lands first
                with fault.armed(pool=pool):
                    stream.submit(list(hierarchy.nodes)[:6])
                    give_up = time.monotonic() + 30.0
                    with pytest.raises(PoolError):
                        while time.monotonic() < give_up:
                            stream.poll()
                            time.sleep(0.02)
        assert {kind for _, _, kind in fault.trace} == {
            "vanish_segment", "kill_worker",
        }


    def test_crash_mid_restart_leaves_the_pool_usable(self, faults_on):
        """A crash injected while a restart rebuilds the queues must not
        leave the pool holding the closed ones: the next submit on it would
        raise an untyped ``ValueError`` out of ``Server.serve``."""
        plan, hierarchy, _ = _config(n=30, seed=51)
        targets = list(hierarchy.nodes)[:10]
        reference = _reference_outcomes(plan, hierarchy, targets)
        fault = FaultPlan(
            [
                FaultSpec("kill_worker", at="serve.step", nth=1),
                FaultSpec("crash", at="pool.restart.rebuild", nth=1),
            ]
        )
        with EvaluationPool(workers=2) as pool:
            for armed in (fault.armed(pool=pool), contextlib.nullcontext()):
                server = Server(plan, pool=pool, deadline=5.0)
                try:
                    with armed:
                        outcomes = list(
                            server.serve(
                                SessionRequest(t, target=t) for t in targets
                            )
                        )
                finally:
                    server.close()
                for outcome in outcomes:
                    if outcome.ok:
                        assert outcome.result == reference[outcome.session_id]
                    else:
                        assert isinstance(outcome.error, ReproError)
        assert ("pool.restart.rebuild", 1, "crash") in fault.trace
        assert all(outcome.ok for outcome in outcomes)  # the unarmed serve

    def test_queue_rebuild_failure_is_typed_and_leaves_the_pool_usable(
        self, monkeypatch
    ):
        """A restart whose second fresh queue cannot be built (out of file
        descriptors) raises ``PoolError`` chained to the ``OSError`` and
        keeps the old queues; the next walk restarts again and matches."""
        plan, hierarchy, _ = _config(n=120, seed=52)
        reference = simulate_all_targets(
            plan, jobs=1, result_cache=False, pool=False
        )
        with EvaluationPool(workers=2) as pool:
            simulate_all_targets(plan, result_cache=False, pool=pool)
            for proc in pool._procs:
                os.kill(proc.pid, signal.SIGKILL)
                proc.join()
            calls = []
            real_new_queue = pool._new_queue

            def new_queue():
                calls.append(None)
                if len(calls) == 2:
                    raise OSError(errno.EMFILE, "Too many open files")
                return real_new_queue()

            monkeypatch.setattr(pool, "_new_queue", new_queue)
            with pytest.raises(PoolError, match="queues") as info:
                simulate_all_targets(plan, result_cache=False, pool=pool)
            assert isinstance(info.value.__cause__, OSError)
            assert pool.respawns == 0
            for _ in range(2):
                again = simulate_all_targets(plan, result_cache=False, pool=pool)
                assert np.array_equal(again.queries, reference.queries)
                assert np.array_equal(again.prices, reference.prices)
                assert again.decision_nodes == reference.decision_nodes
            assert pool.respawns == 1


class TestServerBreaker:
    def _server_pool(self, seed=31, **kw):
        plan, hierarchy, _ = _config(seed=seed)
        pool = EvaluationPool(workers=1)
        server = Server(plan, pool=pool, **kw)
        return plan, hierarchy, pool, server

    def test_degrade_then_probe_then_restore(self):
        plan, hierarchy, pool, server = self._server_pool(breaker_cooldown=2)
        targets = list(hierarchy.nodes)[:12]
        reference = _reference_outcomes(plan, hierarchy, targets)
        outcomes = {}
        with pool, server:
            group = next(iter(server._groups.values()))
            assert group.breaker is not None
            # Phase 1: healthy streaming.
            for i, t in enumerate(targets[:4]):
                server.submit(SessionRequest(t, target=t))
            outcomes.update(
                {o.session_id: o for o in server.drain(timeout=30.0)}
            )
            # Phase 2: the pool "fails" — degrade trips the breaker.
            group._degrade_to_local()
            assert server.stats.trips == 1
            assert group.stream is None
            assert group.breaker.state == CircuitBreaker.OPEN
            # Phase 3: traffic during cooldown is served locally; after
            # `cooldown` steps the probe reopens the stream, and its
            # success restores streaming.
            pending = list(targets[4:])
            give_up = time.monotonic() + 30.0
            while (
                pending or server.in_flight
            ) and time.monotonic() < give_up:
                if pending:
                    t = pending.pop()
                    server.submit(SessionRequest(t, target=t))
                for o in server.step():
                    outcomes[o.session_id] = o
            assert server.stats.restores == 1
            assert group.stream is not None
            assert group.breaker.state == CircuitBreaker.CLOSED
        assert set(outcomes) == set(targets)
        for t in targets:
            assert outcomes[t].ok, outcomes[t].error
            assert outcomes[t].result == reference[t]

    def test_pool_error_mid_collect_degrades_and_completes(self, monkeypatch):
        """The pool dies mid-tick with a batch half-collected: the group
        degrades, the batch re-runs locally, and every session still
        finishes with the fault-free numbers."""
        plan, hierarchy, pool, server = self._server_pool(
            seed=32, breaker_cooldown=10_000
        )
        targets = list(hierarchy.nodes)[:10]
        reference = _reference_outcomes(plan, hierarchy, targets)
        with pool, server:
            group = next(iter(server._groups.values()))
            for t in targets:
                server.submit(SessionRequest(t, target=t))
            group.dispatch_stream()
            assert group.tickets  # a batch is in flight
            monkeypatch.setattr(
                group.stream,
                "poll",
                lambda *a, **kw: (_ for _ in ()).throw(
                    PoolError("injected mid-tick death")
                ),
            )
            outcomes = {o.session_id: o for o in server.drain(timeout=30.0)}
            assert group.stream is None
            assert server.stats.trips == 1
        assert set(outcomes) == set(targets)
        for t in targets:
            assert outcomes[t].result == reference[t]

    def test_probe_against_closed_pool_keeps_retripping(self):
        plan, hierarchy, pool, server = self._server_pool(
            seed=33, breaker_cooldown=1
        )
        targets = list(hierarchy.nodes)[:6]
        with server:
            with pool:
                group = next(iter(server._groups.values()))
                group._degrade_to_local()
            assert pool.closed
            for t in targets:
                server.submit(SessionRequest(t, target=t))
            outcomes = {o.session_id: o for o in server.drain(timeout=30.0)}
            # Every probe found a dead pool: re-trips, never a restore.
            assert server.stats.trips >= 2
            assert server.stats.restores == 0
            assert group.stream is None
        assert all(o.ok for o in outcomes.values())

    def test_drain_timeout_raises_typed_under_stall(self):
        plan, hierarchy, pool, server = self._server_pool(seed=34)
        with pool, server:
            server.submit(SessionRequest("warm", target=hierarchy.root))
            server.drain(timeout=30.0)
            pool._inject_sleep(60.0)  # the lone worker is now wedged
            for i, t in enumerate(list(hierarchy.nodes)[:4]):
                server.submit(SessionRequest(i, target=t))
            with pytest.raises(ServeTimeoutError) as exc_info:
                server.drain(timeout=0.5)
            message = str(exc_info.value)
            assert "deadline" in message and "outstanding" in message

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
        return simulate_all_targets(
            plan, result_cache=False, pool=False
        )

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
class TestMiniSoak:
    def test_seeded_schedules_terminate_typed_and_bit_identical(
        self, faults_on
    ):
        plan, hierarchy, _ = _config(n=30, seed=51)
        targets = list(hierarchy.nodes)[:10]
        reference = _reference_outcomes(plan, hierarchy, targets)
        with EvaluationPool(workers=2) as pool:
            for seed in range(12):
                fault = FaultPlan.random(
                    seed,
                    rate=0.03,
                    kinds=("crash", "kill_worker", "slow"),
                    max_faults=3,
                )
                server = Server(
                    plan, pool=pool, deadline=5.0, breaker_cooldown=2
                )
                outcomes = {}
                try:
                    with fault.armed(pool=pool):
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
                finally:
                    server.close()
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
                # The typed failure aborted the drain before the feed
                # closed; a clean retry finishes the shutdown.
                await transport.shutdown(timeout=5.0)

        asyncio.run(main())
