"""Tests for the unified session runtime and the streaming serving layer.

Three contracts:

1. **Runtime parity** — :class:`repro.serve.SessionRuntime` (and therefore
   the ``run_search`` / online / console adapters now built on it) produces
   byte-identical transcripts, counts, and prices to the pre-refactor
   inline loops, whose exact code is preserved here as references — for
   every registry policy, on trees and DAGs (hypothesis-driven seeds).

2. **Server semantics** — micro-batched serving is byte-identical to
   sequential ``run_search`` per session; admission control and per-tenant
   plan quotas reject with the documented exception types; oracle-driven
   and target-driven sessions mix.

3. **Streaming pool mode** — :meth:`EvaluationPool.stream` batches match
   ``simulate_all_targets`` on the same subsets, streams keep their plan
   resident, and the server's pool offload serves identical results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.costs import TableCost, UnitCost, random_costs
from repro.core.oracle import ExactOracle
from repro.core.session import SearchResult, run_search, start_session
from repro.engine import EvaluationPool, simulate_all_targets
from repro.exceptions import (
    AdmissionError,
    BudgetExceededError,
    PolicyError,
    PoolError,
    QuotaExceededError,
    SearchError,
    ServeError,
)
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy, available_policies, make_policy
from repro.serve import Server, SessionRequest, SessionRuntime
from repro.testing import (
    make_random_dag,
    make_random_tree,
    random_distribution,
)

TREE_ONLY = {"greedy-tree"}

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Reference implementations: the pre-refactor loops, verbatim
# ----------------------------------------------------------------------
def _legacy_run_search(
    policy,
    oracle,
    hierarchy=None,
    distribution=None,
    cost_model=None,
    *,
    max_queries=None,
    reset=True,
):
    """The inline Algorithm-1 loop ``run_search`` had before ``repro.serve``."""
    model = cost_model or UnitCost()
    executor, hierarchy = start_session(
        policy, hierarchy, distribution, model, reset=reset
    )
    budget = max_queries if max_queries is not None else 2 * hierarchy.n + 10
    transcript = []
    total_price = 0.0
    while not executor.done():
        if len(transcript) >= budget:
            raise BudgetExceededError("legacy budget")
        query = executor.propose()
        answer = bool(oracle.answer(query))
        total_price += model.cost(query)
        transcript.append((query, answer))
        executor.observe(answer)
    return SearchResult(
        returned=executor.result(),
        num_queries=len(transcript),
        total_price=total_price,
        transcript=tuple(transcript),
    )


def _legacy_online_costs(policy, hierarchy, stream, *, refresh_every=1):
    """The per-object serving loop the online simulator had (costs only)."""
    from repro.online.learner import EmpiricalLearner
    from repro.plan import LazyPlan

    learner = EmpiricalLearner(hierarchy, smoothing=1.0)
    plan = None
    costs = []
    try:
        for position, category in enumerate(stream):
            if plan is None or position % refresh_every == 0:
                plan = LazyPlan(policy, hierarchy, learner.snapshot())
            result = _legacy_run_search(
                plan, ExactOracle(hierarchy, category), hierarchy
            )
            learner.observe(category)
            costs.append(result.num_queries)
    finally:
        if policy.supports_undo:
            policy.enable_undo(False)
    return costs


def _hierarchy(kind, n, seed):
    if kind == "tree":
        return make_random_tree(n, seed=seed)
    return make_random_dag(n, seed=seed)


# ----------------------------------------------------------------------
# 1. Runtime parity with the pre-refactor loops
# ----------------------------------------------------------------------
class TestRuntimeParity:
    @settings(**_SETTINGS)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(8, 40),
        kind=st.sampled_from(["tree", "dag"]),
    )
    def test_every_policy_matches_legacy_loop(self, seed, n, kind):
        hierarchy = _hierarchy(kind, n, seed)
        distribution = random_distribution(hierarchy, seed)
        rng = np.random.default_rng(seed)
        targets = [
            hierarchy.nodes[int(i)]
            for i in rng.integers(0, hierarchy.n, size=5)
        ]
        for name in available_policies():
            if kind == "dag" and name in TREE_ONLY:
                continue
            for target in targets:
                oracle = ExactOracle(hierarchy, target)
                legacy = _legacy_run_search(
                    make_policy(name), oracle, hierarchy, distribution
                )
                current = run_search(
                    make_policy(name), oracle, hierarchy, distribution
                )
                runtime = SessionRuntime(
                    make_policy(name), hierarchy, distribution
                ).run(oracle)
                assert current == legacy, (name, target)
                assert runtime == legacy, (name, target)

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_plan_cursor_sessions_match_legacy(self, seed):
        hierarchy = make_random_tree(30, seed=seed)
        distribution = random_distribution(hierarchy, seed)
        costs = random_costs(hierarchy, np.random.default_rng(seed))
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution, costs)
        for target in list(hierarchy.nodes)[::5]:
            oracle = ExactOracle(hierarchy, target)
            assert run_search(plan, oracle, hierarchy, cost_model=costs) == (
                _legacy_run_search(plan, oracle, hierarchy, cost_model=costs)
            )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(0, 10_000),
        refresh=st.sampled_from([1, 3]),
    )
    def test_online_path_matches_legacy(self, seed, refresh):
        from repro.online import simulate_online_labeling
        from repro.taxonomy import Catalog

        hierarchy = make_random_tree(25, seed=seed)
        rng = np.random.default_rng(seed)
        nodes = list(hierarchy.nodes)
        catalog = Catalog(hierarchy, {nodes[i]: 3 for i in range(0, 20, 2)})
        stream = catalog.stream(rng)
        legacy = _legacy_online_costs(
            GreedyTreePolicy(), hierarchy, stream, refresh_every=refresh
        )
        result = simulate_online_labeling(
            GreedyTreePolicy(),
            hierarchy,
            stream,
            block_size=len(stream),
            refresh_every=refresh,
        )
        assert result.block_costs[0] * len(stream) == pytest.approx(
            sum(legacy)
        )
        assert result.total_objects == len(legacy)


class TestRuntimeProtocol:
    def test_stepwise_driving_and_undo_refund(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        model = TableCost({}, default=2.0)
        session = SessionRuntime(plan, cost_model=model)
        first = session.propose()
        session.observe(True)
        assert session.num_queries == 1
        assert session.total_price == 2.0
        session.undo()
        assert session.num_queries == 0
        assert session.total_price == 0.0
        assert session.propose() == first  # back at the first question

    def test_undo_with_nothing_observed(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        with pytest.raises(PolicyError, match="no answers"):
            SessionRuntime(plan).undo()

    def test_budget_raises_from_propose(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        session = SessionRuntime(plan, max_queries=1)
        session.observe(True)  # answer the pending first question
        if not session.done():
            with pytest.raises(BudgetExceededError, match="budget"):
                session.propose()

    def test_result_before_done_raises(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        with pytest.raises(PolicyError):
            SessionRuntime(plan).result()


# ----------------------------------------------------------------------
# 2. Server semantics
# ----------------------------------------------------------------------
def _served(server, feed):
    return {o.session_id: o for o in server.serve(feed)}


class TestServerParity:
    @pytest.mark.parametrize("name", available_policies())
    def test_every_policy_tree(self, name):
        hierarchy = make_random_tree(40, seed=3)
        distribution = random_distribution(hierarchy, 3)
        plan = compile_policy(make_policy(name), hierarchy, distribution)
        self._assert_parity(plan, hierarchy)

    @pytest.mark.parametrize(
        "name", [n for n in available_policies() if n not in TREE_ONLY]
    )
    def test_every_policy_dag(self, name):
        hierarchy = make_random_dag(32, seed=4)
        distribution = random_distribution(hierarchy, 4)
        plan = compile_policy(make_policy(name), hierarchy, distribution)
        self._assert_parity(plan, hierarchy)

    @staticmethod
    def _assert_parity(plan, hierarchy, **server_kwargs):
        rng = np.random.default_rng(0)
        targets = [
            hierarchy.nodes[int(i)]
            for i in rng.integers(0, hierarchy.n, size=64)
        ]
        with Server(plan, max_sessions=16, **server_kwargs) as server:
            outcomes = _served(
                server,
                (SessionRequest(i, target=t) for i, t in enumerate(targets)),
            )
        assert len(outcomes) == len(targets)
        for i, target in enumerate(targets):
            reference = run_search(plan, ExactOracle(hierarchy, target), hierarchy)
            assert outcomes[i].ok
            assert outcomes[i].result == reference, (i, target)

    def test_heterogeneous_prices(self):
        hierarchy = make_random_tree(30, seed=7)
        distribution = random_distribution(hierarchy, 7)
        costs = random_costs(hierarchy, np.random.default_rng(7))
        plan = compile_policy(
            GreedyTreePolicy(), hierarchy, distribution, costs
        )
        rng = np.random.default_rng(1)
        targets = [
            hierarchy.nodes[int(i)] for i in rng.integers(0, hierarchy.n, 40)
        ]
        with Server(plan, cost_model=costs) as server:
            outcomes = _served(
                server,
                (SessionRequest(i, target=t) for i, t in enumerate(targets)),
            )
        for i, target in enumerate(targets):
            reference = run_search(
                plan, ExactOracle(hierarchy, target), hierarchy,
                cost_model=costs,
            )
            assert outcomes[i].result == reference

    def test_oracle_driven_sessions(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        with Server(plan) as server:
            outcomes = _served(
                server,
                [
                    SessionRequest(
                        "o1", oracle=ExactOracle(vehicle_hierarchy, "Sentra")
                    ),
                    SessionRequest("t1", target="Maxima"),
                ],
            )
        assert outcomes["o1"].result.returned == "Sentra"
        assert outcomes["t1"].result.returned == "Maxima"
        reference = run_search(
            plan, ExactOracle(vehicle_hierarchy, "Sentra"), vehicle_hierarchy
        )
        assert outcomes["o1"].result == reference

    def test_transcripts_off(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        with Server(plan, record_transcripts=False) as server:
            outcomes = _served(
                server, [SessionRequest(0, target="Honda")]
            )
        result = outcomes[0].result
        assert result.transcript == ()
        assert result.returned == "Honda"
        assert result.num_queries == run_search(
            plan, ExactOracle(vehicle_hierarchy, "Honda"), vehicle_hierarchy
        ).num_queries

    def test_failing_oracle_is_an_outcome_not_a_crash(self, vehicle_hierarchy):
        """A session whose answer source dies mid-search becomes an error
        outcome; the server (and its other sessions) keep going."""

        class ExplodingOracle:
            def answer(self, query):
                raise SearchError("crowd worker went home")

        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        with Server(plan) as server:
            outcomes = _served(
                server,
                [
                    SessionRequest("bad", oracle=ExplodingOracle()),
                    SessionRequest("good", target="Maxima"),
                ],
            )
        assert isinstance(outcomes["bad"].error, SearchError)
        assert outcomes["good"].ok
        assert outcomes["good"].result.returned == "Maxima"

    def test_budget_outcome(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        with Server(plan, max_queries=1) as server:
            outcomes = _served(
                server,
                [SessionRequest(i, target="Sentra") for i in range(3)],
            )
        for outcome in outcomes.values():
            assert isinstance(outcome.error, BudgetExceededError)


class TestAdmissionControl:
    def _plan(self, n=60, seed=5):
        hierarchy = make_random_tree(n, seed=seed)
        return compile_policy(
            GreedyTreePolicy(), hierarchy, random_distribution(hierarchy, seed)
        ), hierarchy

    def test_in_flight_cap_respected(self):
        plan, hierarchy = self._plan()
        feed = [
            SessionRequest(i, target=hierarchy.nodes[i % hierarchy.n])
            for i in range(50)
        ]
        with Server(plan, max_sessions=7) as server:
            outcomes = _served(server, iter(feed))
        assert len(outcomes) == 50
        assert server.stats.peak_in_flight <= 7

    def test_submit_rejects_when_full(self):
        plan, hierarchy = self._plan()
        with Server(plan, max_sessions=2, queue_limit=3) as server:
            for i in range(5):  # 2 in flight + 3 queued
                server.submit(SessionRequest(i, target=hierarchy.root))
            assert server.in_flight == 2
            assert server.queued == 3
            with pytest.raises(AdmissionError, match="capacity"):
                server.submit(SessionRequest(99, target=hierarchy.root))
            assert server.stats.rejected == 1
            # The admitted sessions still finish.
            outcomes = server.drain()
            assert len(outcomes) == 5

    def test_queue_overflow_is_admission_not_quota(self):
        plan, hierarchy = self._plan()
        with Server(plan, max_sessions=1, queue_limit=0) as server:
            server.submit(SessionRequest(0, target=hierarchy.root))
            with pytest.raises(AdmissionError) as excinfo:
                server.submit(SessionRequest(1, target=hierarchy.root))
            assert not isinstance(excinfo.value, QuotaExceededError)

    def test_closed_server_raises(self):
        plan, hierarchy = self._plan()
        server = Server(plan)
        server.close()
        with pytest.raises(ServeError, match="closed"):
            server.submit(SessionRequest(0, target=hierarchy.root))
        with pytest.raises(ServeError, match="closed"):
            list(server.serve([]))

    def test_bad_request_is_rejected_not_fatal(self):
        """One malformed request (unknown target) must become a rejected
        outcome; the admitted sessions still finish."""
        plan, hierarchy = self._plan()
        feed = [
            SessionRequest(0, target=hierarchy.root),
            SessionRequest(1, target="no-such-category"),
            SessionRequest(2, target=hierarchy.nodes[3]),
            SessionRequest(3),  # neither target nor oracle
        ]
        with Server(plan) as server:
            outcomes = _served(server, iter(feed))
        assert len(outcomes) == 4
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok  # unknown label
        assert isinstance(outcomes[3].error, ServeError)
        assert server.stats.errored == 2

    def test_request_must_pick_target_or_oracle(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        with Server(plan) as server:
            with pytest.raises(ServeError, match="exactly one"):
                server.submit(SessionRequest(0))
            with pytest.raises(ServeError, match="exactly one"):
                server.submit(
                    SessionRequest(
                        1,
                        target="Car",
                        oracle=ExactOracle(vehicle_hierarchy, "Car"),
                    )
                )


class TestTenantQuotas:
    def _plans(self):
        h1 = make_random_tree(20, seed=1)
        h2 = make_random_tree(22, seed=2)
        return (
            compile_policy(GreedyTreePolicy(), h1, random_distribution(h1, 1)),
            compile_policy(GreedyTreePolicy(), h2, random_distribution(h2, 2)),
            h1,
            h2,
        )

    def test_quota_limits_distinct_plans_per_tenant(self):
        plan1, plan2, h1, h2 = self._plans()
        with Server(plan_quota=1) as server:
            server.register_plan(plan1, tenant="acme")
            server.register_plan(plan1, tenant="acme")  # idempotent
            with pytest.raises(QuotaExceededError, match="acme"):
                server.register_plan(plan2, tenant="acme")
            # Another tenant has its own budget.
            server.register_plan(plan2, tenant="globex")

    def test_quota_rejection_is_an_outcome_in_serve(self):
        plan1, plan2, h1, h2 = self._plans()
        feed = [
            SessionRequest(0, target=h1.root, plan=plan1, tenant="acme"),
            SessionRequest(1, target=h2.root, plan=plan2, tenant="acme"),
        ]
        with Server(plan_quota=1) as server:
            outcomes = _served(server, iter(feed))
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, QuotaExceededError)
        assert server.stats.rejected == 1

    def test_release_frees_quota(self):
        plan1, plan2, h1, h2 = self._plans()
        with Server(plan_quota=1) as server:
            server.register_plan(plan1, tenant="acme")
            server.release_plan(plan1, tenant="acme")
            server.register_plan(plan2, tenant="acme")  # fits again

    def test_release_refuses_while_sessions_in_flight(self):
        plan1, _, h1, _ = self._plans()
        with Server(plan1, max_sessions=4) as server:
            server.submit(SessionRequest(0, target=h1.root))
            with pytest.raises(ServeError, match="in flight"):
                server.release_plan(plan1)
            server.drain()
            server.release_plan(plan1)

    def test_pool_backed_quota_pins_segments(self):
        plan1, plan2, h1, h2 = self._plans()
        with EvaluationPool(workers=1) as pool:
            with Server(pool=pool, plan_quota=2) as server:
                server.register_plan(plan1, tenant="acme")
                assert plan1.config_key in pool.published_keys
                # Pinned: publishing more plans cannot evict it.
                server.register_plan(plan2, tenant="acme")
                assert plan1.config_key in pool.published_keys
                server.release_plan(plan1, tenant="acme")
            # Server close released the remaining pins; pool can evict.
            assert not pool.closed


class TestServerAsync:
    def test_aserve_matches_serve(self, vehicle_hierarchy):
        import asyncio

        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        targets = ["Sentra", "Car", "Maxima", "Honda", "Vehicle"]

        async def feed():
            for i, t in enumerate(targets):
                yield SessionRequest(i, target=t)

        async def main():
            out = {}
            with Server(plan, max_sessions=2) as server:
                async for outcome in server.aserve(feed()):
                    out[outcome.session_id] = outcome
            return out

        outcomes = asyncio.run(main())
        assert len(outcomes) == len(targets)
        for i, target in enumerate(targets):
            reference = run_search(
                plan, ExactOracle(vehicle_hierarchy, target), vehicle_hierarchy
            )
            assert outcomes[i].result == reference


# ----------------------------------------------------------------------
# 3. Streaming pool mode
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pool():
    with EvaluationPool(workers=2, max_plans=4) as pool:
        yield pool


class TestPlanStream:
    def _config(self, n=50, seed=9):
        hierarchy = make_random_tree(n, seed=seed)
        distribution = random_distribution(hierarchy, seed)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        return plan, hierarchy, distribution

    def test_batches_match_simulate_all_targets(self, pool):
        plan, hierarchy, distribution = self._config()
        rng = np.random.default_rng(0)
        batches = [
            [hierarchy.nodes[int(i)] for i in rng.integers(0, hierarchy.n, 8)]
            for _ in range(4)
        ]
        with pool.stream(plan) as stream:
            tickets = [stream.submit(batch) for batch in batches]
            done = {b.ticket: b for b in stream.join()}
        assert set(done) == set(tickets)
        for ticket, batch in zip(tickets, batches):
            reference = simulate_all_targets(
                plan, hierarchy, targets=batch, pool=False, result_cache=False
            )
            got = done[ticket]
            assert np.array_equal(got.target_ix, reference.target_ix)
            assert np.array_equal(
                got.queries, reference.queries[reference.target_ix]
            )
            assert np.allclose(
                got.prices, reference.prices[reference.target_ix]
            )

    def test_submit_accepts_index_arrays(self, pool):
        plan, hierarchy, _ = self._config()
        with pool.stream(plan) as stream:
            stream.submit(np.array([0, 3, 5], dtype=np.int64))
            (batch,) = stream.join()
        assert list(batch.target_ix) == [0, 3, 5]

    def test_stream_keeps_plan_resident(self, pool):
        plan, hierarchy, _ = self._config()
        with pool.stream(plan) as stream:
            assert plan.config_key in pool.published_keys
            stream.submit([hierarchy.root])
            stream.join()
            assert plan.config_key in pool.published_keys

    def test_poll_never_blocks_and_join_drains(self, pool):
        plan, hierarchy, _ = self._config()
        with pool.stream(plan) as stream:
            assert stream.poll() == []  # nothing submitted: empty, instant
            stream.submit([hierarchy.root])
            results = stream.join()
            assert len(results) == 1
            assert stream.pending == 0

    def test_closed_stream_rejects_submission(self, pool):
        plan, hierarchy, _ = self._config()
        stream = pool.stream(plan)
        stream.close()
        with pytest.raises(PoolError, match="closed"):
            stream.submit([hierarchy.root])
        stream.close()  # idempotent

    def test_stream_composes_with_run_batch(self, pool):
        """A synchronous walk between stream submissions must not eat the
        stream's results (routing by task id)."""
        plan, hierarchy, distribution = self._config(n=40, seed=11)
        with pool.stream(plan) as stream:
            ticket = stream.submit(list(hierarchy.nodes)[:10])
            # A full walk on the same pool while the batch is in flight.
            engine = simulate_all_targets(
                plan, hierarchy, pool=pool, result_cache=False
            )
            assert engine.num_targets == hierarchy.n
            done = stream.join()
        assert [b.ticket for b in done] == [ticket]

    def test_empty_batch_rejected(self, pool):
        plan, hierarchy, _ = self._config()
        with pool.stream(plan) as stream:
            with pytest.raises(PoolError, match="at least one"):
                stream.submit([])

    def test_worker_death_mid_stream_recovers(self):
        """SIGKILL while a batch is in flight: join restarts the pool,
        resubmits the outstanding batches, and the numbers still match."""
        import os
        import signal
        import time

        plan, hierarchy, _ = self._config(n=45, seed=15)
        targets = list(hierarchy.nodes)[:12]
        reference = simulate_all_targets(
            plan, hierarchy, targets=targets, pool=False, result_cache=False
        )
        with EvaluationPool(workers=1) as mortal:
            with mortal.stream(plan) as stream:
                stream.submit(targets)
                stream.join()  # warm: worker attached, first batch done
                mortal._inject_sleep(60.0)  # the lone worker is now busy
                ticket = stream.submit(targets)
                time.sleep(0.3)
                os.kill(mortal._procs[0].pid, signal.SIGKILL)
                (batch,) = stream.join()
                assert batch.ticket == ticket
                assert mortal.respawns >= 1
        assert np.array_equal(
            batch.queries, reference.queries[reference.target_ix]
        )

    def test_failed_batch_surfaces_as_typed_outcomes(self, pool):
        """A worker-side session failure (budget) must become per-session
        error outcomes, not an exception out of the serve generator — the
        same contract the local stepping path honors."""
        plan, hierarchy, _ = self._config(n=50, seed=19)
        deep = [t for t in hierarchy.nodes if hierarchy.depth(t) >= 2][:6]
        with Server(plan, pool=pool, max_queries=1) as server:
            outcomes = _served(
                server,
                (SessionRequest(i, target=t) for i, t in enumerate(deep)),
            )
        assert len(outcomes) == len(deep)
        for outcome in outcomes.values():
            assert isinstance(outcome.error, BudgetExceededError)
        # The server survives: a good feed still serves afterwards.
        with Server(plan, pool=pool) as server:
            good = _served(server, [SessionRequest("ok", target=deep[0])])
        assert good["ok"].ok

    def test_failed_batch_blames_only_the_offender(self, pool):
        """One over-budget session inside a pool batch must not fail its
        co-batched sessions: the batch falls back to local stepping, which
        errors exactly the offenders and completes the rest — matching a
        server without a pool session for session."""
        plan, hierarchy, _ = self._config(n=60, seed=23)
        depths = plan.leaf_depths()
        budget = (min(depths.values()) + max(depths.values()) + 1) // 2
        reference = {}
        for t in hierarchy.nodes:
            try:
                reference[t] = run_search(
                    plan, ExactOracle(hierarchy, t), hierarchy,
                    max_queries=budget,
                )
            except BudgetExceededError:
                reference[t] = None
        cheap = [t for t, r in reference.items() if r is not None][:8]
        costly = [t for t, r in reference.items() if r is None][:2]
        assert cheap and costly, (depths, budget)
        feed = [
            SessionRequest(t, target=t) for t in cheap + costly
        ]
        with Server(plan, pool=pool, max_queries=budget) as server:
            outcomes = _served(server, iter(feed))
        for t in cheap:
            assert outcomes[t].ok, t
            assert outcomes[t].result == reference[t]
        for t in costly:
            assert isinstance(outcomes[t].error, BudgetExceededError)

    def test_stream_poll_reports_errors_without_raising(self, pool):
        plan, hierarchy, _ = self._config(n=50, seed=20)
        deep = [t for t in hierarchy.nodes if hierarchy.depth(t) >= 2][:4]
        with pool.stream(plan, max_queries=1) as stream:
            stream.submit(deep)
            (batch,) = stream.join(raise_errors=False)
        assert not batch.ok
        assert isinstance(batch.error, BudgetExceededError)
        # ...and the default contract still raises.
        with pool.stream(plan, max_queries=1) as stream:
            stream.submit(deep)
            with pytest.raises(BudgetExceededError):
                stream.join()

    def test_server_pool_offload_parity(self, pool):
        plan, hierarchy, distribution = self._config(n=60, seed=13)
        rng = np.random.default_rng(3)
        targets = [
            hierarchy.nodes[int(i)] for i in rng.integers(0, hierarchy.n, 48)
        ]
        with Server(plan, pool=pool, max_sessions=16) as server:
            outcomes = _served(
                server,
                (SessionRequest(i, target=t) for i, t in enumerate(targets)),
            )
        assert server.stats.offloaded == len(targets)
        for i, target in enumerate(targets):
            reference = run_search(
                plan, ExactOracle(hierarchy, target), hierarchy
            )
            assert outcomes[i].result == reference, (i, target)


# ----------------------------------------------------------------------
# The batched exact-oracle kernels (engine.vector.make_answerer)
# ----------------------------------------------------------------------
class TestMakeAnswerer:
    @pytest.mark.parametrize("kind", ["matrix", "csr"])
    def test_kernels_agree_on_dag(self, kind):
        from repro.engine.vector import make_answerer

        hierarchy = make_random_dag(30, seed=17)
        rng = np.random.default_rng(17)
        queries = rng.integers(0, hierarchy.n, size=200).astype(np.int64)
        targets = rng.integers(0, hierarchy.n, size=200).astype(np.int64)
        reference = np.array(
            [
                hierarchy.reaches(hierarchy.label(int(q)), hierarchy.label(int(z)))
                for q, z in zip(queries, targets)
            ]
        )
        answerer = make_answerer(hierarchy, len(queries), kind=kind)
        assert answerer.kind == kind
        assert np.array_equal(answerer(queries, targets), reference)

    def test_tree_kernel_agrees(self):
        from repro.engine.vector import make_answerer

        hierarchy = make_random_tree(40, seed=18)
        rng = np.random.default_rng(18)
        queries = rng.integers(0, hierarchy.n, size=150).astype(np.int64)
        targets = rng.integers(0, hierarchy.n, size=150).astype(np.int64)
        answerer = make_answerer(hierarchy, len(queries))
        assert answerer.kind == "tree"
        reference = np.array(
            [
                hierarchy.reaches(hierarchy.label(int(q)), hierarchy.label(int(z)))
                for q, z in zip(queries, targets)
            ]
        )
        assert np.array_equal(answerer(queries, targets), reference)

    def test_unknown_kind_rejected(self, vehicle_hierarchy):
        from repro.engine.vector import make_answerer
        from repro.exceptions import HierarchyError

        with pytest.raises(HierarchyError, match="unknown splitter kind"):
            make_answerer(vehicle_hierarchy, 5, kind="nope")


# ----------------------------------------------------------------------
# Session-level metrics (evaluation/comparison)
# ----------------------------------------------------------------------
class TestSessionMetrics:
    def test_metrics_match_engine_arrays(self):
        from repro.evaluation import metrics_from_engine, session_metrics

        hierarchy = make_random_tree(60, seed=21)
        distribution = random_distribution(hierarchy, 21)
        engine = simulate_all_targets(
            GreedyTreePolicy(), hierarchy, distribution
        )
        metrics = metrics_from_engine(engine)
        counts = engine.queries[engine.target_ix]
        assert metrics.num_sessions == hierarchy.n
        assert metrics.worst_queries == counts.max()
        assert metrics.mean_queries == pytest.approx(counts.mean())
        assert (
            metrics.p50_queries
            <= metrics.p90_queries
            <= metrics.p99_queries
            <= metrics.worst_queries
        )
        (batch,) = session_metrics(
            [GreedyTreePolicy()], hierarchy, distribution
        )
        assert batch == metrics
        row = metrics.as_row()
        assert row["Policy"] == "GreedyTree"
        assert row["max"] == metrics.worst_queries
