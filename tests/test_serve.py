"""Tests for the unified session runtime and the session server.

Two contracts:

1. **Runtime parity** — :class:`repro.serve.SessionRuntime` (and therefore
   the ``run_search`` / online / console adapters now built on it) produces
   byte-identical transcripts, counts, and prices to the pre-refactor
   inline loops, whose exact code is preserved here as references — for
   every registry policy, on trees and DAGs (hypothesis-driven seeds).

2. **Server semantics** — serving is byte-identical to sequential
   ``run_search`` per session, budget errors included at every leaf
   depth; admission control and per-tenant plan quotas reject with the
   documented exception types; oracle-driven and target-driven sessions
   mix; releasing a plan mid-feed re-registers it instead of stranding
   the feed; a submission landing mid-drain is served exactly once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.costs import TableCost, UnitCost, random_costs
from repro.core.oracle import ExactOracle
from repro.core.session import SearchResult, run_search, start_session
from repro.engine import simulate_all_targets
from repro.exceptions import (
    AdmissionError,
    BudgetExceededError,
    HierarchyError,
    PolicyError,
    QuotaExceededError,
    SearchError,
    ServeError,
)
from repro.plan import CompiledPlan, compile_policy
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
        feed = [SessionRequest(i, target=t) for i, t in enumerate(targets)]
        feed += [  # oracle sessions pay the server's prices too
            SessionRequest(("oracle", i), oracle=ExactOracle(hierarchy, t))
            for i, t in enumerate(targets[:8])
        ]
        with Server(plan, cost_model=costs) as server:
            outcomes = _served(server, feed)
        for i, target in enumerate(targets):
            reference = run_search(
                plan, ExactOracle(hierarchy, target), hierarchy,
                cost_model=costs,
            )
            assert outcomes[i].result == reference
            if i < 8:
                assert outcomes[("oracle", i)].result == reference

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

    def test_budget_boundary_at_every_leaf_depth(self):
        """For every budget ``b`` among the plan's leaf depths, a leaf at
        depth ``<= b`` completes exactly like ``run_search(max_queries=b)``
        and a deeper one errors typed, with the budget in the message —
        the budget splitting each feed between completions and errors."""
        hierarchy = make_random_tree(60, seed=23)
        distribution = random_distribution(hierarchy, 23)
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        depths = plan.leaf_depths()
        budgets = sorted(set(depths.values()))
        assert len(budgets) > 2, depths
        for budget in budgets:
            with Server(plan, max_queries=budget, max_sessions=16) as server:
                outcomes = _served(
                    server,
                    (SessionRequest(t, target=t) for t in hierarchy.nodes),
                )
            assert len(outcomes) == hierarchy.n
            for target, depth in depths.items():
                outcome = outcomes[target]
                oracle = ExactOracle(hierarchy, target)
                if depth <= budget:
                    assert outcome.ok, (budget, target)
                    assert outcome.result == run_search(
                        plan, oracle, hierarchy, max_queries=budget
                    )
                    continue
                assert type(outcome.error) is BudgetExceededError
                assert str(outcome.error) == (
                    f"session {target!r} exceeded the query budget of "
                    f"{budget} questions"
                )
                with pytest.raises(BudgetExceededError):
                    run_search(plan, oracle, hierarchy, max_queries=budget)

    def test_target_without_a_leaf_errors_typed(self, vehicle_hierarchy):
        """A plan whose leaves miss a target (here: one root leaf) settles
        that target as a typed error; the target it has stays served."""
        index = vehicle_hierarchy.index
        plan = CompiledPlan(
            vehicle_hierarchy,
            np.array([-1]),
            np.array([-1]),
            np.array([-1]),
            np.array([index("Vehicle")]),
            policy_name="OneLeaf",
            config_key="",
        )
        with Server(plan) as server:
            outcomes = _served(
                server,
                [
                    SessionRequest("miss", target="Car"),
                    SessionRequest("hit", target="Vehicle"),
                ],
            )
        assert type(outcomes["miss"].error) is SearchError
        assert str(outcomes["miss"].error) == (
            "plan of 'OneLeaf' has no leaf for target 'Car'"
        )
        assert outcomes["hit"].result == run_search(
            plan, ExactOracle(vehicle_hierarchy, "Vehicle"), vehicle_hierarchy
        )


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

    def test_unhashable_target_is_an_error_outcome(self):
        """An unhashable target label errors typed like an unknown one, on
        the feed's first request and on its fast path alike; the other
        sessions keep their outcomes."""
        plan, hierarchy = self._plan()
        feed = [
            SessionRequest("a", target=[1]),
            SessionRequest("b", target=hierarchy.nodes[2]),
            SessionRequest("c", target={"x": 1}),
            SessionRequest("d", target=hierarchy.nodes[5]),
        ]
        with Server(plan) as server:
            outcomes = _served(server, iter(feed))
        assert set(outcomes) == {"a", "b", "c", "d"}
        for sid in "ac":
            assert type(outcomes[sid].error) is HierarchyError
            assert "unknown node" in str(outcomes[sid].error)
        for sid, target in (("b", hierarchy.nodes[2]), ("d", hierarchy.nodes[5])):
            assert outcomes[sid].result == run_search(
                plan, ExactOracle(hierarchy, target), hierarchy
            )
        assert server.stats.errored == 2
        assert server.stats.completed == 2

    def test_settle_serves_target_sessions_only(self, vehicle_hierarchy):
        """``settle`` turns an oracle session into a typed error outcome,
        leaves nothing in flight, and refuses a closed server."""
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        server = Server(plan)
        with server:
            oracle = ExactOracle(vehicle_hierarchy, "Car")
            outcome = server.settle(SessionRequest("o", oracle=oracle))
            assert type(outcome.error) is ServeError
            assert "settle() serves target sessions" in str(outcome.error)
            assert server.settle(SessionRequest("t", target="Car")).ok
            assert server.in_flight == 0
            assert (server.stats.errored, server.stats.completed) == (1, 1)
        with pytest.raises(ServeError, match="closed"):
            server.settle(SessionRequest("late", target="Car"))

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

    def test_release_refuses_while_sessions_queued(self):
        """A queued request was admitted against its tenant's registration:
        releasing that registration first would make the step that admits
        the request re-run the quota check and raise, losing the request
        and the step's outcomes."""
        plan1, plan2, h1, h2 = self._plans()
        with Server(plan1, max_sessions=1, plan_quota=1) as server:
            server.submit(SessionRequest("a", target=h1.root))
            server.submit(
                SessionRequest("b", target=h2.root, plan=plan2, tenant="acme")
            )
            assert server.queued == 1
            with pytest.raises(ServeError, match="queued"):
                server.release_plan(plan2, tenant="acme")
            with pytest.raises(QuotaExceededError):
                server.register_plan(plan1, tenant="acme")
            served = [o.session_id for o in server.drain()]
            assert served == ["a", "b"]
            server.release_plan(plan2, tenant="acme")



# ----------------------------------------------------------------------
# Releasing the default plan between two pulls of a feed
# ----------------------------------------------------------------------
def _bounded(run, timeout=30.0):
    """Run ``run()`` on a daemon thread; fail (not hang) past ``timeout``."""
    box = {}

    def target():
        try:
            box["value"] = run()
        except BaseException as exc:  # re-raised in the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"the feed did not finish in {timeout}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestReleaseMidFeed:
    """``release_plan`` of the default plan is legal between two pulls of
    a feed (nothing is in flight).  The next request must register the
    plan again under the quota, not land in the dropped group, where
    nothing would ever step it."""

    TARGETS = ["Sentra", "Maxima", "Honda"]

    def _check(self, server, plan, hierarchy, outcomes):
        assert [o.session_id for o in outcomes] == [0, 1, 2]
        for outcome, target in zip(outcomes, self.TARGETS):
            assert outcome.result == run_search(
                plan, ExactOracle(hierarchy, target), hierarchy
            )
        assert server.in_flight == 0
        assert server.stats.completed == 3
        # Registered again (quota 1 held) by the request after the release.
        with pytest.raises(QuotaExceededError):
            server.register_plan(
                compile_policy(make_policy("topdown"), hierarchy)
            )

    def test_serve(self, vehicle_hierarchy):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        server = Server(plan, plan_quota=1, max_sessions=1)

        def run():
            gen = server.serve(
                SessionRequest(i, target=t) for i, t in enumerate(self.TARGETS)
            )
            first = next(gen)
            server.release_plan(plan)
            return [first, *gen]

        with server:
            outcomes = _bounded(run)
            self._check(server, plan, vehicle_hierarchy, outcomes)


# ----------------------------------------------------------------------
# A submission landing while a drain runs
# ----------------------------------------------------------------------
def _drain_with_late_submission(plan, k, position):
    """Drain two early target sessions while the drain's ``k``-th step
    submits a late one (``position`` of the real step); a second drain
    catches what the first left.  ``None`` when the first drain took
    fewer than ``k`` steps, so the late request never landed in it."""
    nodes = plan.hierarchy.nodes
    server = Server(plan, max_sessions=2)
    for i in (1, 2):
        server.submit(SessionRequest(f"early-{i}", target=nodes[i]))
    pending = [SessionRequest("late", target=nodes[3])]
    step = server.step
    calls = 0

    def step_submitting_late():
        nonlocal calls
        calls += 1
        if calls == k and position == "before":
            server.submit(pending.pop())
        outcomes = step()
        if calls == k and position == "after":
            server.submit(pending.pop())
        return outcomes

    server.step = step_submitting_late
    with server:
        outcomes = server.drain()
        if pending:
            return None
        return outcomes + server.drain()


class TestDrainVsLateAdmission:
    """A submission landing mid-drain is either caught by that drain or
    stays queued or in flight for the next one: never lost, never served
    twice."""

    @pytest.mark.parametrize("position", ["before", "after"])
    def test_every_session_returned_once(self, vehicle_hierarchy, position):
        plan = compile_policy(GreedyTreePolicy(), vehicle_hierarchy)
        k = 1
        while (
            outcomes := _drain_with_late_submission(plan, k, position)
        ) is not None:
            served = sorted(o.session_id for o in outcomes)
            assert served == ["early-1", "early-2", "late"], k
            assert all(o.ok for o in outcomes), k
            k += 1
        assert k > 1  # the first step of the drain always exists


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
