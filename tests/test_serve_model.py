"""Model-based test of :class:`repro.serve.Server`'s accounting.

A Hypothesis state machine drives one small server — two plans (a tree
and a DAG), two tenants under ``plan_quota=1``, a tight in-flight cap and
queue — through target and oracle submissions (unknown labels and a
failing oracle included), ``settle`` (the wire's path), ``step``,
``drain``, ``register_plan`` / ``release_plan``, and pulls from a live
``serve()`` feed that may be abandoned.  A reference model of admission,
queue, quota and feed accounting predicts every rejection; after every
rule the machine checks:

* every request is accounted exactly once: returned as an outcome,
  rejected typed, abandoned, queued, or in flight (or settled and still
  waiting in the live feed's buffer);
* ``in_flight`` equals the plan groups' totals;
* every outcome equals ``run_search`` under the server's budget, or is
  the same typed error;
* no session comes back twice.

It assumes nothing about how many steps a session takes: a step may
return any subset of the sessions in flight before it.
"""

from __future__ import annotations

from collections import deque

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.oracle import ExactOracle
from repro.core.session import run_search
from repro.exceptions import (
    AdmissionError,
    BudgetExceededError,
    HierarchyError,
    OracleError,
    QuotaExceededError,
    ReproError,
    ServeError,
)
from repro.plan import compile_policy
from repro.policies import make_policy
from repro.serve import Server, SessionRequest
from repro.testing import make_random_dag, make_random_tree, random_distribution

TREE = make_random_tree(12, seed=1)
DAG = make_random_dag(10, seed=2)
PLANS = {
    "tree": compile_policy(
        make_policy("greedy-tree"), TREE, random_distribution(TREE, 1)
    ),
    "dag": compile_policy(
        make_policy("greedy-dag"), DAG, random_distribution(DAG, 2)
    ),
}
DEFAULT = "tree"
TENANTS = ("default", "acme")
#: Between the plans' shallowest and deepest leaves, so both complete
#: and over-budget sessions occur.
BUDGET = 3
MAX_SESSIONS = 2
QUEUE_LIMIT = 2
QUOTA = 1


class FailingOracle:
    def answer(self, query):
        raise OracleError("the crowd worker went home")


def _reference(plan_name: str, label):
    """``run_search``'s result under the server's budget, or its error type."""
    plan = PLANS[plan_name]
    try:
        return run_search(
            plan, ExactOracle(plan.hierarchy, label), plan.hierarchy,
            max_queries=BUDGET,
        )
    except BudgetExceededError:
        return BudgetExceededError


EXPECTED = {
    (name, label): _reference(name, label)
    for name, plan in PLANS.items()
    for label in plan.hierarchy.nodes
}


class Model:
    """The reference: who is registered, queued, in flight, or finished."""

    def __init__(self) -> None:
        self.held = {tenant: set() for tenant in TENANTS}
        self.held["default"].add(DEFAULT)
        self.in_flight: dict = {}  # sid -> plan name, in admission order
        self.queue: deque = deque()  # sids
        self.buffered: set = set()  # settled, waiting in the feed's buffer
        self.rejected: dict = {}  # sid -> error type, outcome not yet pulled
        self.unpulled: set = set()  # waiting in the live feed's iterator
        self.done: set = set()  # returned, rejected, abandoned or never sent
        self.plan_of: dict = {}
        self.tenant_of: dict = {}
        self.expected: dict = {}  # sid -> SearchResult or error type

    def _resolve(self, tenant, plan_name, known):
        held = self.held[tenant]
        if plan_name not in held:
            if len(held) >= QUOTA:
                return QuotaExceededError
            held.add(plan_name)
        return None if known else HierarchyError

    def admit(self, sid, tenant, plan_name, known, *, feed=False):
        """Predict ``submit``: the error type it raises, or ``None``.

        A feed pulls only below the cap, so its requests never queue.
        """
        self.plan_of[sid] = plan_name
        self.tenant_of[sid] = tenant
        if not feed and len(self.in_flight) >= MAX_SESSIONS:
            if len(self.queue) >= QUEUE_LIMIT:
                return AdmissionError
            error = self._resolve(tenant, plan_name, known)
            if error is None:
                self.queue.append(sid)
            return error
        error = self._resolve(tenant, plan_name, known)
        if error is None:
            self.in_flight[sid] = plan_name
        return error

    def register(self, tenant, plan_name):
        held = self.held[tenant]
        if plan_name not in held and len(held) >= QUOTA:
            return QuotaExceededError
        held.add(plan_name)
        return None

    def release(self, tenant, plan_name):
        if plan_name not in self.held[tenant]:
            return ServeError
        if plan_name in self.in_flight.values():
            return ServeError
        if any(
            (self.plan_of[s], self.tenant_of[s]) == (plan_name, tenant)
            for s in self.queue
        ):
            return ServeError
        self.held[tenant].discard(plan_name)
        return None

    def finish(self, outcome) -> None:
        """One returned outcome: legal, once, and equal to the reference."""
        sid = outcome.session_id
        assert sid not in self.done, f"{sid} came back twice"
        self.done.add(sid)
        if sid in self.rejected:
            assert type(outcome.error) is self.rejected.pop(sid), outcome
            return
        assert sid in self.in_flight or sid in self.buffered, (
            f"{sid} returned while not in flight"
        )
        self.in_flight.pop(sid, None)
        self.buffered.discard(sid)
        expected = self.expected[sid]
        if isinstance(expected, type):
            assert isinstance(outcome.error, expected), (outcome, expected)
        else:
            assert outcome.ok, outcome
            assert outcome.result == expected

    def fill_from_queue(self) -> None:
        while self.queue and len(self.in_flight) < MAX_SESSIONS:
            sid = self.queue.popleft()
            self.in_flight[sid] = self.plan_of[sid]

    def abandon_all(self, started: bool) -> int:
        """A dropped feed reclaims everything in flight and queued; what
        it buffered or never pulled is gone with it.  (A feed never pulled
        never ran: dropping it reclaims nothing.)"""
        reclaimed = [*self.in_flight, *self.queue] if started else []
        self.done.update(reclaimed, self.buffered, self.unpulled)
        self.buffered.clear()
        self.unpulled.clear()
        if started:
            self.in_flight.clear()
            self.queue.clear()
        return len(reclaimed)


request_kinds = st.sampled_from(["target", "unknown", "oracle", "failing"])
plan_names = st.sampled_from(["tree", "dag", None])  # None: the default
picks = st.integers(0, 50)
request_specs = st.tuples(
    request_kinds, st.sampled_from(TENANTS), plan_names, picks
)
#: Half of a feed is the common shape — one tenant's target sessions on
#: the default plan — which the feed admits through its fast path.
feed_specs = st.lists(
    st.one_of(
        st.builds(lambda pick: ("target", "default", None, pick), picks),
        request_specs,
    ),
    max_size=6,
)


class ServerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.server = Server(
            PLANS[DEFAULT],
            max_sessions=MAX_SESSIONS,
            queue_limit=QUEUE_LIMIT,
            plan_quota=QUOTA,
            max_queries=BUDGET,
        )
        self.model = Model()
        self.count = 0
        self.feed = None
        self.feed_started = False

    def teardown(self) -> None:
        if self.feed is not None:
            self.feed.close()
        self.server.close()

    # -- requests -------------------------------------------------------
    def _request(self, kind, tenant, plan_arg, pick):
        self.count += 1
        sid = f"r{self.count}"
        plan_name = plan_arg or DEFAULT
        plan = PLANS[plan_name]
        nodes = plan.hierarchy.nodes
        label = nodes[pick % len(nodes)]
        model = self.model
        model.expected[sid] = EXPECTED[(plan_name, label)]
        kw = {"tenant": tenant, "plan": plan_arg and plan}
        if kind == "target":
            request = SessionRequest(sid, target=label, **kw)
        elif kind == "unknown":
            request = SessionRequest(sid, target="no-such-label", **kw)
        elif kind == "oracle":
            oracle = ExactOracle(plan.hierarchy, label)
            request = SessionRequest(sid, oracle=oracle, **kw)
        else:
            model.expected[sid] = OracleError
            request = SessionRequest(sid, oracle=FailingOracle(), **kw)
        return request, plan_name, kind != "unknown"

    @rule(spec=request_specs)
    def submit(self, spec):
        kind, tenant, plan_arg, pick = spec
        request, plan_name, known = self._request(kind, tenant, plan_arg, pick)
        sid = request.session_id
        predicted = self.model.admit(sid, tenant, plan_name, known)
        try:
            self.server.submit(request)
        except ReproError as exc:
            assert type(exc) is predicted, (exc, predicted)
            self.model.done.add(sid)
        else:
            assert predicted is None, predicted

    @rule(spec=request_specs)
    def settle(self, spec):
        """The wire's path: the same quota and label checks as a
        submission, an oracle session refused typed, and the outcome
        returned at once with nothing left in flight."""
        kind, tenant, plan_arg, pick = spec
        request, plan_name, known = self._request(kind, tenant, plan_arg, pick)
        model = self.model
        model.done.add(request.session_id)
        expected = model._resolve(tenant, plan_name, known)
        if expected is None and kind in ("oracle", "failing"):
            expected = ServeError
        if expected is None:
            expected = model.expected[request.session_id]
        outcome = self.server.settle(request)
        if isinstance(expected, type):
            assert type(outcome.error) is expected, (outcome, expected)
        else:
            assert outcome.result == expected, outcome

    # -- stepping ---------------------------------------------------------
    @rule()
    def step(self):
        for outcome in self.server.step():
            self.model.finish(outcome)
        self.model.fill_from_queue()

    @rule()
    def drain(self):
        model = self.model
        waiting = {*model.in_flight, *model.queue}
        finished = self.server.drain()
        assert len(finished) == len(waiting)
        assert {o.session_id for o in finished} == waiting
        while model.queue:  # drain admits every queued session
            sid = model.queue.popleft()
            model.in_flight[sid] = model.plan_of[sid]
        for outcome in finished:
            model.finish(outcome)

    # -- plans --------------------------------------------------------------
    @rule(tenant=st.sampled_from(TENANTS), plan_name=st.sampled_from(list(PLANS)))
    def register_plan(self, tenant, plan_name):
        predicted = self.model.register(tenant, plan_name)
        try:
            self.server.register_plan(PLANS[plan_name], tenant)
        except ReproError as exc:
            assert type(exc) is predicted, (exc, predicted)
        else:
            assert predicted is None, predicted

    @rule(tenant=st.sampled_from(TENANTS), plan_name=st.sampled_from(list(PLANS)))
    def release_plan(self, tenant, plan_name):
        predicted = self.model.release(tenant, plan_name)
        try:
            self.server.release_plan(PLANS[plan_name], tenant)
        except ReproError as exc:
            assert type(exc) is predicted, (exc, predicted)
        else:
            assert predicted is None, predicted

    # -- a live feed ----------------------------------------------------------
    @precondition(lambda self: self.feed is None)
    @rule(specs=feed_specs)
    def open_feed(self, specs):
        requests = [self._request(*spec) for spec in specs]
        model = self.model
        model.unpulled.update(request.session_id for request, _, _ in requests)

        def pulled():
            # The model predicts each admission as the server pulls it.
            for request, plan_name, known in requests:
                sid = request.session_id
                model.unpulled.discard(sid)
                error = model.admit(
                    sid, request.tenant, plan_name, known, feed=True
                )
                if error is not None:
                    model.rejected[sid] = error
                yield request

        self.feed = self.server.serve(pulled())
        self.feed_started = False

    @precondition(lambda self: self.feed is not None)
    @rule()
    def pull(self):
        self.feed_started = True
        try:
            outcome = next(self.feed)
        except StopIteration:
            self.feed = None
            return
        model = self.model
        model.finish(outcome)
        # Queued sessions the pull's step admitted: a FIFO prefix.
        for _ in range(len(model.queue) - self.server.queued):
            sid = model.queue.popleft()
            model.in_flight[sid] = model.plan_of[sid]
        if self.server.queued:
            assert self.server.in_flight == MAX_SESSIONS
        # Sessions the server settled but the feed has not yielded yet.
        tracked = self._tracked()
        for sid in [s for s in model.in_flight if s not in tracked]:
            del model.in_flight[sid]
            model.buffered.add(sid)

    @precondition(lambda self: self.feed is not None)
    @rule()
    def abandon_feed(self):
        before = self.server.stats.abandoned
        self.feed.close()
        self.feed = None
        assert not self.model.rejected, "a pulled rejection was dropped"
        reclaimed = self.model.abandon_all(self.feed_started)
        assert self.server.stats.abandoned - before == reclaimed

    # -- invariants ------------------------------------------------------------
    def _tracked(self) -> set:
        return {
            request.session_id
            for group in self.server._groups.values()
            for request, _ in (*group.incoming, *group.scalar)
        }

    @invariant()
    def accounting(self):
        server, model = self.server, self.model
        groups = sum(g.in_flight for g in server._groups.values())
        assert server.in_flight == groups
        assert self._tracked() == set(model.in_flight)
        assert server.in_flight == len(model.in_flight)
        assert [r.session_id for r in server._queue] == list(model.queue)
        states = [
            set(model.in_flight), set(model.queue), model.buffered,
            set(model.rejected), model.unpulled, model.done,
        ]
        # Every request is in exactly one state.
        assert sum(map(len, states)) == self.count
        assert len(set().union(*states)) == self.count
        if self.feed is None:
            assert not (model.buffered or model.rejected or model.unpulled)


ServerMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServerModel = ServerMachine.TestCase
