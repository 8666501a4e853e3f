"""Streaming session server: many concurrent searches over shared plans.

The production shape of the paper's protocol: many users are *simultaneously*
inside interactive searches over a handful of shared compiled plans.
:class:`Server` groups sessions by plan and serves two kinds:

* **Target sessions** (``target=``, the labelling-service shape: the answer
  source is reachability of the true category).  Their cost is the depth of
  the target's leaf in the plan's decision tree (Eq. 2), so the whole
  outcome — leaf, question count, price, transcript — is fixed before the
  first question.  :meth:`Server.settle` returns it at once from a per-plan
  leaf table (the network transport calls its core as each ``open`` frame
  is read, and writes the reply from the leaf); a target session admitted
  through :meth:`Server.submit` or :meth:`Server.serve` settles the same
  way on the first :meth:`Server.step` after admission.  Either way the
  outcome is byte-identical to per-session
  :class:`~repro.serve.runtime.SessionRuntime` driving
  (``benchmarks/bench_serve.py`` asserts it, at a >= 5x sessions/sec floor
  over sequential ``run_search``).

* **Oracle sessions** (``oracle=``, an arbitrary answer source) run on a
  per-session :class:`SessionRuntime`, one question per step.

Both finish through the same :class:`~repro.core.session.SearchResult`.

* **Admission control.**  At most ``max_sessions`` sessions are in flight;
  beyond that, :meth:`submit` parks requests in a bounded queue
  (``queue_limit``) and then sheds load with a typed
  :class:`~repro.exceptions.AdmissionError` instead of growing without
  bound.  The iterator feed (:meth:`serve`) applies backpressure instead —
  it simply stops pulling while full.  A session is in flight from its
  admission until the step that returns it; :meth:`settle` leaves nothing
  in flight, so it meets no cap.

* **Per-tenant plan quotas.**  Each tenant may have at most ``plan_quota``
  distinct plans registered concurrently
  (:class:`~repro.exceptions.QuotaExceededError` beyond it), on every path.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import sanitize
from repro.analysis.schedule import schedule_point
from repro.core.costs import QueryCostModel, UnitCost
from repro.core.oracle import Oracle
from repro.core.session import SearchResult, default_budget
from repro.exceptions import (
    AdmissionError,
    BudgetExceededError,
    QuotaExceededError,
    ReproError,
    SanitizerError,
    SearchError,
    ServeError,
    ServeTimeoutError,
)
from repro.plan.plan import ROOT, CompiledPlan
from repro.serve.runtime import SessionRuntime

__all__ = ["Server", "ServerStats", "SessionOutcome", "SessionRequest"]


@dataclass(frozen=True)
class SessionRequest:
    """One session to serve.

    Exactly one of ``target`` (exact-oracle serving — the labelling-service
    shape, where the answer source is reachability of the true category,
    settled from the plan's leaf table) or ``oracle`` (arbitrary answer
    source, stepped per-session) must be given.  ``plan`` defaults to the
    server's default plan.
    """

    session_id: Hashable
    target: Hashable | None = None
    oracle: Oracle | None = None
    plan: CompiledPlan | None = None
    tenant: str = "default"


@dataclass
class SessionOutcome:
    """How one submitted session ended: a result, or a typed error.

    (A plain mutable dataclass: :meth:`Server.settle`, :meth:`Server.step`
    and :meth:`Server.serve` create one per session, where
    frozen-dataclass ``__setattr__`` overhead is measurable.  The wire's
    target sessions create none: the transport writes their replies
    straight from the plan leaf.)
    """

    session_id: Hashable
    tenant: str
    result: SearchResult | None
    error: ReproError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ServerStats:
    """Counters over a server's lifetime."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    errored: int = 0
    steps: int = 0
    peak_in_flight: int = 0
    #: Sessions reclaimed because their feed was abandoned mid-flight
    #: (a ``serve`` consumer dropped the generator).
    abandoned: int = 0
    tenants: set = field(default_factory=set)


# ----------------------------------------------------------------------
# Plan execution index: everything serving needs beyond the raw arrays
# ----------------------------------------------------------------------
class _PlanIndex:
    """Per-plan serving index: leaf table, depths, prices, transcripts.

    A compiled plan stores child links; settling a target session needs
    the leaf that identifies its target (``leaf_of``), that leaf's depth
    and accumulated price, and — for the transcript — the *reverse*
    direction, a walk from the leaf back to the root.  Built once per
    (plan, cost model) and shared by every session the server ever runs on
    that plan.  Prices accumulate root-to-leaf in the same order
    ``SessionRuntime.observe`` adds them, so totals are bit-identical.

    Each plan node keeps, once first used, its transcript entry
    ``(query, answer)`` and that entry's wire encoding; the wire writes a
    transcript by joining encodings found on one walk up the parent links
    (:meth:`encoded_transcript`), so no reply is built or kept per leaf.
    """

    __slots__ = (
        "hierarchy",
        "parent",
        "from_yes",
        "depth",
        "price",
        "query_label",
        "target_label",
        "leaf_of",
        "_transcripts",
        "_entry",
        "_encoded",
    )

    def __init__(self, plan: CompiledPlan, model: QueryCostModel) -> None:
        hierarchy = plan.hierarchy
        self.hierarchy = hierarchy
        num = plan.num_nodes
        yes = plan.yes_child
        no = plan.no_child
        query = plan.query_ix
        target = plan.target_ix
        price_vec = model.as_array(hierarchy)

        # Reverse links: one vectorized scatter per direction (every plan
        # node has at most one parent — plans are trees over answer
        # prefixes).
        parent = np.full(num, -1, dtype=np.int64)
        from_yes = np.zeros(num, dtype=bool)
        internal = np.nonzero(query >= 0)[0]
        yes_children = yes[internal]
        linked = yes_children >= 0
        parent[yes_children[linked]] = internal[linked]
        from_yes[yes_children[linked]] = True
        no_children = no[internal]
        linked = no_children >= 0
        parent[no_children[linked]] = internal[linked]

        # Depth and accumulated price, one vectorized wave per plan level
        # (prices add root-to-leaf in the same order sessions pay them, so
        # totals are bit-identical to sequential accumulation).
        depth = np.zeros(num, dtype=np.int64)
        price = np.zeros(num, dtype=float)
        wave = np.array([ROOT], dtype=np.int64)
        level = 0
        while wave.size:
            asking = wave[query[wave] >= 0]
            if not asking.size:
                break
            children = np.concatenate([yes[asking], no[asking]])
            step_price = price[asking] + price_vec[query[asking]]
            step_price = np.concatenate([step_price, step_price])
            keep = children >= 0
            children = children[keep]
            price[children] = step_price[keep]
            level += 1
            depth[children] = level
            wave = children

        # Leaf table over hierarchy indices: the plan leaf identifying
        # each target, -1 for targets the plan has no leaf for.  An int64
        # array, not a dict: ~8 bytes per node against ~90.
        leaves = np.nonzero(target >= 0)[0]
        leaf_of = np.full(hierarchy.n, -1, dtype=np.int64)
        leaf_of[target[leaves]] = leaves
        self.leaf_of = leaf_of

        label_list = list(hierarchy.nodes)
        self.query_label = [
            label_list[q] if q >= 0 else None for q in query.tolist()
        ]
        self.target_label = [
            label_list[t] if t >= 0 else None for t in target.tolist()
        ]
        # Python lists for the per-session hot path (transcript walks and
        # leaf settlement do scalar lookups; list indexing beats numpy
        # scalar extraction several-fold there).
        self.parent = parent.tolist()
        self.from_yes = from_yes.tolist()
        self.depth = depth.tolist()
        self.price = price.tolist()
        self._transcripts: dict[int, tuple] = {}
        #: Per-node ``(query, answer)`` transcript entry, built on first
        #: use and shared by every transcript crossing the node.
        self._entry: list[tuple | None] = [None] * num
        #: Per-node wire encoding of that entry, made on first use.
        self._encoded: list = [None] * num

    def _walk(self, leaf: int, made: list, make) -> list:
        """``made[node]`` for each node from the root down to ``leaf``.

        One walk up the parent links; a node's missing item is
        ``make((query, answer))`` of its entry, kept in ``made``.
        """
        parent = self.parent
        from_yes = self.from_yes
        qlabel = self.query_label
        path = []
        push = path.append
        node = leaf
        while True:
            up = parent[node]
            if up < 0:
                break
            item = made[node]
            if item is None:
                item = made[node] = make((qlabel[up], from_yes[node]))
            push(item)
            node = up
        path.reverse()
        return path

    def transcript_of(self, leaf: int) -> tuple:
        """The ``(query, answer)`` transcript ending at ``leaf``.

        One walk up the parent links per distinct leaf; the per-node
        entry tuples are built once ever and shared by every transcript
        crossing the node, and finished transcripts memoize per leaf.
        """
        cache = self._transcripts
        transcript = cache.get(leaf)
        if transcript is None:
            transcript = cache[leaf] = tuple(
                self._walk(leaf, self._entry, tuple)
            )
        return transcript

    def encoded_transcript(self, leaf: int, encode) -> list:
        """The transcript ending at ``leaf`` as ``encode(entry)`` items.

        ``encode`` is the wire's one encoding of a ``(query, answer)``
        entry.  Each plan node's item is made on first use and kept, so a
        reply costs one walk up the parent links; nothing is kept per
        leaf.  An entry ``encode`` cannot take raises its error, and the
        node stays unencoded.
        """
        return self._walk(leaf, self._encoded, encode)

    def result_at(self, leaf: int, *, transcript: bool = True) -> SearchResult:
        """The finished :class:`SearchResult` of a session sitting on a leaf."""
        return SearchResult(
            returned=self.target_label[leaf],
            num_queries=self.depth[leaf],
            total_price=self.price[leaf],
            transcript=self.transcript_of(leaf) if transcript else (),
        )


# ----------------------------------------------------------------------
# One plan's live sessions
# ----------------------------------------------------------------------
class _PlanGroup:
    """All in-flight sessions sharing one plan."""

    def __init__(self, plan, index, budget, model) -> None:
        self.plan = plan
        self.index = index
        self.budget = budget
        self.model = model
        self.tenants: set = set()
        #: Target sessions admitted since the last step, in admission
        #: order: ``(request, target index)``.
        self.incoming: list[tuple[SessionRequest, int]] = []
        #: Oracle-driven sessions, one runtime each.
        self.scalar: list[tuple[SessionRequest, SessionRuntime]] = []

    @property
    def in_flight(self) -> int:
        return len(self.incoming) + len(self.scalar)

    def cancel_all(self) -> int:
        """Drop every in-flight session (abandoned feed); returns the count."""
        cancelled = self.in_flight
        self.incoming.clear()
        self.scalar.clear()
        return cancelled

    def admit(self, request: SessionRequest, target_ix: int | None) -> None:
        if target_ix is None:
            # Arbitrary oracle: a per-session runtime, stepped per tick.
            runtime = SessionRuntime(
                self.plan,
                self.index.hierarchy,
                cost_model=self.model,
                max_queries=self.budget,
            )
            self.scalar.append((request, runtime))
        else:
            self.incoming.append((request, target_ix))

    def step(self, record_transcripts: bool) -> list[SessionOutcome]:
        """Settle the fresh target sessions; one question per oracle session."""
        outcomes = self._settle(record_transcripts) if self.incoming else []
        if self.scalar:
            outcomes.extend(self._step_scalar())
        return outcomes

    def _settle(self, record_transcripts: bool) -> list[SessionOutcome]:
        """Outcomes of the fresh target sessions, in admission order."""
        fresh = self.incoming
        self.incoming = []
        leaves = self.index.leaf_of[[target_ix for _, target_ix in fresh]]
        outcome = self.outcome
        return [
            outcome(request, target_ix, leaf, record_transcripts)
            for (request, target_ix), leaf in zip(fresh, leaves.tolist())
        ]

    def outcome(
        self,
        request: SessionRequest,
        target_ix: int,
        leaf: int,
        record_transcripts: bool,
    ) -> SessionOutcome:
        """The outcome of a target session whose target's leaf is ``leaf``."""
        error = self.leaf_error(request.session_id, target_ix, leaf)
        if error is None:
            return SessionOutcome(
                request.session_id,
                request.tenant,
                self.index.result_at(leaf, transcript=record_transcripts),
            )
        return SessionOutcome(request.session_id, request.tenant, None, error)

    def leaf_error(self, session_id, target_ix: int, leaf: int):
        """Why a target session on ``leaf`` fails, or ``None`` if it completes.

        The session completes when the leaf lies within the budget and
        errors otherwise — the case where ``SessionRuntime.propose``
        refuses question ``budget + 1``.  ``leaf < 0`` means the plan has
        no leaf for the target.
        """
        if leaf < 0:
            return SearchError(
                f"plan of {self.plan.policy_name!r} has no leaf for "
                f"target {self.index.hierarchy.label(target_ix)!r}"
            )
        if self.index.depth[leaf] > self.budget:
            return BudgetExceededError(
                f"session {session_id!r} exceeded the query "
                f"budget of {self.budget} questions"
            )
        return None

    def _step_scalar(self) -> list[SessionOutcome]:
        """One question for each oracle-driven session."""
        outcomes: list[SessionOutcome] = []
        still_open: list[tuple[SessionRequest, SessionRuntime]] = []
        for request, runtime in self.scalar:
            try:
                if not runtime.done():
                    query = runtime.propose()
                    runtime.observe(request.oracle.answer(query))
                if runtime.done():
                    outcomes.append(
                        SessionOutcome(
                            request.session_id, request.tenant, runtime.result()
                        )
                    )
                else:
                    still_open.append((request, runtime))
            except ReproError as exc:
                outcomes.append(
                    SessionOutcome(request.session_id, request.tenant, None, exc)
                )
        self.scalar = still_open
        return outcomes


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class Server:
    """Serve a stream of interactive sessions over shared plans.

    Target sessions are settled from the plan's leaf table — at once by
    :meth:`settle`, or on the first :meth:`step` after admission — which
    equals walking the plan whenever its leaves identify their targets.
    ``compile_policy`` checks exactly that by default (``validate=True``),
    and every plan saved from such a compile passes too; serve only such
    plans.

    Parameters
    ----------
    plan:
        Default plan for requests that do not name one.
    max_sessions:
        In-flight session cap (admission control for :meth:`submit` and
        :meth:`serve`).
    queue_limit:
        Waiting-queue bound; :meth:`submit` raises
        :class:`~repro.exceptions.AdmissionError` beyond it.
    plan_quota:
        Max distinct plans registered per tenant at once (``None`` =
        unlimited); :class:`~repro.exceptions.QuotaExceededError` beyond
        it.
    cost_model, max_queries:
        Session pricing and budget, as in ``run_search``.
    record_transcripts:
        Attach full transcripts to results (byte-identical to
        ``run_search``).  Turning this off skips transcript assembly for
        throughput-only serving.
    """

    def __init__(
        self,
        plan: CompiledPlan | None = None,
        *,
        max_sessions: int = 1024,
        queue_limit: int = 4096,
        plan_quota: int | None = None,
        cost_model: QueryCostModel | None = None,
        max_queries: int | None = None,
        record_transcripts: bool = True,
    ) -> None:
        if max_sessions < 1:
            raise ServeError(f"max_sessions must be >= 1, got {max_sessions}")
        if queue_limit < 0:
            raise ServeError(f"queue_limit must be >= 0, got {queue_limit}")
        if plan_quota is not None and plan_quota < 1:
            raise ServeError(f"plan_quota must be >= 1, got {plan_quota}")
        self.max_sessions = int(max_sessions)
        self.queue_limit = int(queue_limit)
        self.plan_quota = plan_quota
        self.model = cost_model or UnitCost()
        self.max_queries = max_queries
        self.record_transcripts = bool(record_transcripts)
        self.default_plan = plan
        self.stats = ServerStats()
        self._groups: dict[object, _PlanGroup] = {}
        self._tenant_plans: dict[str, set] = {}
        self._queue: deque[SessionRequest] = deque()
        #: Cached in-flight count (admission is per-request hot path).
        self._active = 0
        self._closed = False
        if plan is not None:
            self.register_plan(plan)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop every plan group, queued request and in-flight session."""
        schedule_point("serve.close")
        if self._closed:
            return
        self._closed = True
        self._groups.clear()
        self._queue.clear()
        self._active = 0

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Plans and quotas
    # ------------------------------------------------------------------
    @staticmethod
    def _plan_key(plan: CompiledPlan):
        return plan.config_key or id(plan)

    def register_plan(self, plan: CompiledPlan, tenant: str = "default"):
        """Register a plan for a tenant.

        Idempotent per (plan, tenant).  Counts against the tenant's
        ``plan_quota``; :meth:`release_plan` returns the slot.
        """
        schedule_point("serve.register_plan")
        if self._closed:
            raise ServeError("the server is closed")
        key = self._plan_key(plan)
        held = self._tenant_plans.setdefault(tenant, set())
        if key in held:
            return key
        if self.plan_quota is not None and len(held) >= self.plan_quota:
            raise QuotaExceededError(
                f"tenant {tenant!r} already holds {len(held)} plan(s) "
                f"(quota {self.plan_quota}); release one or raise the quota"
            )
        group = self._groups.get(key)
        if group is None:
            index = _PlanIndex(plan, self.model)
            budget = default_budget(plan.hierarchy, self.max_queries)
            group = _PlanGroup(plan, index, budget, self.model)
            self._groups[key] = group
        held.add(key)
        group.tenants.add(tenant)
        self.stats.tenants.add(tenant)
        return key

    def release_plan(self, plan: CompiledPlan, tenant: str = "default") -> None:
        """Drop a tenant's registration.

        Refused while the plan has sessions in flight, or while the tenant
        has requests for it in the waiting queue: those were admitted
        against this registration, and admitting them later must not
        re-run the quota check.
        """
        schedule_point("serve.release_plan")
        key = self._plan_key(plan)
        held = self._tenant_plans.get(tenant, set())
        if key not in held:
            raise ServeError(
                f"tenant {tenant!r} has no registration for plan "
                f"{plan.policy_name!r}"
            )
        group = self._groups.get(key)
        if group is not None and group.in_flight:
            raise ServeError(
                f"plan {plan.policy_name!r} still has {group.in_flight} "
                "session(s) in flight; drain before releasing"
            )
        queued = sum(
            1
            for request in self._queue
            if request.tenant == tenant
            and self._plan_key(request.plan or self.default_plan) == key
        )
        if queued:
            raise ServeError(
                f"tenant {tenant!r} still has {queued} session(s) queued on "
                f"plan {plan.policy_name!r}; drain before releasing"
            )
        held.discard(key)
        if group is not None:
            group.tenants.discard(tenant)
            if not group.tenants:
                del self._groups[key]

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Sessions currently being served (excludes the waiting queue)."""
        return self._active

    @property
    def queued(self) -> int:
        """Sessions parked in the waiting queue."""
        return len(self._queue)

    def _resolve(
        self, session_id, target, oracle, plan, tenant
    ) -> tuple[_PlanGroup, int | None]:
        """A request's plan group and target index (``None``: an oracle).

        Takes a :class:`SessionRequest`'s fields, so the wire's target
        sessions resolve without building one.
        """
        plan = plan or self.default_plan
        if plan is None:
            raise ServeError(
                f"session {session_id!r} names no plan and the "
                "server has no default plan"
            )
        if (target is None) == (oracle is None):
            raise ServeError(
                f"session {session_id!r} must set exactly one of "
                "target= or oracle="
            )
        key = self._plan_key(plan)
        held = self._tenant_plans.get(tenant, set())
        if key not in held:
            # Implicit registration on first use — the quota check happens
            # inside, so an over-quota tenant gets a typed rejection.
            self.register_plan(plan, tenant)
        group = self._groups[key]
        target_ix = None
        if target is not None:
            target_ix = group.index.hierarchy.index(target)
        return group, target_ix

    def _resolve_request(
        self, request: SessionRequest
    ) -> tuple[_PlanGroup, int | None]:
        return self._resolve(
            request.session_id,
            request.target,
            request.oracle,
            request.plan,
            request.tenant,
        )

    def submit(self, request: SessionRequest) -> None:
        """Admit a session, queue it, or reject it (typed).

        Raises :class:`~repro.exceptions.QuotaExceededError` when the
        request needs a plan registration its tenant has no quota for, and
        :class:`~repro.exceptions.AdmissionError` when both the in-flight
        capacity and the waiting queue are full — the producer should back
        off.
        """
        schedule_point("serve.submit")
        if self._closed:
            raise ServeError("the server is closed")
        try:
            if self.in_flight >= self.max_sessions:
                if len(self._queue) >= self.queue_limit:
                    raise AdmissionError(
                        f"server at capacity: {self.in_flight} session(s) in "
                        f"flight (max {self.max_sessions}) and "
                        f"{len(self._queue)} queued (limit {self.queue_limit})"
                    )
                # Validate plan/quota *now* so a doomed request is rejected
                # at submission, not when it surfaces from the queue.
                self._resolve_request(request)
                self._queue.append(request)
                self.stats.submitted += 1
                return
            group, target_ix = self._resolve_request(request)
        except AdmissionError:
            self.stats.rejected += 1
            raise
        group.admit(request, target_ix)
        self._active += 1
        self.stats.submitted += 1
        if self._active > self.stats.peak_in_flight:
            self.stats.peak_in_flight = self._active

    def _admit_from_queue(self) -> None:
        schedule_point("serve.admit_from_queue")
        while self._queue and self._active < self.max_sessions:
            request = self._queue.popleft()
            group, target_ix = self._resolve_request(request)
            group.admit(request, target_ix)
            self._active += 1
            if self._active > self.stats.peak_in_flight:
                self.stats.peak_in_flight = self._active

    def settle(self, request: SessionRequest) -> SessionOutcome:
        """Serve one fresh target session now; return its outcome.

        Does for the request what :meth:`serve` does: resolves its plan
        (registering it for the tenant under ``plan_quota``), looks up the
        target's leaf, and moves ``submitted``, ``completed``, ``errored``
        and ``rejected`` the same way, with the same outcome — result or
        typed error, texts included.  Nothing is left in flight, so the
        in-flight cap does not apply.  A failing request (unknown target,
        over quota, an oracle session) becomes an error outcome; only a
        closed server raises.
        """
        settled = self._settle_leaf(
            request.session_id,
            request.target,
            request.tenant,
            request.plan,
            request.oracle,
        )
        if isinstance(settled, ReproError):
            return SessionOutcome(
                request.session_id, request.tenant, None, settled
            )
        index, leaf = settled
        return SessionOutcome(
            request.session_id,
            request.tenant,
            index.result_at(leaf, transcript=self.record_transcripts),
        )

    def _settle_leaf(
        self, session_id, target, tenant, plan=None, oracle=None
    ) -> tuple[_PlanIndex, int] | ReproError:
        """The settle core: a target session's ``(index, leaf)``, or its error.

        :meth:`settle` builds its outcome from this; the network transport
        writes a target session's reply straight from the leaf, so neither
        a request nor an outcome is made for it.  Counts as :meth:`settle`
        documents; a closed server raises.
        """
        if self._closed:
            raise ServeError("the server is closed")
        stats = self.stats
        try:
            group, target_ix = self._resolve(
                session_id, target, oracle, plan, tenant
            )
            if target_ix is None:
                raise ServeError(
                    f"session {session_id!r} has an oracle; "
                    "settle() serves target sessions"
                )
        except ReproError as exc:
            if isinstance(exc, AdmissionError):
                stats.rejected += 1
            else:
                stats.errored += 1
            return exc
        stats.submitted += 1
        leaf = int(group.index.leaf_of[target_ix])
        error = group.leaf_error(session_id, target_ix, leaf)
        if error is not None:
            stats.errored += 1
            return error
        stats.completed += 1
        return group.index, leaf

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> list[SessionOutcome]:
        """Settle fresh target sessions, step oracle sessions; return finishers.

        Every target session admitted since the last step finishes here;
        each oracle-driven session answers one question.  Freed capacity
        admits queued sessions for the *next* step.
        """
        schedule_point("serve.step")
        if self._closed:
            raise ServeError("the server is closed")
        outcomes: list[SessionOutcome] = []
        record = self.record_transcripts
        for group in self._groups.values():
            outcomes.extend(group.step(record))
        self.stats.steps += 1
        self._active -= len(outcomes)
        errored = sum(1 for o in outcomes if o.error is not None)
        self.stats.errored += errored
        self.stats.completed += len(outcomes) - errored
        self._admit_from_queue()
        return outcomes

    def drain(self, *, timeout: float | None = None) -> list[SessionOutcome]:
        """Step until every admitted and queued session finished.

        ``timeout`` bounds the wall-clock wait: past it, drain raises a
        :class:`~repro.exceptions.ServeTimeoutError` naming what is still
        outstanding instead of waiting on a slow oracle.
        """
        if timeout is not None and timeout <= 0:
            raise ServeError(f"timeout must be positive, got {timeout}")
        give_up_at = (
            None
            if timeout is None
            else time.monotonic() + timeout  # repro: noqa RPA004 - drain deadline is a liveness bound, not a result input
        )
        outcomes: list[SessionOutcome] = []
        idle_ticks = 0
        while self.in_flight or self._queue:
            schedule_point("serve.drain")
            if (
                give_up_at is not None
                and time.monotonic() > give_up_at  # repro: noqa RPA004 - drain deadline is a liveness bound, not a result input
            ):
                raise ServeTimeoutError(
                    f"drain exceeded its {timeout:g}s deadline with "
                    f"{self.in_flight + self.queued} session(s) outstanding "
                    f"({self.in_flight} in flight, {self.queued} queued)"
                )
            finished = self.step()
            outcomes.extend(finished)
            if finished:
                idle_ticks = 0
                continue
            # An empty step still asked each oracle session one question,
            # and every session is bounded by its budget; a run of 10,000
            # empty steps means in-flight sessions that no group steps.
            idle_ticks += 1
            if idle_ticks > 10_000:
                raise ServeError(
                    f"server stalled with {self.in_flight} session(s) in "
                    "flight making no progress"
                )
        return outcomes

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------
    def _feed_admit(self, request: SessionRequest, fast: list):
        """Admit one feed request; returns a rejection outcome or ``None``.

        ``fast`` is :meth:`serve`'s three-slot ``[tenant, group, index]``
        cache: most feeds are one tenant on the default plan, and admitting
        those straight into the group's incoming list skips the
        per-request ``submit()``/``_resolve()`` machinery.  The cache holds
        only while the tenant still holds the cached group: after a
        :meth:`release_plan` the next request goes through :meth:`submit`,
        which registers the plan again under the quota.
        """
        stats = self.stats
        if (
            request.tenant == fast[0]
            and request.plan is None
            and request.target is not None
            and request.oracle is None
            and request.tenant in fast[1].tenants
        ):
            try:
                target_ix = fast[2](request.target)
            except ReproError as exc:  # unknown label: reject it
                stats.errored += 1
                return SessionOutcome(
                    request.session_id, request.tenant, None, exc
                )
            fast[1].incoming.append((request, target_ix))
            self._active += 1
            stats.submitted += 1
            if self._active > stats.peak_in_flight:
                stats.peak_in_flight = self._active
            return None
        try:
            self.submit(request)
        except ReproError as exc:
            # Quota (AdmissionError), unknown target, malformed request:
            # one bad request becomes one rejected outcome; the feed —
            # and the admitted sessions — keep being served.
            if not isinstance(exc, AdmissionError):
                stats.errored += 1
            return SessionOutcome(request.session_id, request.tenant, None, exc)
        if request.plan is None and request.target is not None:
            fast[0] = request.tenant
            fast[1] = self._groups[self._plan_key(self.default_plan)]
            fast[2] = fast[1].index.hierarchy.index
        return None

    def _reclaim_in_flight(self) -> int:
        """Cancel every in-flight and queued session (abandoned feed).

        A ``serve`` consumer that drops the generator mid-feed
        (``GeneratorExit``) would otherwise strand its sessions:
        ``_active`` never decrements, the groups keep them, and
        ``release_plan`` sees phantom in-flight work.  Reclaiming drops
        them all and fixes the accounting; under ``REPRO_SANITIZE=1`` it
        first audits that the cached count matches the groups.
        """
        in_flight = sum(g.in_flight for g in self._groups.values())
        if sanitize.enabled() and in_flight != self._active:
            raise SanitizerError(
                f"feed reclaim: {self._active} session(s) counted active "
                f"but {in_flight} tracked in plan groups — session "
                "accounting drifted"
            )
        reclaimed = len(self._queue)
        self._queue.clear()
        for group in self._groups.values():
            reclaimed += group.cancel_all()
        self._active = 0
        self.stats.abandoned += reclaimed
        return reclaimed

    def serve(self, feed: Iterable[SessionRequest]):
        """Serve an iterator feed; yield outcomes as sessions finish.

        Applies *backpressure*: while the server is at capacity the feed is
        simply not pulled (no load shedding — that is the
        :meth:`submit`-side contract).  Quota violations surface as
        rejected outcomes, not exceptions, so one bad tenant cannot stall
        the feed.  Abandoning the generator mid-feed reclaims every
        in-flight session (see :meth:`_reclaim_in_flight`); outcomes the
        consumer never pulled are dropped, not leaked.
        """
        if self._closed:
            raise ServeError("the server is closed")
        iterator = iter(feed)
        exhausted = False
        fast: list = [None, None, None]  # [tenant, group, index] cache
        try:
            while True:
                while not exhausted and self._active < self.max_sessions:
                    try:
                        request = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    rejected = self._feed_admit(request, fast)
                    if rejected is not None:
                        yield rejected
                yield from self.step()
                if exhausted and not self.in_flight and not self._queue:
                    return
        finally:
            if not self._closed and (self.in_flight or self._queue):
                self._reclaim_in_flight()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"{self.in_flight} in flight, {len(self._queue)} queued"
        )
        return (
            f"Server(plans={len(self._groups)}, "
            f"max_sessions={self.max_sessions}, {state})"
        )
