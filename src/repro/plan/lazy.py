"""Lazily-compiled plans: memoize the decision structure as sessions walk it.

Eager compilation (:func:`repro.plan.compile.compile_policy`) pays for the
*whole* decision structure up front — the right trade when a plan is reused
across many sessions or persisted.  Serving loops that recompile often
(online labelling re-snapshots the learned distribution every few objects)
would waste most of that work: each refresh window only ever visits a few
root-to-leaf paths.

:class:`LazyPlan` is the in-between: it exposes the same
``start() -> SearchCursor`` API, but materialises plan nodes only when a
cursor first crosses them, by advancing the wrapped policy along the
cursor's answer prefix.  The wrapped policy is kept positioned at the last
expanded prefix, so consecutive expansions along one session's path cost one
``propose``/``observe`` step each — serving a fresh ``LazyPlan`` is never
slower than driving the policy directly, and every *repeated* path is a pure
pointer walk with zero policy work.  This also gives exact ``undo()`` for
policies that have none of their own: backtracking just re-enters an
already-expanded node.
"""

from __future__ import annotations

from repro.analysis import sanitize
from repro.core.costs import QueryCostModel
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.policy import Policy
from repro.core.session import default_budget
from repro.exceptions import BudgetExceededError
from repro.plan.compile import resolve_config
from repro.plan.plan import SearchCursor

#: Child sentinel: the branch exists but has not been expanded yet.
_UNEXPANDED = -4


class LazyPlan:
    """A memoizing, on-demand compiled view of one policy configuration.

    Not picklable and not cached on disk (use :func:`compile_policy` for
    that); the payoff is zero up-front cost and policy-free serving of every
    previously-seen answer path.

    The wrapped policy is *dedicated to the plan* while it is alive: the
    plan resets and advances it at will, and — for undo-capable policies —
    keeps answer journaling enabled so expansion can backtrack exactly.
    Callers that hand the policy back afterwards should call
    ``policy.enable_undo(False)`` once they are done with the plan.
    """

    def __init__(
        self,
        policy: Policy,
        hierarchy: Hierarchy,
        distribution: TargetDistribution | None = None,
        cost_model: QueryCostModel | None = None,
        *,
        max_depth: int | None = None,
    ) -> None:
        distribution, model = resolve_config(
            policy, hierarchy, distribution, cost_model
        )
        self.hierarchy = hierarchy
        self.policy_name = policy.name
        self._policy = policy
        self._distribution = distribution
        self._model = model
        self._budget = default_budget(hierarchy, max_depth)
        self._query: list[int] = []
        self._yes: list[int] = []
        self._no: list[int] = []
        self._target: list[int] = []
        #: Answer prefix the wrapped policy is currently advanced through,
        #: or None when the policy needs a reset before use.
        self._live_prefix: list[bool] | None = None
        #: Undo-capable policies backtrack to a diverging prefix exactly;
        #: others pay a reset plus full replay.
        self._can_undo = bool(policy.supports_undo)
        if self._can_undo:
            policy.enable_undo(True)
        # Under REPRO_SANITIZE=1 every observe/undo pair is bracketed by a
        # state fingerprint, as in the compile walk: an inexact undo fails
        # at the policy, not as a wrong label served later.
        self._checker = sanitize.undo_checker(policy)
        self._advance_to([])
        self._materialize()  # node 0 == ROOT

    @property
    def name(self) -> str:
        """The wrapped policy's name (duck-compatible with policies)."""
        return self.policy_name

    @property
    def num_expanded(self) -> int:
        """Plan nodes materialised so far."""
        return len(self._query)

    def start(self) -> SearchCursor:
        """A fresh cursor over the (lazily growing) plan."""
        return SearchCursor(self)

    def __repr__(self) -> str:
        return (
            f"LazyPlan(policy={self.policy_name!r}, "
            f"expanded={self.num_expanded})"
        )

    # ------------------------------------------------------------------
    # SearchCursor plan interface
    # ------------------------------------------------------------------
    def _query_ix_of(self, node: int) -> int:
        return self._query[node]

    def _target_ix_of(self, node: int) -> int:
        return self._target[node]

    def _child_of(self, node: int, answer: bool, history) -> int:
        children = self._yes if answer else self._no
        child = children[node]
        if child != _UNEXPANDED:
            return child
        # First crossing: advance the policy through the cursor's answers
        # (usually a single step — see _advance_to) and record the outcome.
        prefix = [a for _, a in history]
        if len(prefix) >= self._budget:
            raise BudgetExceededError(
                f"{self.policy_name} exceeded the depth budget of "
                f"{self._budget} questions while expanding lazily"
            )
        self._advance_to(prefix + [answer])
        child = self._materialize()
        children[node] = child
        return child

    # ------------------------------------------------------------------
    # Expansion machinery
    # ------------------------------------------------------------------
    def _advance_to(self, prefix: list[bool]) -> None:
        """Position the wrapped policy exactly after ``prefix``.

        Extends the live prefix step-by-step when ``prefix`` continues it
        (the common case: a cursor walking down).  When the cursor jumped to
        a different branch, undo-capable policies rewind exactly to the
        diverging answer; others pay a reset plus full replay.
        """
        live = self._live_prefix
        if live is None:
            self._policy.reset(self.hierarchy, self._distribution, self._model)
            live = self._live_prefix = []
        shared = 0
        limit = min(len(live), len(prefix))
        while shared < limit and live[shared] == prefix[shared]:
            shared += 1
        if len(live) > shared:
            if self._can_undo:
                while len(live) > shared:
                    self._policy.undo()
                    self._checker.after_undo()
                    live.pop()
            else:
                self._policy.reset(
                    self.hierarchy, self._distribution, self._model
                )
                live.clear()
                # The replayed prefix is never undone: drop its fingerprints.
                self._checker = sanitize.undo_checker(self._policy)
        for answer in prefix[len(live) :]:
            self._policy.propose()
            self._checker.before_observe()
            self._policy.observe(answer)
            live.append(answer)

    def _materialize(self) -> int:
        """Record the policy's current position as a new plan node."""
        node = len(self._query)
        self._query.append(-1)
        self._yes.append(_UNEXPANDED)
        self._no.append(_UNEXPANDED)
        self._target.append(-1)
        if self._policy.done():
            self._target[node] = self.hierarchy.index(self._policy.result())
            self._yes[node] = self._no[node] = -1
        else:
            self._query[node] = self.hierarchy.index(self._policy.propose())
        return node
