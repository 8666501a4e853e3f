"""The interactive-policy interface (the paper's "query policy").

A policy plays the interactive game of Algorithm 1: it repeatedly proposes a
query node, observes the boolean answer, and eventually reports the identified
target.  The protocol is::

    policy.reset(hierarchy, distribution, cost_model)
    while not policy.done():
        q = policy.propose()
        policy.observe(oracle.answer(q))
    target = policy.result()

``propose`` is idempotent between observations (calling it twice without an
intervening ``observe`` returns the same node), which lets drivers retry
queries against flaky oracles without perturbing the policy.

All policies in :mod:`repro.policies` are *deterministic* given their
construction arguments, so their behaviour is fully described by a decision
tree (Definitions 5–7).  That determinism is what makes the
compile/execute split possible: :func:`repro.plan.compile_policy` freezes
a policy's whole interactive behaviour into that tree, an immutable
:class:`~repro.plan.CompiledPlan`, once, and per-session
:class:`~repro.plan.SearchCursor` objects replay it with zero per-search
policy work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable
from typing import Any

from repro.core.costs import QueryCostModel, UnitCost
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.exceptions import PolicyError

#: A zero-argument callable producing a fresh policy instance; evaluation
#: helpers take factories so that each simulated search starts clean.
PolicyFactory = Callable[[], "Policy"]


class Policy(ABC):
    """Base class for interactive graph-search policies."""

    #: Human-readable name used in experiment tables.
    name: str = "policy"

    #: Whether the policy consults the target distribution.  Distribution-
    #: oblivious baselines (TopDown, WIGS, MIGS) set this to False; the
    #: experiment harness uses it to skip redundant re-evaluations.
    uses_distribution: bool = True

    #: Whether the policy can *revert* its most recent answer exactly
    #: (:meth:`undo`).  Policies that set this implement the
    #: :class:`repro.engine.VectorPolicy` protocol natively: the plan
    #: compiler explores both answers of every decision point in one pass
    #: instead of replaying one answer prefix per decision node.
    supports_undo: bool = False

    #: Attribute names the undo-integrity sanitizer (``REPRO_SANITIZE=1``,
    #: see :mod:`repro.analysis.sanitize`) skips when fingerprinting state
    #: around each observe/undo pair.  List *caches* here — state that is
    #: rebuilt on demand and whose valid contents are derived from
    #: fingerprinted attributes — never real per-answer state: excluding
    #: the latter silences exactly the corruption the checker exists for.
    undo_fingerprint_exclude: tuple = ()

    def __init__(self) -> None:
        self.hierarchy: Hierarchy | None = None
        self.distribution: TargetDistribution | None = None
        self.cost_model: QueryCostModel = UnitCost()
        self._pending: Hashable | None = None
        self._undo_enabled = False
        self._undo_log: list[tuple[Hashable, bool, Any]] = []

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def reset(
        self,
        hierarchy: Hierarchy,
        distribution: TargetDistribution | None = None,
        cost_model: QueryCostModel | None = None,
    ) -> None:
        """Prepare for a fresh search on ``hierarchy``.

        ``distribution`` defaults to the equal distribution for policies that
        need one; oblivious baselines ignore it entirely.
        """
        self.hierarchy = hierarchy
        if distribution is None and self.uses_distribution:
            distribution = TargetDistribution.equal(hierarchy)
        self.distribution = distribution
        self.cost_model = cost_model or UnitCost()
        self._pending = None
        self._undo_log = []
        self._reset_state()

    def propose(self) -> Hashable:
        """The next query node (idempotent until the answer is observed)."""
        self._require_reset()
        if self.done():
            raise PolicyError("search already finished; nothing to propose")
        if self._pending is None:
            self._pending = self._select_query()
        return self._pending

    def observe(self, answer: bool) -> None:
        """Feed the oracle's boolean answer for the pending query."""
        self._require_reset()
        if self._pending is None:
            raise PolicyError("observe() called before propose()")
        query, self._pending = self._pending, None
        self._apply_answer(query, bool(answer))

    def enable_undo(self, enabled: bool = True) -> None:
        """Turn answer journaling on/off (engine use; off by default).

        While enabled, every :meth:`observe` appends an exact-restoration
        record, and :meth:`undo` pops one.  The flag survives :meth:`reset`
        (the log itself is cleared), so drivers can enable it before
        resetting.  Journaling costs a little memory and time per answer,
        which is why plain interactive searches leave it off.
        """
        if enabled and not self.supports_undo:
            raise PolicyError(
                f"{type(self).__name__} does not support undo; the engine "
                "falls back to transcript replay for it"
            )
        self._undo_enabled = bool(enabled)
        self._undo_log = []

    def undo(self) -> None:
        """Revert the most recent :meth:`observe`; its query becomes pending.

        Only valid while undo journaling is enabled (:meth:`enable_undo`) and
        at least one answer has been observed since the last reset.  After
        ``undo()`` the policy is in the exact state it had right after the
        corresponding :meth:`propose`, so the *other* answer can be observed
        — this is how the engine walks a policy's whole decision structure
        with a single reset.
        """
        self._require_reset()
        if not self._undo_log:
            raise PolicyError(
                "undo() without a journaled answer (was enable_undo() on?)"
            )
        query, answer, payload = self._undo_log.pop()
        self._revert_answer(query, answer, payload)
        self._pending = query

    @abstractmethod
    def done(self) -> bool:
        """True once the target is unambiguously identified."""

    @abstractmethod
    def result(self) -> Hashable:
        """The identified target node (valid once :meth:`done`)."""

    # ------------------------------------------------------------------
    # Hooks for subclasses
    #
    # The compile walk (repro.plan.compile) calls _select_query,
    # _apply_answer and _revert_answer directly for a class that keeps
    # the base propose/observe/undo; a class overriding any of those
    # three is walked through them instead.
    # ------------------------------------------------------------------
    @abstractmethod
    def _reset_state(self) -> None:
        """Rebuild internal state from ``self.hierarchy``/``self.distribution``."""

    @abstractmethod
    def _select_query(self) -> Hashable:
        """Choose the next query node (Line 2 of Algorithm 1)."""

    @abstractmethod
    def _apply_answer(self, query: Hashable, answer: bool) -> None:
        """Update internal state after ``reach(query) = answer``.

        Implementations with ``supports_undo`` must, while
        ``self._undo_enabled``, append ``(query, answer, payload)`` to
        ``self._undo_log`` where ``payload`` carries the *old values* needed
        for an exact restoration (store values, not deltas: re-adding a
        float subtraction is not bit-exact).
        """

    def _revert_answer(self, query: Hashable, answer: bool, payload: Any) -> None:
        """Exactly restore the state prior to ``_apply_answer(query, answer)``.

        Called by :meth:`undo`, or by the compile walk with the record
        :meth:`undo` would pop; required for ``supports_undo`` policies.
        """
        raise PolicyError(f"{type(self).__name__} cannot revert answers")

    def fingerprint(self) -> str:
        """Configuration string identifying this policy's decision behaviour.

        Two policy instances with equal fingerprints must produce identical
        decision structures on any (hierarchy, distribution, cost model)
        configuration — this string goes into the configuration content
        hash (:func:`repro.plan.plan_key`) that keys the engine-result
        cache (:mod:`repro.engine.cache`).  The default covers policies whose
        behaviour-relevant options are reflected in :attr:`name` (the
        convention used by the ``rounded`` variants); subclasses with extra
        decision-relevant parameters must append them (see
        :class:`repro.policies.random_policy.RandomPolicy`).
        """
        cls = type(self)
        return f"{cls.__module__}.{cls.__qualname__}:{self.name}"

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require_reset(self) -> None:
        if self.hierarchy is None:
            raise PolicyError(f"{type(self).__name__}.reset() was never called")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
