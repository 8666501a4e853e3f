"""Compile a deterministic policy into a :class:`CompiledPlan`.

:func:`compile_policy` materialises the policy's full decision structure in
one pass.  Policies with exact answer reversal
(:attr:`~repro.core.policy.Policy.supports_undo`) are walked depth-first
with a single reset, so every decision point is proposed exactly once.
Policies without undo are compiled by answer-prefix replay (one reset per
plan node), which is slower but still a one-time cost: every search
served from the plan afterwards is a pure pointer walk.
:func:`compile_reached` runs the same depth-first walk restricted to a
target sample, for the engine's uncached sampled evaluation.

Branch viability is decided with the hierarchy's reachability kernels
(:func:`repro.engine.vector.make_splitter`): an answer no target is
consistent with is never fed to the policy (it could not handle it — a
truthful oracle never produces it) and is recorded as
:data:`~repro.plan.plan.NO_PATH`.

:func:`plan_key` is the content hash identifying a compile configuration —
policy fingerprint, hierarchy fingerprint, distribution and price vectors —
used as the cache key by :mod:`repro.plan.cache` and stored on every plan
as :attr:`CompiledPlan.config_key`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.analysis import sanitize
from repro.core.costs import QueryCostModel, UnitCost
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.policy import Policy
from repro.core.session import default_budget
from repro.exceptions import BudgetExceededError, SearchError
from repro.plan.plan import NO_PATH, CompiledPlan


def _make_splitter(hierarchy: Hierarchy, num_targets: int):
    # Imported lazily: repro.engine imports repro.plan at module load, so a
    # top-level import here would close an import cycle.
    from repro.engine.vector import make_splitter

    return make_splitter(hierarchy, num_targets)


def resolve_config(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None,
    cost_model: QueryCostModel | None,
) -> tuple[TargetDistribution | None, QueryCostModel]:
    """Apply the same defaulting rules as :meth:`Policy.reset`.

    Fingerprinting and compilation must see the *effective* configuration:
    a distribution-using policy compiled with ``distribution=None`` behaves
    exactly like one compiled with the equal distribution, so both must map
    to the same cache key.
    """
    if distribution is None and policy.uses_distribution:
        distribution = TargetDistribution.equal(hierarchy)
    return distribution, cost_model or UnitCost()


def plan_key(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
) -> str:
    """Content hash of a compile configuration (the plan-cache key)."""
    distribution, model = resolve_config(
        policy, hierarchy, distribution, cost_model
    )
    digest = hashlib.sha256()
    digest.update(b"repro-plan-key-v1\x00")
    digest.update(policy.fingerprint().encode())
    digest.update(b"\x00")
    digest.update(hierarchy.fingerprint().encode())
    digest.update(b"\x00")
    if distribution is None:
        digest.update(b"dist:none")
    else:
        digest.update(distribution.as_array(hierarchy).tobytes())
    digest.update(b"\x00")
    digest.update(model.as_array(hierarchy).tobytes())
    return digest.hexdigest()


def compile_policy(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
    *,
    max_depth: int | None = None,
    validate: bool = True,
) -> CompiledPlan:
    """Freeze ``policy``'s interactive behaviour into a :class:`CompiledPlan`.

    Parameters
    ----------
    policy, hierarchy, distribution, cost_model:
        The search configuration; ``distribution`` defaults to equal for
        distribution-using policies, exactly as in ``Policy.reset``.
    max_depth:
        Safety bound on the structure depth, defaulting to ``2 n + 10``
        (the ``run_search`` budget).  Exceeding it raises
        :class:`~repro.exceptions.BudgetExceededError`.
    validate:
        Check that every leaf identifies exactly the targets that reach it
        (raises :class:`~repro.exceptions.SearchError` naming the policy and
        the first mis-identified target).
    """
    distribution, model = resolve_config(
        policy, hierarchy, distribution, cost_model
    )
    # A policy whose fingerprint cannot capture its behaviour (e.g. a
    # wrapped decision tree) must not advertise a content hash: two
    # different configurations would collide under one key.
    if getattr(policy, "plan_cacheable", True):
        key = plan_key(policy, hierarchy, distribution, model)
    else:
        key = ""
    budget = default_budget(hierarchy, max_depth)
    builder = _Builder(policy.name)
    if policy.supports_undo:
        _undo_walk(
            policy, hierarchy, distribution, model, budget, validate, builder,
            np.arange(hierarchy.n, dtype=np.int64),
        )
    else:
        _replay_walk(policy, hierarchy, distribution, model, budget, validate, builder)
    return builder.finish(hierarchy, key)


def compile_reached(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None,
    cost_model: QueryCostModel | None,
    targets: np.ndarray,
    *,
    validate: bool = True,
) -> CompiledPlan:
    """The part of ``policy``'s plan that ``targets`` reach.

    The compile DFS restricted to a target sample (ascending hierarchy
    indices): branches no sampled target takes become :data:`NO_PATH`, so
    the policy proposes at about ``len(targets) * height`` decision points
    instead of up to ``2 n - 1``.  The engine's sampled evaluation
    descends this plan, which applies the caller's query budget; the
    walk itself stops only a runaway policy, at ``2 n + 10`` questions.
    It is partial, so it carries no ``config_key``
    (:class:`~repro.plan.PlanCache` refuses it) and must never stand in
    for the full plan.  Needs ``policy.supports_undo``.
    """
    distribution, model = resolve_config(
        policy, hierarchy, distribution, cost_model
    )
    budget = default_budget(hierarchy)
    builder = _Builder(policy.name)
    _undo_walk(
        policy, hierarchy, distribution, model, budget, validate, builder,
        targets,
    )
    return builder.finish(hierarchy, "")


class _Builder:
    """Accumulates plan nodes during a compile walk."""

    def __init__(self, policy_name: str) -> None:
        self.policy_name = policy_name
        self.query: list[int] = []
        self.yes: list[int] = []
        self.no: list[int] = []
        self.target: list[int] = []

    def new_node(self) -> int:
        self.query.append(-1)
        self.yes.append(-1)
        self.no.append(-1)
        self.target.append(-1)
        return len(self.query) - 1

    def set_child(self, node: int, answer: bool, child: int) -> None:
        (self.yes if answer else self.no)[node] = child

    def finish(self, hierarchy: Hierarchy, key: str) -> CompiledPlan:
        return CompiledPlan(
            hierarchy,
            np.asarray(self.query, dtype=np.int64),
            np.asarray(self.yes, dtype=np.int64),
            np.asarray(self.no, dtype=np.int64),
            np.asarray(self.target, dtype=np.int64),
            policy_name=self.policy_name,
            config_key=key,
        )


def check_leaf(
    policy_name: str,
    hierarchy: Hierarchy,
    subset: np.ndarray,
    returned_ix: int,
) -> None:
    """Every target consistent with this answer prefix must be identified.

    Shared by the compile walks and the engine's descent so the
    mis-identification diagnostics stay in one place.
    """
    wrong = subset[subset != returned_ix]
    if wrong.size:
        raise SearchError(
            f"{policy_name} returned "
            f"{hierarchy.label(returned_ix)!r} for target "
            f"{hierarchy.label(int(wrong[0]))!r}"
        )


def _undo_walk(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None,
    model: QueryCostModel,
    budget: int,
    validate: bool,
    builder: _Builder,
    targets: np.ndarray,
) -> None:
    """One-reset DFS over the decision structure via exact answer reversal.

    ``targets`` (ascending hierarchy indices) is the root's target subset:
    every branch none of them takes becomes :data:`NO_PATH`, so the policy
    only works along the paths they follow.
    """
    split = _make_splitter(hierarchy, len(targets))

    def open_node(subset: np.ndarray, depth: int):
        """Allocate a plan node; returns its id and a frame if internal."""
        node = builder.new_node()
        if policy.done():
            returned_ix = hierarchy.index(policy.result())
            if validate:
                check_leaf(policy.name, hierarchy, subset, returned_ix)
            builder.target[node] = returned_ix
            return node, None
        if depth >= budget:
            raise BudgetExceededError(
                f"{policy.name} ({type(policy).__name__}) exceeded the "
                f"depth budget of {budget} questions while compiling"
            )
        qix = hierarchy.index(policy.propose())
        builder.query[node] = qix
        yes, no = split(qix, subset)
        branches = []
        for answer, sub in ((True, yes), (False, no)):
            if sub.size:
                branches.append((answer, sub))
            else:
                builder.set_child(node, answer, NO_PATH)
        # [node id, viable branches, branch cursor, depth]
        return node, [node, branches, 0, depth]

    # Under REPRO_SANITIZE=1 every observe/undo pair is bracketed by a
    # state fingerprint: an inexact undo fails here, at the policy, not
    # as a bit-identity diff three layers downstream.
    checker = sanitize.undo_checker(policy)
    policy.enable_undo(True)
    try:
        policy.reset(hierarchy, distribution, model)
        _, frame = open_node(targets, 0)
        stack = [frame] if frame is not None else []
        while stack:
            frame = stack[-1]
            node, branches, cursor, depth = frame
            if cursor < len(branches):
                frame[2] += 1
                answer, subset = branches[cursor]
                checker.before_observe()
                policy.observe(answer)
                child, child_frame = open_node(subset, depth + 1)
                builder.set_child(node, answer, child)
                if child_frame is None:
                    policy.undo()
                    checker.after_undo()
                else:
                    stack.append(child_frame)
            else:
                stack.pop()
                if stack:
                    policy.undo()
                    checker.after_undo()
    finally:
        policy.enable_undo(False)


def _replay_walk(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None,
    model: QueryCostModel,
    budget: int,
    validate: bool,
    builder: _Builder,
) -> None:
    """Prefix-replay DFS for policies without exact undo.

    One ``reset`` plus one answer replay per plan node — ``O(sum of node
    depths)`` policy steps, the same cost profile as
    :func:`~repro.core.decision_tree.build_decision_tree`, paid once.
    """
    split = _make_splitter(hierarchy, hierarchy.n)

    def replay(prefix: tuple[bool, ...]) -> None:
        policy.reset(hierarchy, distribution, model)
        for answer in prefix:
            if policy.done():
                raise SearchError(
                    f"{policy.name} finished mid-prefix while compiling; "
                    "it is not deterministic"
                )
            policy.propose()
            policy.observe(answer)

    all_targets = np.arange(hierarchy.n, dtype=np.int64)
    root = builder.new_node()
    stack: list[tuple[int, tuple[bool, ...], np.ndarray]] = [
        (root, (), all_targets)
    ]
    while stack:
        node, prefix, subset = stack.pop()
        replay(prefix)
        if policy.done():
            returned_ix = hierarchy.index(policy.result())
            if validate:
                check_leaf(policy.name, hierarchy, subset, returned_ix)
            builder.target[node] = returned_ix
            continue
        if len(prefix) >= budget:
            raise BudgetExceededError(
                f"{policy.name} ({type(policy).__name__}) exceeded the "
                f"depth budget of {budget} questions while compiling"
            )
        qix = hierarchy.index(policy.propose())
        builder.query[node] = qix
        yes, no = split(qix, subset)
        for answer, sub in ((True, yes), (False, no)):
            if not sub.size:
                builder.set_child(node, answer, NO_PATH)
                continue
            child = builder.new_node()
            builder.set_child(node, answer, child)
            stack.append((child, prefix + (answer,), sub))
