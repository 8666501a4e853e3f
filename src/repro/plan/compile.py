"""Compile a deterministic policy into a :class:`CompiledPlan`.

:func:`compile_policy` materialises the policy's full decision structure in
one pass.  Policies with exact answer reversal
(:attr:`~repro.core.policy.Policy.supports_undo`) are walked depth-first
with a single reset, so every decision point is proposed exactly once.
Policies without undo are compiled by answer-prefix replay (one reset per
plan node), which is slower but still a one-time cost: every search
served from the plan afterwards is a pure pointer walk.

The depth-first walk (:func:`_undo_walk`) is the paper pipeline's hot
loop.  For a :class:`~repro.core.policy.Policy` that keeps the base
``propose``/``observe``/``undo`` it calls the hooks those wrap
(``_select_query``, ``_apply_answer``, ``_revert_answer``) directly and
appends plan nodes inline; any other class goes through the public
methods.  The engine's sampled evaluation runs the same walk restricted
to its target sample, with a leaf hook that settles each target's
question count and price where it lands, and keeps no plan.

Branch viability is decided with the hierarchy's reachability kernels
(:func:`repro.engine.vector.make_splitter`): an answer no target is
consistent with is never fed to the policy (it could not handle it — a
truthful oracle never produces it) and is recorded as
:data:`~repro.plan.plan.NO_PATH`.  A one-target subset is split by the
kernel's scalar ``reaches`` test on the same index.

:func:`plan_key` is the content hash identifying a compile configuration —
policy fingerprint, hierarchy fingerprint, distribution and price vectors —
stored on every plan as :attr:`CompiledPlan.config_key`; it keys the
engine-result cache (:mod:`repro.engine.cache`).
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

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
    """Content hash of a compile configuration (a plan's ``config_key``)."""
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
            policy, hierarchy, distribution, model, model.as_array(hierarchy),
            budget, validate, np.arange(hierarchy.n, dtype=np.int64), builder,
        )
    else:
        _replay_walk(policy, hierarchy, distribution, model, budget, validate, builder)
    return builder.finish(hierarchy, key)


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


def _keeps_base_protocol(policy: object) -> bool:
    """True when ``policy``'s class inherits ``propose``/``observe``/``undo``.

    Then the walk may call the hooks those methods wrap directly; any
    other class (duck-typed policies included) keeps the public path.
    """
    cls = type(policy)
    return (
        isinstance(policy, Policy)
        and cls.propose is Policy.propose
        and cls.observe is Policy.observe
        and cls.undo is Policy.undo
    )


def _undo_walk(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None,
    model: QueryCostModel,
    price_vec: np.ndarray,
    budget: int,
    validate: bool,
    targets: np.ndarray,
    builder: _Builder | None = None,
    leaf: Callable[[np.ndarray, int, float], None] | None = None,
) -> int:
    """One-reset DFS over the decision structure via exact answer reversal.

    ``targets`` (ascending hierarchy indices) is the root's target subset:
    every branch none of them takes becomes :data:`NO_PATH`, so the policy
    only works along the paths they follow.  The plan's nodes are
    appended to ``builder``, if given.  ``leaf``, if given, is called at
    every leaf with the targets that reach it, its depth and its
    root-to-leaf price: ``price_vec`` (``model``'s prices) summed in
    root-to-leaf order, the order the engine's descent adds them in, so
    they keep their bytes.  The engine's sampled evaluation settles its
    targets there and keeps no plan.  Returns the number of question
    nodes.

    A :class:`Policy` whose class keeps the base ``propose``, ``observe``
    and ``undo`` is driven through the hooks they wrap (``_select_query``,
    ``_apply_answer``, ``_revert_answer`` fed the journal's last record):
    the walk already guarantees what their checks guard.  Each open
    question's frame keeps its query; a one-target subset is split with
    the splitter's scalar ``reaches`` test.
    """
    split = _make_splitter(hierarchy, len(targets))
    reaches = split.reaches
    index = hierarchy.index
    costs = price_vec.tolist()
    if builder is not None:
        query_col, yes_col, no_col, target_col = (
            builder.query, builder.yes, builder.no, builder.target
        )
    # Under REPRO_SANITIZE=1 every observe/undo pair is bracketed by a
    # state fingerprint: an inexact undo fails here, at the policy, not
    # as a bit-identity diff three layers downstream.
    checker = sanitize.undo_checker(policy)
    before_observe, after_undo = checker.before_observe, checker.after_undo
    policy.enable_undo(True)
    try:
        policy.reset(hierarchy, distribution, model)
        done = policy.done
        if _keeps_base_protocol(policy):
            ask = policy._select_query
            tell = policy._apply_answer
            revert = policy._revert_answer

            def back() -> None:
                if not policy._undo_log:
                    policy.undo()  # raises the protocol's PolicyError
                revert(*policy._undo_log.pop())
        else:
            ask, back = policy.propose, policy.undo

            def tell(query, answer: bool) -> None:
                policy.observe(answer)

        # One frame per open question: [node, query, yes subset, no
        # subset, price down to its answers]; a subset is None once taken
        # or empty.
        stack: list[list] = []
        subset, price, node, questions = targets, 0.0, -1, 0
        while True:
            # Open the node the answers so far lead to; ``subset`` reaches it.
            if done():
                returned_ix = index(policy.result())
                # A leaf identifies one target: two or more reaching it
                # are always wrong, and check_leaf names the first.
                if validate and (len(subset) > 1 or subset[0] != returned_ix):
                    check_leaf(policy.name, hierarchy, subset, returned_ix)
                if builder is not None:
                    query_col.append(-1)
                    yes_col.append(-1)
                    no_col.append(-1)
                    target_col.append(returned_ix)
                if leaf is not None:
                    leaf(subset, len(stack), price)
                if stack:
                    back()
                    after_undo()
            else:
                if len(stack) >= budget:
                    raise BudgetExceededError(
                        f"{policy.name} ({type(policy).__name__}) exceeded the "
                        f"depth budget of {budget} questions while compiling"
                    )
                query = ask()
                qix = index(query)
                if len(subset) == 1:
                    if reaches(qix, subset[0]):
                        yes, no = subset, None
                    else:
                        yes, no = None, subset
                else:
                    yes, no = split(qix, subset)
                    if not yes.size:
                        yes = None
                    elif not no.size:
                        no = None
                if builder is not None:
                    node = len(target_col)
                    query_col.append(qix)
                    yes_col.append(NO_PATH if yes is None else -1)
                    no_col.append(NO_PATH if no is None else -1)
                    target_col.append(-1)
                questions += 1
                stack.append([node, query, yes, no, price + costs[qix]])
            # Take the next branch still open, leaving finished questions.
            while stack:
                frame = stack[-1]
                if frame[2] is not None:
                    answer, subset = True, frame[2]
                    frame[2] = None
                    break
                if frame[3] is not None:
                    answer, subset = False, frame[3]
                    frame[3] = None
                    break
                stack.pop()
                if stack:
                    back()
                    after_undo()
            else:
                return questions
            price = frame[4]
            before_observe()
            tell(frame[1], answer)
            if builder is not None:
                (yes_col if answer else no_col)[frame[0]] = len(target_col)
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
