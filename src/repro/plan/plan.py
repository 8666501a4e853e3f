"""The immutable compiled plan and its per-session execution cursor.

A :class:`CompiledPlan` is a deterministic policy's entire interactive
behaviour frozen into four flat integer arrays (query per internal node,
yes/no child links, target per leaf) — the decision structure of
Definitions 5–7 in an execution-ready layout.  It is built once per
(policy, hierarchy, distribution, cost model) configuration by
:func:`repro.plan.compile.compile_policy`, after which:

* any number of concurrent sessions execute it through independent
  :class:`SearchCursor` objects — O(1) per question, zero per-session setup,
  no shared mutable state;
* the simulation engine moves every requested target down the arrays
  together, one level per pass (:func:`repro.engine.simulate_all_targets`);
* :meth:`CompiledPlan.save` / :meth:`CompiledPlan.load` persist it as an
  explicit file, which carries a content hash of the configuration
  (:attr:`CompiledPlan.config_key`).

Plan nodes are dense ids ``0 .. num_nodes - 1`` with the root at
:data:`ROOT`.  Queries and targets are stored as *hierarchy node
indices*; every plan, built or unpickled, has its ids range-checked.
Cursors translate to labels at the API boundary so a cursor is a drop-in
replacement for the ``propose()/observe()/done()/result()`` policy protocol
— plus exact, free :meth:`SearchCursor.undo`.
"""

from __future__ import annotations

import os
import pickle
import uuid
from collections.abc import Hashable
from pathlib import Path

import numpy as np

from repro.analysis.schedule import schedule_point
from repro.core.costs import QueryCostModel
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.exceptions import PlanError, PolicyError, SearchError

#: Plan-node id of the root.
ROOT = 0

#: Child sentinel: no target is consistent with this answer, so a truthful
#: oracle can never produce it (the policy was never asked to handle it).
NO_PATH = -2

#: On-disk format tag checked by :meth:`CompiledPlan.load`.
_FORMAT = "repro-compiled-plan-v1"


def fsync_dir(path) -> None:
    """fsync a directory so a just-renamed entry survives a host crash.

    Best-effort: platforms (or filesystems) that refuse directory opens
    still get an atomic rename, just without the durability of the
    directory entry itself.  Shared by every crash-atomic writer in the
    repo (:meth:`CompiledPlan.save`,
    :meth:`repro.engine.cache.EngineResultCache.put`).
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class CompiledPlan:
    """An immutable, picklable decision structure of a compiled policy.

    Parameters
    ----------
    hierarchy:
        The hierarchy the plan was compiled over (node indices in the
        arrays refer to its indexing).
    query_ix, yes_child, no_child, target_ix:
        Aligned int64 arrays over plan-node ids: the hierarchy index queried
        at each internal node (``-1`` at leaves), the child plan ids for the
        yes/no answers (``-1`` at leaves, :data:`NO_PATH` for answers no
        target is consistent with), and the identified target's hierarchy
        index at each leaf (``-1`` at internal nodes).
    policy_name:
        The compiled policy's :attr:`~repro.core.policy.Policy.name`.
    config_key:
        Content hash of the full compile configuration
        (:func:`repro.plan.compile.plan_key`); keys the engine-result
        cache (:mod:`repro.engine.cache`).  Empty for policies whose
        fingerprint cannot capture their behaviour (``plan_cacheable =
        False``): a passed plan with no key is never result-cached,
        though it can still be ``save()``d.
    """

    __slots__ = (
        "hierarchy",
        "policy_name",
        "config_key",
        "_query",
        "_yes",
        "_no",
        "_target",
    )

    def __init__(
        self,
        hierarchy: Hierarchy,
        query_ix: np.ndarray,
        yes_child: np.ndarray,
        no_child: np.ndarray,
        target_ix: np.ndarray,
        *,
        policy_name: str,
        config_key: str,
    ) -> None:
        arrays = []
        for arr in (query_ix, yes_child, no_child, target_ix):
            # ascontiguousarray adopts an already-contiguous int64 array
            # without copying, so a plan can be built as zero-copy views
            # over an externally owned buffer.
            frozen = np.ascontiguousarray(arr, dtype=np.int64)
            frozen.setflags(write=False)
            arrays.append(frozen)
        sizes = {len(a) for a in arrays}
        if len(sizes) != 1 or not arrays[0].size:
            raise PlanError(
                f"plan arrays must be non-empty and aligned, got lengths "
                f"{[len(a) for a in arrays]}"
            )
        _check_ids(hierarchy, *arrays)
        set_ = object.__setattr__
        set_(self, "hierarchy", hierarchy)
        set_(self, "policy_name", str(policy_name))
        set_(self, "config_key", str(config_key))
        set_(self, "_query", arrays[0])
        set_(self, "_yes", arrays[1])
        set_(self, "_no", arrays[2])
        set_(self, "_target", arrays[3])

    def __setattr__(self, name: str, value) -> None:
        raise PlanError(
            f"CompiledPlan is immutable; cannot set {name!r} "
            "(compile a new plan instead)"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Alias of :attr:`policy_name` (duck-compatible with policies)."""
        return self.policy_name

    @property
    def num_nodes(self) -> int:
        """Total plan nodes (questions + leaves)."""
        return int(len(self._query))

    @property
    def num_questions(self) -> int:
        """Internal nodes — distinct decision points of the policy."""
        return int((self._query >= 0).sum())

    @property
    def num_leaves(self) -> int:
        """Leaves — one per identifiable target."""
        return int((self._target >= 0).sum())

    @property
    def query_ix(self) -> np.ndarray:
        """Per-node queried hierarchy index (``-1`` at leaves); read-only."""
        return self._query

    @property
    def yes_child(self) -> np.ndarray:
        """Per-node yes-branch child plan id; read-only."""
        return self._yes

    @property
    def no_child(self) -> np.ndarray:
        """Per-node no-branch child plan id; read-only."""
        return self._no

    @property
    def target_ix(self) -> np.ndarray:
        """Per-node leaf target hierarchy index (``-1`` internal); read-only."""
        return self._target

    def payload_arrays(self) -> dict[str, np.ndarray]:
        """The four aligned plan arrays, keyed by a stable layout name.

        The constructor adopts contiguous int64 arrays without copying, so
        ``CompiledPlan(hierarchy, *payload_arrays().values(), ...)``
        rebuilds an equivalent plan over the same bytes.
        """
        return {
            "query": self._query,
            "yes": self._yes,
            "no": self._no,
            "target": self._target,
        }

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(policy={self.policy_name!r}, "
            f"questions={self.num_questions}, leaves={self.num_leaves}, "
            f"key={self.config_key[:12]}...)"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> "SearchCursor":
        """A fresh per-session cursor positioned at the root.

        Cursors are independent and tiny (a node id and an answer trail);
        one shared plan serves any number of concurrent sessions.
        """
        return SearchCursor(self)

    # Internal node accessors shared with SearchCursor (LazyPlan implements
    # the same trio with on-demand expansion).
    def _query_ix_of(self, node: int) -> int:
        return int(self._query[node])

    def _target_ix_of(self, node: int) -> int:
        return int(self._target[node])

    def _child_of(self, node: int, answer: bool, history) -> int:
        return int(self._yes[node] if answer else self._no[node])

    # ------------------------------------------------------------------
    # Costs (mirrors DecisionTree, but on the flat arrays)
    # ------------------------------------------------------------------
    def leaf_depths(self) -> dict[Hashable, int]:
        """Number of questions asked for every target, keyed by label."""
        label = self.hierarchy.label
        out: dict[Hashable, int] = {}
        stack: list[tuple[int, int]] = [(ROOT, 0)]
        while stack:
            node, depth = stack.pop()
            t = int(self._target[node])
            if t >= 0:
                out[label(t)] = depth
                continue
            for child in (int(self._yes[node]), int(self._no[node])):
                if child >= 0:
                    stack.append((child, depth + 1))
        return out

    def leaf_prices(self, cost_model: QueryCostModel) -> dict[Hashable, float]:
        """Total query price on the root-to-leaf path, keyed by target."""
        label = self.hierarchy.label
        price_vec = cost_model.as_array(self.hierarchy)
        out: dict[Hashable, float] = {}
        stack: list[tuple[int, float]] = [(ROOT, 0.0)]
        while stack:
            node, price = stack.pop()
            t = int(self._target[node])
            if t >= 0:
                out[label(t)] = price
                continue
            step = price + float(price_vec[int(self._query[node])])
            for child in (int(self._yes[node]), int(self._no[node])):
                if child >= 0:
                    stack.append((child, step))
        return out

    def expected_cost(self, distribution: TargetDistribution) -> float:
        """Equation (2): ``sum_v p(v) * depth(v)``."""
        return sum(
            distribution.p(target) * depth
            for target, depth in self.leaf_depths().items()
        )

    def expected_price(
        self, distribution: TargetDistribution, cost_model: QueryCostModel
    ) -> float:
        """Equation (4): ``sum_v p(v) * price-of-path(v)``."""
        return sum(
            distribution.p(target) * price
            for target, price in self.leaf_prices(cost_model).items()
        )

    def worst_case_cost(self) -> int:
        """Maximum number of questions over all targets."""
        return max(self.leaf_depths().values())

    def validate(self) -> None:
        """Check the leaves biject with the hierarchy's nodes."""
        depths = self.leaf_depths()
        missing = set(self.hierarchy.nodes) - set(depths)
        if missing or len(depths) != self.hierarchy.n:
            raise PlanError(
                f"plan leaves do not biject with the node set: "
                f"{len(depths)} leaves for {self.hierarchy.n} nodes, "
                f"missing e.g. {sorted(map(repr, missing))[:5]}"
            )

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def as_decision_tree(self):
        """The equivalent :class:`~repro.core.decision_tree.DecisionTree`.

        Bridges to the analysis/visualisation layers
        (:func:`repro.evaluation.analyze`, :mod:`repro.viz`).  Raises
        :class:`PlanError` if the plan contains one-sided questions
        (:data:`NO_PATH` children), which ``Question`` nodes cannot express.
        """
        from repro.core.decision_tree import DecisionTree, Leaf, Question

        label = self.hierarchy.label
        built: dict[int, Question | Leaf] = {}
        # Post-order over the plan: children materialise before parents.
        stack: list[tuple[int, bool]] = [(ROOT, False)]
        while stack:
            node, expanded = stack.pop()
            t = int(self._target[node])
            if t >= 0:
                built[node] = Leaf(label(t))
                continue
            yes, no = int(self._yes[node]), int(self._no[node])
            if yes == NO_PATH or no == NO_PATH:
                raise PlanError(
                    "plan has a one-sided question (an answer no target is "
                    "consistent with); DecisionTree cannot express it"
                )
            if expanded:
                built[node] = Question(
                    query=label(int(self._query[node])),
                    yes=built[yes],
                    no=built[no],
                )
            else:
                stack.append((node, True))
                stack.append((yes, False))
                stack.append((no, False))
        return DecisionTree(built[ROOT], self.hierarchy)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the plan (pickle with a format header) to ``path``.

        Crash-atomic: the payload goes to a uniquely named temporary in
        the target directory (so concurrent writers cannot clobber each
        other's half-written files), is fsynced, and only then renamed
        over ``path``, followed by a directory fsync.  A writer dying at
        any point — including at the injectable ``plan.save`` boundary
        between fsync and rename — leaves either the old file or no
        file, never a torn one; the temporary is unlinked on the way
        out.
        """
        payload = {"format": _FORMAT, "plan": self}
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(
            f"{target.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            schedule_point("plan.save")
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        fsync_dir(target.parent)

    @classmethod
    def load(cls, path) -> "CompiledPlan":
        """Load a plan written by :meth:`save`.

        Raises :class:`PlanError` on missing, corrupt, or foreign files.
        """
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except OSError as exc:
            raise PlanError(f"cannot read plan file {path}: {exc}") from exc
        except Exception as exc:  # unpickling failures take many shapes
            raise PlanError(f"corrupt plan file {path}: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _FORMAT
            or not isinstance(payload.get("plan"), cls)
        ):
            raise PlanError(
                f"{path} is not a compiled-plan file "
                f"(expected format {_FORMAT!r})"
            )
        return payload["plan"]

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, slot, value)
        # Pickle loads bypass __init__, so a plan file is checked here.
        _check_ids(self.hierarchy, self._query, self._yes, self._no, self._target)


def _check_ids(
    hierarchy: Hierarchy,
    query: np.ndarray,
    yes: np.ndarray,
    no: np.ndarray,
    target: np.ndarray,
) -> None:
    """Reject ids the plan readers would index out of range.

    Hierarchy indices lie in ``[-1, n)``, every node is exactly one of a
    question and a leaf, and children lie in ``{-1, NO_PATH}`` or
    ``[0, num_nodes)``.  Without this a bad id surfaces later as an
    untyped ``IndexError``, or, negative, as a silently wrapped index.
    """
    n = hierarchy.n
    for name, ids in (("query", query), ("target", target)):
        bad = np.flatnonzero((ids < -1) | (ids >= n))
        if bad.size:
            raise PlanError(
                f"plan node {int(bad[0])} has {name} index "
                f"{int(ids[bad[0]])}, outside the hierarchy's {n} nodes"
            )
    bad = np.flatnonzero((query >= 0) == (target >= 0))
    if bad.size:
        raise PlanError(
            f"plan node {int(bad[0])} must have exactly one of a query and "
            f"a target, got query {int(query[bad[0]])} and target "
            f"{int(target[bad[0]])}"
        )
    num_nodes = len(query)
    for name, child in (("yes", yes), ("no", no)):
        bad = np.flatnonzero((child < NO_PATH) | (child >= num_nodes))
        if bad.size:
            raise PlanError(
                f"plan node {int(bad[0])} has {name}-child "
                f"{int(child[bad[0]])}, outside the {num_nodes} plan nodes"
            )


class SearchCursor:
    """Per-session execution state over a (compiled or lazy) plan.

    Implements the interactive protocol of :class:`~repro.core.policy.Policy`
    — ``propose()/observe()/done()/result()`` — as pure pointer walks, plus
    exact :meth:`undo` (free: the trail of visited nodes *is* the undo log).
    Sessions never touch the plan's state, so cursors from one shared plan
    can serve concurrent users.
    """

    __slots__ = ("_plan", "_node", "_trail")

    def __init__(self, plan) -> None:
        self._plan = plan
        self._node = ROOT
        #: ``(plan node id, answer)`` per observed answer, in order.
        self._trail: list[tuple[int, bool]] = []

    # ------------------------------------------------------------------
    # Interactive protocol
    # ------------------------------------------------------------------
    def done(self) -> bool:
        """True once the cursor sits on a leaf."""
        return self._plan._target_ix_of(self._node) >= 0

    def propose(self) -> Hashable:
        """The next query label (idempotent until :meth:`observe`)."""
        if self.done():
            raise PolicyError("search already finished; nothing to propose")
        return self._plan.hierarchy.label(self._plan._query_ix_of(self._node))

    def observe(self, answer: bool) -> None:
        """Follow the branch for the oracle's boolean answer."""
        if self.done():
            raise PolicyError("observe() after the search finished")
        answer = bool(answer)
        child = self._plan._child_of(self._node, answer, self._trail)
        if child == NO_PATH:
            query = self._plan.hierarchy.label(
                self._plan._query_ix_of(self._node)
            )
            raise SearchError(
                f"answer {answer} to {query!r} is inconsistent with every "
                "remaining target (is the oracle answering truthfully?)"
            )
        self._trail.append((self._node, answer))
        self._node = child

    def undo(self) -> None:
        """Exactly revert the most recent answer; its query becomes pending.

        O(1) and always available — unlike policy-level undo, no journaling
        has to be enabled, because the plan is immutable.
        """
        if not self._trail:
            raise PolicyError("undo() with no answers observed")
        self._node, _ = self._trail.pop()

    def result(self) -> Hashable:
        """The identified target label (valid once :meth:`done`)."""
        target = self._plan._target_ix_of(self._node)
        if target < 0:
            raise PolicyError("the search has not finished yet")
        return self._plan.hierarchy.label(target)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_queries(self) -> int:
        """Answers observed so far."""
        return len(self._trail)

    def transcript(self) -> tuple[tuple[Hashable, bool], ...]:
        """The ``(query label, answer)`` sequence observed so far."""
        label = self._plan.hierarchy.label
        return tuple(
            (label(self._plan._query_ix_of(node)), answer)
            for node, answer in self._trail
        )

    def __repr__(self) -> str:
        state = "done" if self.done() else f"at node {self._node}"
        return (
            f"SearchCursor({self._plan.name!r}, {self.num_queries} "
            f"answers, {state})"
        )
