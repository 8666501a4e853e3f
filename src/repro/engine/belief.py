"""Batched noisy-oracle evaluation: the belief engine.

The exact engine answers *one* question per session against a truthful
crowd; the paper's Section VII asks what happens when the crowd is wrong
with some probability.  Studying that needs Monte-Carlo replication —
every sampled target re-searched R times under fresh noise — which the
per-session ``run_search`` loop makes painfully slow.  This module is the
vectorized mirror: all (target, replication, repeat) sessions advance one
question per step through a shared :class:`~repro.plan.CompiledPlan`, with
truth computed by :func:`~repro.engine.vector.make_answerer` and the flip
draws batched per session.

Three layers:

* :func:`make_belief_updater` — tree/matrix/csr-tagged kernels that
  multiply a dense posterior row-block over all candidate targets by
  ``P(answer | reach(q, z))`` under an :class:`~repro.core.ErrorRateModel`
  and renormalize — one vectorized op per question step for a whole
  cohort.  The reach masks come from
  :func:`~repro.engine.vector.make_reach_rows`; this module reads no
  reachability index itself.
* :func:`simulate_noisy` — the batched sweep: seeded flip draws, early-
  stopped majority voting, repeated-search plurality reduction, optional
  MAP/threshold stopping read off the posterior, with ``jobs=`` sharding
  or :class:`~repro.engine.pool.EvaluationPool` offload.  These noisy
  sweeps are the repo's only process-parallel evaluation; the exact
  engine (:mod:`repro.engine.driver`) runs in-process.
* :func:`reference_noisy` — the per-session oracle stack
  (``CountingOracle`` / ``MajorityVoteOracle`` / ``NoisyOracle``) driven
  through the same plan, one ``run_search`` at a time.  The property suite
  (``tests/test_belief.py``) pins the vectorized path against it.

Determinism contract (the house rule of ``tests/test_bit_identity.py``):
session ``s`` — flat index over the (target, replication, repeat) grid —
draws all its uniforms from ``default_rng(SeedSequence(seed,
spawn_key=(s,)))``, one uniform per *drawn* flip in question order,
exactly like a per-session :class:`~repro.core.NoisyOracle` holding that
generator.  Sessions never share a stream, so labels, query counts and
prices are bit-identical regardless of batch shape, ``jobs=``, ``pool=``,
or kernel ``kind``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import (
    CountingOracle,
    ErrorRateModel,
    Hierarchy,
    MajorityVoteOracle,
    QueryCostModel,
    TargetDistribution,
    UnitCost,
    default_budget,
    run_search,
)
from repro.core.oracle import Oracle
from repro.engine.vector import (
    _choose_kind,
    _tagged,
    is_vector_policy,
    make_answerer,
    make_reach_rows,
)
from repro.exceptions import BudgetExceededError, OracleError, SearchError
from repro.plan import (
    NO_PATH,
    CompiledPlan,
    as_plan_cache,
    compile_policy,
    get_default_cache,
)

#: Session outcome codes (``NoisyResult.run_outcomes``).
OUTCOME_LEAF = 0  #: reached a plan leaf; the label is the leaf's target
OUTCOME_MAP = 1  #: stopped early on posterior confidence (MAP label)
OUTCOME_DEAD_END = 2  #: a noisy answer led where no target is consistent
OUTCOME_BUDGET = 3  #: query budget exhausted before identification

#: Uniforms drawn per refill of a session's noise stream.  Chunked draws
#: from ``Generator.random(k)`` are bit-identical to k sequential scalar
#: draws, so the chunk size never shows in results.
_RNG_CHUNK = 64


def _as_error_model(error_model) -> ErrorRateModel:
    if isinstance(error_model, ErrorRateModel):
        return error_model
    if isinstance(error_model, (int, float)):
        return ErrorRateModel(rate=float(error_model))
    raise OracleError(
        f"error_model must be an ErrorRateModel or a flip probability, "
        f"got {error_model!r}"
    )


# ----------------------------------------------------------------------
# Posterior kernels
# ----------------------------------------------------------------------

#: A belief updater takes ``(posterior, queries, answers, rates)`` — a
#: ``(S, n)`` posterior row-block, per-session query indices, observed
#: boolean answers, and dense per-node flip rates — and returns the new
#: normalized posterior block.  The chosen kernel is exposed as ``.kind``.
BeliefUpdater = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray
]


def make_belief_updater(
    hierarchy: Hierarchy, num_sessions: int | None = None, *, kind: str | None = None
) -> BeliefUpdater:
    """A batched Bayes step over the posterior ``P(z | transcript)``.

    Given the answer ``a`` to a question on node ``q`` under flip rate
    ``r(q)``, the likelihood of candidate target ``z`` is ``1 - r(q)``
    when ``reach(q, z) == a`` and ``r(q)`` otherwise; the updater
    multiplies each session's posterior row by that likelihood and
    renormalizes.  Rows whose mass collapses to exactly zero (possible
    only when some rate is exactly 0 and an inconsistent answer arrives,
    e.g. under persistent noise) are left as zeros rather than divided.

    The ``(S, n)`` reachability mask comes from
    :func:`~repro.engine.vector.make_reach_rows`, whose kernel choice and
    ``kind`` override mirror :func:`~repro.engine.vector.make_splitter`
    (``tree`` / ``matrix`` / ``csr``); every kind computes the same mask,
    so posteriors are bit-identical across kinds.

    For persistent noise the independent-error product is an
    approximation (repeat visits to a flipped node are correlated); the
    engine uses it for MAP stopping only, never for exact-path semantics.
    """
    reach_rows = make_reach_rows(
        hierarchy,
        hierarchy.n if num_sessions is None else num_sessions,
        kind=kind,
    )

    def update(
        posterior: np.ndarray,
        queries: np.ndarray,
        answers: np.ndarray,
        rates: np.ndarray,
    ) -> np.ndarray:
        mask = reach_rows(queries)
        qrates = rates[queries][:, None]
        likelihood = np.where(
            mask == answers[:, None], 1.0 - qrates, qrates
        )
        updated = posterior * likelihood
        mass = updated.sum(axis=1, keepdims=True)
        alive = mass[:, 0] > 0.0
        updated[alive] /= mass[alive]
        return updated

    return _tagged(update, reach_rows.kind)


def posterior_from_transcript(
    hierarchy: Hierarchy,
    transcript,
    error_model,
    *,
    prior: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior over the target after a ``(node, answer)`` transcript.

    A convenience wrapper over :func:`make_belief_updater` for a single
    session (e.g. a :class:`~repro.core.SearchResult` transcript): starts
    from ``prior`` (uniform when omitted) and applies one Bayes step per
    transcript entry.  Returns a dense ``(n,)`` probability vector.
    """
    model = _as_error_model(error_model)
    rates = model.as_array(hierarchy)
    update = make_belief_updater(hierarchy, 1)
    if prior is None:
        posterior = np.full((1, hierarchy.n), 1.0 / hierarchy.n)
    else:
        posterior = np.asarray(prior, dtype=np.float64).reshape(1, -1).copy()
        posterior /= posterior.sum()
    for node, answer in transcript:
        queries = np.array([hierarchy.index(node)], dtype=np.int64)
        answers = np.array([bool(answer)])
        posterior = update(posterior, queries, answers, rates)
    return posterior[0]


# ----------------------------------------------------------------------
# The batched session machine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NoiseChunkSpec:
    """One picklable shard of the session grid (workers run these).

    ``flat_index`` holds the *global* session ids — each session's RNG is
    ``SeedSequence(seed, spawn_key=(flat,))`` no matter which shard it
    lands in, which is what makes sharding invisible in the results.
    """

    flat_index: np.ndarray
    target_ix: np.ndarray
    seed: int
    rates: np.ndarray
    persistent: bool
    votes: int
    budget: int
    price_vec: np.ndarray
    prior: np.ndarray
    map_threshold: float | None
    track_posterior: bool
    kind: str | None


class _NoiseStreams:
    """Per-session uniform streams with chunked, lazy refill.

    Each session owns the generator a per-session
    :class:`~repro.core.NoisyOracle` would hold; uniforms are pre-drawn in
    chunks (bit-identical to scalar draws) and consumed through cursors.
    Peeking ahead (for early-stopped votes) never consumes.
    """

    def __init__(self, seed: int, flat_index: np.ndarray) -> None:
        self._rngs = [
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(s),)))
            for s in flat_index
        ]
        count = len(self._rngs)
        self.cursor = np.zeros(count, dtype=np.int64)
        self._filled = np.zeros(count, dtype=np.int64)
        self._buf = np.empty((count, 0), dtype=np.float64)

    def ensure(self, sessions: np.ndarray, need: int) -> None:
        """Guarantee ``need`` un-consumed uniforms for every session given."""
        required = self.cursor[sessions] + need
        short = sessions[required > self._filled[sessions]]
        if short.size == 0:
            return
        width_needed = int((self.cursor[short] + need).max()) + _RNG_CHUNK
        if width_needed > self._buf.shape[1]:
            grown = np.empty(
                (self._buf.shape[0], max(width_needed, 2 * self._buf.shape[1])),
                dtype=np.float64,
            )
            grown[:, : self._buf.shape[1]] = self._buf
            self._buf = grown
        for s in short:
            start = int(self._filled[s])
            draw = max(int(self.cursor[s]) + need - start, _RNG_CHUNK)
            self._buf[s, start : start + draw] = self._rngs[s].random(draw)
            self._filled[s] = start + draw

    def peek(self, sessions: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` uniforms per session, without consuming."""
        self.ensure(sessions, count)
        columns = self.cursor[sessions, None] + np.arange(count)
        return self._buf[sessions[:, None], columns]

    def consume(self, sessions: np.ndarray, counts) -> None:
        self.cursor[sessions] += counts


def run_noise_chunk(
    plan: CompiledPlan, hierarchy: Hierarchy, spec: NoiseChunkSpec
) -> dict:
    """Advance one shard of noisy sessions to completion; returns arrays.

    This is the kernel both execution backends share: ``jobs=`` workers
    call it via a fork/spawn initializer, pool workers via the ``"noise"``
    task kind.  All sessions advance one question per step; truth comes
    from a batched :func:`~repro.engine.vector.make_answerer` kernel,
    flips from the per-session streams, and the optional posterior from
    :func:`make_belief_updater` (same forced ``kind``, so tracking never
    perturbs the walk).
    """
    count = len(spec.flat_index)
    votes = int(spec.votes)
    need_votes = votes // 2 + 1
    map_mode = spec.map_threshold is not None
    track = spec.track_posterior or map_mode

    plan_query = plan.query_ix
    plan_yes = plan.yes_child
    plan_no = plan.no_child
    plan_target = plan.target_ix

    answer_kernel = make_answerer(hierarchy, count, kind=spec.kind)
    update = make_belief_updater(hierarchy, count, kind=spec.kind) if track else None

    streams = _NoiseStreams(spec.seed, spec.flat_index)
    node = np.zeros(count, dtype=np.int64)
    depth = np.zeros(count, dtype=np.int64)
    vote_questions = np.zeros(count, dtype=np.int64)
    prices = np.zeros(count, dtype=np.float64)
    labels = np.full(count, -1, dtype=np.int64)
    outcomes = np.full(count, -1, dtype=np.int8)
    alive = np.ones(count, dtype=bool)

    posterior = np.tile(spec.prior, (count, 1)) if track else None
    if spec.persistent:
        capacity = 32
        asked = np.full((count, capacity), -1, dtype=np.int64)
        flip_history = np.zeros((count, capacity), dtype=bool)

    def settle(sessions: np.ndarray, outcome: int, with_label: bool) -> None:
        outcomes[sessions] = outcome
        if with_label and posterior is not None:
            labels[sessions] = posterior[sessions].argmax(axis=1)
        alive[sessions] = False

    while alive.any():
        act = np.flatnonzero(alive)

        # Leaves identify their target exactly — the plan's contract.
        leaf_target = plan_target[node[act]]
        at_leaf = leaf_target >= 0
        if at_leaf.any():
            done = act[at_leaf]
            labels[done] = leaf_target[at_leaf]
            outcomes[done] = OUTCOME_LEAF
            alive[done] = False
            act = act[~at_leaf]
        if act.size == 0:
            continue

        # Budget is checked before asking, like SessionRuntime.propose.
        over = depth[act] >= spec.budget
        if over.any():
            settle(act[over], OUTCOME_BUDGET, with_label=map_mode)
            act = act[~over]
        if act.size == 0:
            continue

        queries = plan_query[node[act]]
        truth = answer_kernel(queries, spec.target_ix[act])

        if spec.persistent:
            if int(depth[act].max()) >= asked.shape[1]:
                pad = np.full_like(asked, -1)
                asked = np.concatenate([asked, pad], axis=1)
                flip_history = np.concatenate(
                    [flip_history, np.zeros_like(flip_history)], axis=1
                )
            window = asked[act]
            seen = window == queries[:, None]
            revisit = seen.any(axis=1)
            first = seen.argmax(axis=1)
            flips = np.empty(len(act), dtype=bool)
            flips[revisit] = flip_history[act[revisit], first[revisit]]
            fresh = act[~revisit]
            if fresh.size:
                draws = streams.peek(fresh, 1)[:, 0]
                streams.consume(fresh, 1)
                flips[~revisit] = draws < spec.rates[queries[~revisit]]
            asked[act, depth[act]] = queries
            flip_history[act, depth[act]] = flips
            answers = truth ^ flips
            # A persistent crowd votes identically, so early-stopped
            # majority always settles after the minimal t + 1 agreeing
            # repetitions (1 when votes == 1).
            vote_questions[act] += need_votes
        else:
            draws = streams.peek(act, votes)
            vote_flips = draws < spec.rates[queries][:, None]
            vote_answers = truth[:, None] ^ vote_flips
            if votes == 1:
                asked_votes = np.ones(len(act), dtype=np.int64)
                answers = vote_answers[:, 0]
            else:
                yes_running = np.cumsum(vote_answers, axis=1)
                no_running = np.arange(1, votes + 1) - yes_running
                decided = (yes_running >= need_votes) | (no_running >= need_votes)
                asked_votes = decided.argmax(axis=1) + 1
                answers = (
                    yes_running[np.arange(len(act)), asked_votes - 1]
                    >= need_votes
                )
            streams.consume(act, asked_votes)
            vote_questions[act] += asked_votes

        prices[act] += spec.price_vec[queries]
        depth[act] += 1

        if track:
            posterior[act] = update(posterior[act], queries, answers, spec.rates)
            if map_mode:
                confident = posterior[act].max(axis=1) >= spec.map_threshold
                if confident.any():
                    settle(act[confident], OUTCOME_MAP, with_label=True)
                    act = act[~confident]
                    answers = answers[~confident]
                    if act.size == 0:
                        continue

        children = np.where(
            answers, plan_yes[node[act]], plan_no[node[act]]
        )
        dead = children == NO_PATH
        if dead.any():
            settle(act[dead], OUTCOME_DEAD_END, with_label=map_mode)
            act = act[~dead]
            children = children[~dead]
        node[act] = children

    return {
        "labels": labels,
        "questions": depth,
        "vote_questions": vote_questions,
        "prices": prices,
        "outcomes": outcomes,
        "posterior": posterior if spec.track_posterior else None,
    }


# ----------------------------------------------------------------------
# Execution backends
# ----------------------------------------------------------------------
_default_jobs: int | None = None


def set_default_jobs(jobs: int | None) -> None:
    """Install the process-wide default shard count (CLI ``--jobs``).

    ``None`` restores the sequential default; non-positive values mean
    "all cores" (resolved at call time).
    """
    global _default_jobs
    _default_jobs = None if jobs is None else int(jobs)


def get_default_jobs() -> int | None:
    """The installed default shard count, or ``None`` for sequential."""
    return _default_jobs


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``jobs`` argument to a concrete worker count (>= 1)."""
    if jobs is None:
        jobs = get_default_jobs()
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


_JOBS_STATE = None


def _init_noise_jobs(plan, hierarchy) -> None:
    global _JOBS_STATE
    _JOBS_STATE = (plan, hierarchy)


def _run_chunk_jobs(spec: NoiseChunkSpec) -> dict:
    plan, hierarchy = _JOBS_STATE
    return run_noise_chunk(plan, hierarchy, spec)


def _chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    """Contiguous, deterministic [start, stop) shards covering ``total``."""
    chunks = max(1, min(chunks, total))
    edges = np.linspace(0, total, chunks + 1, dtype=np.int64)
    return [
        (int(edges[i]), int(edges[i + 1]))
        for i in range(chunks)
        if edges[i + 1] > edges[i]
    ]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class NoisyResult:
    """Outcome of a noisy sweep over a (targets × replications) grid.

    Per-cell aggregates fold the ``repeats`` independent plan walks of
    each cell into one plurality-voted label (ties break on the larger
    ``str(label)``, matching
    :func:`repro.policies.robust.repeated_search_majority`) and *sum*
    their spend — failed runs keep their query spend, they just cast no
    vote.  ``labels == -1`` marks cells where every run failed.
    """

    policy: str
    error_model: ErrorRateModel
    target_ix: np.ndarray  #: (T,) sampled target indices, caller order
    votes: int
    repeats: int
    map_threshold: float | None
    labels: np.ndarray  #: (T, R) plurality-voted label indices, -1 = failed
    queries: np.ndarray  #: (T, R) questions asked, summed over repeats
    vote_queries: np.ndarray  #: (T, R) crowd votes asked (majority repetitions)
    prices: np.ndarray  #: (T, R) total price, summed over repeats
    run_labels: np.ndarray  #: (T, R, K) per-run labels, -1 = failed run
    run_outcomes: np.ndarray  #: (T, R, K) OUTCOME_* codes
    run_queries: np.ndarray  #: (T, R, K) per-run question counts
    method: str  #: "belief" (vectorized) or "reference" (per-session)
    posterior: np.ndarray | None = None  #: (T, R, K, n) when tracked

    @property
    def replications(self) -> int:
        return self.labels.shape[1]

    @property
    def num_sessions(self) -> int:
        return int(self.run_labels.size)

    @property
    def failed(self) -> np.ndarray:
        """(T, R) cells where all ``repeats`` runs failed."""
        return self.labels < 0

    @property
    def run_failures(self) -> np.ndarray:
        """(T, R) count of failed runs among the ``repeats``."""
        return (self.run_labels < 0).sum(axis=-1)

    def accuracy(self) -> float:
        """Fraction of (target, replication) cells labelled correctly."""
        return float(
            (self.labels == self.target_ix[:, None]).mean()
        )

    def mean_queries(self) -> float:
        """Mean questions per cell, failures included."""
        return float(self.queries.mean())

    def mean_vote_queries(self) -> float:
        """Mean crowd votes per cell (majority repetitions included)."""
        return float(self.vote_queries.mean())

    def mean_price(self) -> float:
        return float(self.prices.mean())


def _str_rank(hierarchy: Hierarchy) -> np.ndarray:
    """Rank of each node index under ascending ``str(label)`` order."""
    order = sorted(range(hierarchy.n), key=lambda ix: str(hierarchy.label(ix)))
    rank = np.empty(hierarchy.n, dtype=np.int64)
    rank[np.array(order, dtype=np.int64)] = np.arange(hierarchy.n)
    return rank


def _plurality(run_labels: np.ndarray, str_rank: np.ndarray, n: int) -> np.ndarray:
    """Vectorized plurality vote over the trailing (repeats) axis.

    Failed runs (label ``-1``) cast no vote; ties break on the larger
    ``str(label)`` — exactly ``max(votes.items(), key=lambda item:
    (item[1], str(item[0])))`` in the per-session reference.  All-failed
    cells reduce to ``-1``.
    """
    ok = run_labels >= 0
    same = (run_labels[..., :, None] == run_labels[..., None, :]) & ok[..., None, :]
    counts = same.sum(axis=-1)
    safe = np.where(ok, run_labels, 0)
    score = np.where(ok, counts * (n + 1) + str_rank[safe], -1)
    winner = score.argmax(axis=-1)
    chosen = np.take_along_axis(run_labels, winner[..., None], axis=-1)[..., 0]
    return np.where(ok.any(axis=-1), chosen, -1)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _resolve_noise_plan(
    policy,
    hierarchy: Hierarchy | None,
    distribution: TargetDistribution | None,
    cost_model: QueryCostModel | None,
    *,
    budget_hint: int | None,
    check_correctness: bool,
    plan_cache,
) -> tuple[CompiledPlan, Hierarchy, str]:
    """Normalise a policy-or-plan into one shared ``CompiledPlan``."""
    if isinstance(policy, CompiledPlan):
        plan = policy
        if hierarchy is None:
            hierarchy = plan.hierarchy
        elif (
            hierarchy is not plan.hierarchy
            and hierarchy.fingerprint() != plan.hierarchy.fingerprint()
        ):
            raise SearchError(
                "the given hierarchy does not match the plan's node "
                "indexing and edges"
            )
        return plan, hierarchy, plan.policy_name
    if hierarchy is None:
        raise SearchError("simulate_noisy needs a hierarchy for a policy")
    budget = default_budget(hierarchy, budget_hint)
    cache = as_plan_cache(plan_cache) or get_default_cache()
    if (
        cache is not None
        and is_vector_policy(policy)
        and getattr(policy, "plan_cacheable", True)
    ):
        plan = cache.get_or_compile(
            policy,
            hierarchy,
            distribution,
            cost_model,
            max_depth=budget,
            validate=check_correctness,
        )
    else:
        plan = compile_policy(
            policy,
            hierarchy,
            distribution,
            cost_model,
            max_depth=budget,
            validate=check_correctness,
        )
    return plan, hierarchy, plan.policy_name


def _session_grid(
    hierarchy: Hierarchy,
    targets,
    replications: int,
    repeats: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(T,) sampled target indices and (S,) per-session target indices.

    Unlike the exact engine, caller order and duplicates are preserved:
    Monte-Carlo samples legitimately repeat targets, and the flat session
    index — ``((t * R) + r) * K + j`` — is the seeding contract shared
    with :func:`reference_noisy`.
    """
    if targets is None:
        target_ix = np.arange(hierarchy.n, dtype=np.int64)
    else:
        targets = list(targets)
        if not targets:
            raise SearchError("no targets to simulate")
        target_ix = np.fromiter(
            (hierarchy.index(t) for t in targets),
            dtype=np.int64,
            count=len(targets),
        )
    session_targets = np.repeat(target_ix, replications * repeats)
    return target_ix, session_targets


def _validate_knobs(replications: int, repeats: int, votes: int) -> None:
    if replications < 1:
        raise SearchError(f"replications must be >= 1, got {replications}")
    if repeats < 1:
        raise SearchError(f"repeats must be >= 1, got {repeats}")
    if votes < 1 or votes % 2 == 0:
        raise OracleError(f"votes must be an odd positive count, got {votes}")


def _reduce_runs(
    hierarchy: Hierarchy,
    policy_label: str,
    error_model: ErrorRateModel,
    target_ix: np.ndarray,
    flat: dict,
    *,
    replications: int,
    repeats: int,
    votes: int,
    map_threshold: float | None,
    method: str,
) -> NoisyResult:
    shape = (len(target_ix), replications, repeats)
    run_labels = flat["labels"].reshape(shape)
    run_queries = flat["questions"].reshape(shape)
    run_votes = flat["vote_questions"].reshape(shape)
    run_prices = flat["prices"].reshape(shape)
    run_outcomes = flat["outcomes"].reshape(shape)
    posterior = flat.get("posterior")
    if posterior is not None:
        posterior = posterior.reshape(shape + (hierarchy.n,))
    labels = _plurality(run_labels, _str_rank(hierarchy), hierarchy.n)
    return NoisyResult(
        policy=policy_label,
        error_model=error_model,
        target_ix=target_ix,
        votes=votes,
        repeats=repeats,
        map_threshold=map_threshold,
        labels=labels,
        queries=run_queries.sum(axis=-1),
        vote_queries=run_votes.sum(axis=-1),
        prices=run_prices.sum(axis=-1),
        run_labels=run_labels,
        run_outcomes=run_outcomes,
        run_queries=run_queries,
        method=method,
        posterior=posterior,
    )


def simulate_noisy(
    policy,
    hierarchy: Hierarchy | None = None,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
    *,
    error_model,
    targets=None,
    replications: int = 1,
    seed: int = 0,
    votes: int = 1,
    repeats: int = 1,
    map_threshold: float | None = None,
    track_posterior: bool = False,
    max_queries: int | None = None,
    check_correctness: bool = True,
    plan_cache=None,
    jobs: int | None = None,
    pool=None,
    kind: str | None = None,
    batch_size: int | None = None,
) -> NoisyResult:
    """Vectorized Monte-Carlo evaluation of a policy under crowd noise.

    Runs ``replications`` independent noisy searches for every target
    (each further repeated ``repeats`` times when studying
    repeated-search majority), all through one compiled plan.

    Parameters
    ----------
    policy:
        A compilable policy or an already-compiled
        :class:`~repro.plan.CompiledPlan`.
    error_model:
        An :class:`~repro.core.ErrorRateModel` or a bare flip probability.
    targets:
        Node labels to evaluate (order and duplicates preserved);
        ``None`` sweeps every node once.
    votes:
        Odd majority-vote width per question (1 = no voting).  Voting
        early-stops once decided, exactly like
        :class:`~repro.core.MajorityVoteOracle`.
    repeats:
        Independent full searches per (target, replication) cell, folded
        by plurality vote — the batched
        :func:`~repro.policies.robust.repeated_search_majority`.
    map_threshold:
        When set, sessions also track the posterior and stop early once
        its maximum reaches the threshold (MAP label); dead ends and
        budget exhaustion then fall back to the MAP label instead of
        failing.  This mode is deliberately *not* bit-compatible with the
        per-session reference (which has no belief state).
    track_posterior:
        Keep the final per-run posteriors in the result without changing
        any walk decision.
    jobs, pool:
        Shard sessions over a per-call process pool / offload to a warm
        :class:`~repro.engine.pool.EvaluationPool`, with bit-identical
        output either way.  ``jobs=None`` uses the process default
        (:func:`set_default_jobs`, the CLI's ``--jobs``); ``pool=None``
        uses :func:`~repro.engine.pool.get_default_pool` (``--pool`` /
        ``REPRO_POOL_WORKERS``) unless an explicit ``jobs`` was given;
        ``pool=False`` disables pooling outright.
    kind:
        Force one answerer/updater kernel (see
        :data:`~repro.engine.vector.SPLITTER_KINDS`).
    batch_size:
        Sessions advanced per inline chunk (memory lever; results are
        chunk-shape-invariant).
    """
    from repro.engine.pool import resolve_pool

    _validate_knobs(replications, repeats, votes)
    model = _as_error_model(error_model)
    price_model = cost_model or UnitCost()
    plan, hierarchy, policy_label = _resolve_noise_plan(
        policy,
        hierarchy,
        distribution,
        price_model,
        budget_hint=max_queries,
        check_correctness=check_correctness,
        plan_cache=plan_cache,
    )
    budget = default_budget(hierarchy, max_queries)
    target_ix, session_targets = _session_grid(
        hierarchy, targets, replications, repeats
    )
    total = len(session_targets)

    rates = model.as_array(hierarchy)
    price_vec = price_model.as_array(hierarchy)
    if distribution is not None:
        prior = distribution.as_array(hierarchy)
        mass = prior.sum()
        prior = prior / mass if mass > 0 else np.full(hierarchy.n, 1.0 / hierarchy.n)
    else:
        prior = np.full(hierarchy.n, 1.0 / hierarchy.n)
    # Pin the kernel once for the whole grid so sharding can never flip
    # the heuristic choice mid-sweep.
    pinned_kind = kind if kind is not None else _choose_kind(hierarchy, total)

    def spec_for(start: int, stop: int) -> NoiseChunkSpec:
        return NoiseChunkSpec(
            flat_index=np.arange(start, stop, dtype=np.int64),
            target_ix=session_targets[start:stop],
            seed=int(seed),
            rates=rates,
            persistent=model.persistent,
            votes=votes,
            budget=budget,
            price_vec=price_vec,
            prior=prior,
            map_threshold=map_threshold,
            track_posterior=track_posterior,
            kind=pinned_kind,
        )

    track = track_posterior or map_threshold is not None
    flat = {
        "labels": np.full(total, -1, dtype=np.int64),
        "questions": np.zeros(total, dtype=np.int64),
        "vote_questions": np.zeros(total, dtype=np.int64),
        "prices": np.zeros(total, dtype=np.float64),
        "outcomes": np.full(total, -1, dtype=np.int8),
        "posterior": (
            np.zeros((total, hierarchy.n), dtype=np.float64)
            if track_posterior
            else None
        ),
    }

    def scatter(start: int, stop: int, payload: dict) -> None:
        for field in ("labels", "questions", "vote_questions", "prices", "outcomes"):
            flat[field][start:stop] = payload[field]
        if flat["posterior"] is not None:
            flat["posterior"][start:stop] = payload["posterior"]

    # An explicit jobs= opts out of the ambient default pool, so jobs=1
    # still means "sweep here" when REPRO_POOL_WORKERS is exported.
    if pool is None and jobs is not None:
        active_pool = None
    else:
        active_pool = resolve_pool(pool)
    if active_pool is not None and total > 1:
        bounds = _chunk_bounds(total, active_pool.workers * 2)
        payloads = active_pool.run_noise(
            plan, hierarchy, [spec_for(lo, hi) for lo, hi in bounds]
        )
        for (lo, hi), payload in zip(bounds, payloads):
            scatter(lo, hi, payload)
    else:
        workers = resolve_jobs(jobs)
        if workers > 1 and total > 1:
            bounds = _chunk_bounds(total, workers)
            ctx = (
                multiprocessing.get_context("fork")
                if "fork" in multiprocessing.get_all_start_methods()
                else multiprocessing.get_context()
            )
            with ProcessPoolExecutor(
                max_workers=len(bounds),
                mp_context=ctx,
                initializer=_init_noise_jobs,
                initargs=(plan, hierarchy),
            ) as executor:
                for (lo, hi), payload in zip(
                    bounds,
                    executor.map(_run_chunk_jobs, [spec_for(lo, hi) for lo, hi in bounds]),
                ):
                    scatter(lo, hi, payload)
        else:
            if batch_size is not None:
                step = max(1, int(batch_size))
            elif track:
                # Bound the dense (S, n) posterior block per chunk.
                step = max(1, 4_000_000 // max(hierarchy.n, 1))
            else:
                step = total
            for lo in range(0, total, step):
                hi = min(lo + step, total)
                scatter(lo, hi, run_noise_chunk(plan, hierarchy, spec_for(lo, hi)))

    return _reduce_runs(
        hierarchy,
        policy_label,
        model,
        target_ix,
        flat,
        replications=replications,
        repeats=repeats,
        votes=votes,
        map_threshold=map_threshold,
        method="belief",
    )


def reference_noisy(
    policy,
    hierarchy: Hierarchy | None = None,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
    *,
    error_model,
    targets=None,
    replications: int = 1,
    seed: int = 0,
    votes: int = 1,
    repeats: int = 1,
    max_queries: int | None = None,
    check_correctness: bool = True,
    plan_cache=None,
) -> NoisyResult:
    """The per-session reference: one oracle stack and ``run_search`` per
    session, same plan, same seeds, same accounting.

    This is the ground truth :func:`simulate_noisy` is property-tested
    against — session ``s`` builds ``default_rng(SeedSequence(seed,
    spawn_key=(s,)))`` and the stack ``CountingOracle(MajorityVoteOracle(
    CountingOracle(NoisyOracle(ExactOracle))))``, so every uniform is
    drawn by the same code paths the paper-facing experiments used before
    vectorization.  Failed runs (dead end or budget) report the spend
    their counters accumulated — the cost of noise includes the searches
    it ruins.
    """
    _validate_knobs(replications, repeats, votes)
    model = _as_error_model(error_model)
    price_model = cost_model or UnitCost()
    plan, hierarchy, policy_label = _resolve_noise_plan(
        policy,
        hierarchy,
        distribution,
        price_model,
        budget_hint=max_queries,
        check_correctness=check_correctness,
        plan_cache=plan_cache,
    )
    budget = default_budget(hierarchy, max_queries)
    target_ix, session_targets = _session_grid(
        hierarchy, targets, replications, repeats
    )
    total = len(session_targets)

    flat = {
        "labels": np.full(total, -1, dtype=np.int64),
        "questions": np.zeros(total, dtype=np.int64),
        "vote_questions": np.zeros(total, dtype=np.int64),
        "prices": np.zeros(total, dtype=np.float64),
        "outcomes": np.full(total, -1, dtype=np.int8),
    }
    for flat_ix in range(total):
        target = hierarchy.label(int(session_targets[flat_ix]))
        rng = np.random.default_rng(
            np.random.SeedSequence(int(seed), spawn_key=(flat_ix,))
        )
        noisy = model.make_oracle(hierarchy, target, rng)
        vote_counter = CountingOracle(noisy)
        voted: Oracle = (
            MajorityVoteOracle(vote_counter, votes=votes)
            if votes > 1
            else vote_counter
        )
        outer = CountingOracle(voted, price_model)
        try:
            result = run_search(plan, outer, hierarchy, max_queries=budget)
            flat["labels"][flat_ix] = hierarchy.index(result.returned)
            flat["outcomes"][flat_ix] = OUTCOME_LEAF
        except BudgetExceededError:
            flat["outcomes"][flat_ix] = OUTCOME_BUDGET
        except SearchError:
            flat["outcomes"][flat_ix] = OUTCOME_DEAD_END
        flat["questions"][flat_ix] = outer.num_queries
        flat["prices"][flat_ix] = outer.total_price
        flat["vote_questions"][flat_ix] = vote_counter.num_queries

    return _reduce_runs(
        hierarchy,
        policy_label,
        model,
        target_ix,
        flat,
        replications=replications,
        repeats=repeats,
        votes=votes,
        map_threshold=None,
        method="reference",
    )
