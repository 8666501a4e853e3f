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
  MAP/threshold stopping read off the posterior.  ``jobs=N`` shards the
  sessions over a :class:`~concurrent.futures.ProcessPoolExecutor` that
  stays warm across sweeps of one plan (:func:`close_sweep_executor`
  shuts it down).  These noisy sweeps are the repo's only
  process-parallel evaluation; the exact engine
  (:mod:`repro.engine.driver`) runs in-process.
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
prices are bit-identical regardless of batch shape, ``jobs=``, or kernel
``kind``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis import sanitize
from repro.analysis.schedule import schedule_point
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
from repro.exceptions import (
    BudgetExceededError,
    OracleError,
    PoolError,
    PoolTimeoutError,
    ReproError,
    SearchError,
)
from repro.faults.resilience import RetryPolicy
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

    The kernel of every execution path: inline chunks call it directly,
    ``jobs=`` workers with the plan their initializer installed.  All
    sessions advance one question per step; truth comes from a batched
    :func:`~repro.engine.vector.make_answerer` kernel, flips from the
    per-session streams, and the optional posterior from
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
# Execution: inline chunks, or shards on the warm sweep executor
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


#: Posterior cells per chunk when a posterior is tracked: the dense
#: ``(sessions, n)`` float64 block stays near 32 MB whatever ``n`` is.
_POSTERIOR_CELLS = 4_000_000


def _chunk_step(
    total: int, n: int, batch_size: int | None, track: bool
) -> int:
    """Most sessions one chunk (inline) or shard (workers) may hold."""
    if batch_size is not None:
        return max(1, int(batch_size))
    if track:
        return max(1, _POSTERIOR_CELLS // max(n, 1))
    return max(1, total)


def _shard_bounds(
    total: int, step: int, workers: int = 1
) -> list[tuple[int, int]]:
    """Contiguous, deterministic [start, stop) shards covering ``total``.

    At least ``workers`` shards (when there are that many sessions), and
    enough of them that none holds more than ``step`` sessions.
    """
    chunks = max(1, min(max(-(-total // step), workers), total))
    edges = np.linspace(0, total, chunks + 1, dtype=np.int64)
    return [
        (int(edges[i]), int(edges[i + 1]))
        for i in range(chunks)
        if edges[i + 1] > edges[i]
    ]


_JOBS_STATE = None


def _init_noise_jobs(plan, hierarchy) -> None:
    global _JOBS_STATE
    _JOBS_STATE = (plan, hierarchy)


def _run_chunk_jobs(spec: NoiseChunkSpec) -> dict:
    plan, hierarchy = _JOBS_STATE
    return run_noise_chunk(plan, hierarchy, spec)


#: Seconds between result polls.  Each poll crosses the ``pool.collect``
#: boundary and checks the ``REPRO_POOL_DEADLINE`` no-progress bound.
_POLL_INTERVAL = 0.1

#: Executor rebuilds per sweep after worker deaths before giving up.
_MAX_RESPAWNS = 2

#: Pacing between rebuilds, so a repeatedly dying executor cannot
#: hot-loop through respawns.
_RECOVERY_RETRY = RetryPolicy(
    attempts=_MAX_RESPAWNS + 1, base_delay=0.05, seed=0x9E
)


@dataclass
class _WarmExecutor:
    """The executor kept alive across sweeps, and what it was built for."""

    executor: ProcessPoolExecutor
    plan: CompiledPlan
    workers: int
    start_method: str
    #: Every worker process this executor started, by pid.
    started: dict = field(default_factory=dict)
    #: Submitted futures that were not done when last checked.
    submitted: list = field(default_factory=list)

    def track(self, futures) -> None:
        self.submitted = [f for f in self.submitted if not f.done()]
        self.submitted.extend(futures)
        self.started.update(
            (p.pid, p) for p in _worker_processes(self.executor)
        )


_WARM: _WarmExecutor | None = None


def _worker_processes(executor: ProcessPoolExecutor) -> list:
    """The executor's worker processes, live or dead.

    Python 3.11 has no public accessor for them, so this is the one place
    that reads ``ProcessPoolExecutor._processes``.
    """
    return list((getattr(executor, "_processes", None) or {}).values())


def sweep_workers() -> list:
    """Worker processes of the warm sweep executor; empty when none runs.

    The fault layer's ``kill_worker`` and ``stall`` act on these.
    """
    warm = _WARM
    return [] if warm is None else _worker_processes(warm.executor)


def _start_method() -> str:
    method = os.environ.get("REPRO_POOL_START_METHOD") or None
    if method is None and "fork" in multiprocessing.get_all_start_methods():
        method = "fork"
    try:
        return multiprocessing.get_context(method).get_start_method()
    except ValueError as exc:
        raise PoolError(
            f"REPRO_POOL_START_METHOD={method!r} is not a start method: {exc}"
        ) from exc


def _sweep_deadline() -> float | None:
    raw = os.environ.get("REPRO_POOL_DEADLINE")
    if not raw:
        return None
    try:
        deadline = float(raw)
    except ValueError:
        deadline = 0.0
    if not deadline > 0:
        raise PoolError(
            f"REPRO_POOL_DEADLINE must be a positive number of seconds, "
            f"got {raw!r}"
        )
    return deadline


def _same_plan(a: CompiledPlan, b: CompiledPlan) -> bool:
    """Plans with a content key match by key, keyless plans by identity."""
    if a.config_key and b.config_key:
        return a.config_key == b.config_key
    return a is b


def _warm_executor(
    plan: CompiledPlan, hierarchy: Hierarchy, workers: int
) -> _WarmExecutor:
    """The warm executor for ``plan``, replacing one built for another.

    Workers receive the plan once, through the initializer: fork workers
    inherit it, spawn workers unpickle it at start.  An executor that
    lost a worker while idle is replaced too, before any shard is
    submitted to it.
    """
    global _WARM
    method = _start_method()
    warm = _WARM
    if (
        warm is not None
        and warm.workers == workers
        and warm.start_method == method
        and _same_plan(warm.plan, plan)
        and all(p.is_alive() for p in _worker_processes(warm.executor))
    ):
        return warm
    close_sweep_executor()
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_init_noise_jobs,
        initargs=(plan, hierarchy),
    )
    _WARM = _WarmExecutor(executor, plan, workers, method)
    return _WARM


def close_sweep_executor() -> None:
    """Shut the warm sweep executor down and reap every worker it started.

    Idempotent, and registered to run at interpreter exit (after the
    standard library's own exit hook, which lets running shards finish
    and stops idle workers).  The workers are killed first: shards are
    pure, so nothing is lost, and a clean shutdown can hang — a worker
    that died while idle may hold the call queue's read lock, which
    wedges its siblings, and a busy one holds the shutdown up.  With
    every worker dead, the executor fails what was in flight and drains
    its queues.  Under ``REPRO_SANITIZE=1`` a worker still alive
    afterwards raises :class:`~repro.exceptions.SanitizerError`.
    """
    global _WARM
    warm, _WARM = _WARM, None
    if warm is None:
        return
    warm.track(())
    for proc in warm.started.values():
        proc.kill()
    wait(warm.submitted)
    warm.executor.shutdown(wait=True, cancel_futures=True)
    sanitize.check_workers_exited(
        warm.started.values(), f"the sweep executor ({warm.workers} workers)"
    )


atexit.register(close_sweep_executor)


def _stall_workers(seconds: float) -> None:
    """Occupy every warm worker with a sleep (the fault layer's ``stall``)."""
    warm = _WARM
    if warm is None:
        return
    try:
        warm.track(
            [
                warm.executor.submit(time.sleep, float(seconds))
                for _ in range(warm.workers)
            ]
        )
    except (BrokenProcessPool, RuntimeError):
        pass  # broken or shut down: nothing left to wedge


def _run_on_workers(
    plan: CompiledPlan,
    hierarchy: Hierarchy,
    specs: list[NoiseChunkSpec],
    workers: int,
) -> list[dict]:
    """Run the shards on the warm executor; payloads in ``specs`` order.

    A worker death breaks the executor (:class:`BrokenProcessPool`),
    whether the worker died mid-sweep or while idle.  The executor is then
    rebuilt and only the unfinished shards are resubmitted — shards are
    pure, so a rerun carries identical data — at most
    :data:`_MAX_RESPAWNS` times before :class:`~repro.exceptions.PoolError`.
    """
    deadline = _sweep_deadline()
    payloads: list = [None] * len(specs)
    pending = set(range(len(specs)))
    rebuilds = 0
    while pending:
        try:
            warm = _warm_executor(plan, hierarchy, workers)
            futures = {
                warm.executor.submit(_run_chunk_jobs, specs[index]): index
                for index in sorted(pending)
            }
            warm.track(futures)
            _collect(futures, payloads, pending, deadline)
        except BrokenProcessPool as exc:
            rebuilds += 1
            if rebuilds > _MAX_RESPAWNS:
                close_sweep_executor()
                raise PoolError(
                    f"sweep workers died {rebuilds} times re-running "
                    f"{len(pending)} unfinished shard(s) "
                    f"{sorted(pending)[:8]}; giving up"
                ) from exc
            time.sleep(_RECOVERY_RETRY.delay_for(rebuilds - 1))  # repro: noqa RPA004 - bounded recovery backoff, not result data
            # Dropped before the fault point: a rebuild that fails there
            # leaves no broken executor behind for the next sweep.
            close_sweep_executor()
            schedule_point("pool.restart.rebuild")
        except OSError as exc:  # no pipe or process left for the workers
            close_sweep_executor()
            raise PoolError(
                f"cannot start {workers} sweep workers: {exc}"
            ) from exc
    return payloads


def _collect(
    futures: dict, payloads: list, pending: set, deadline: float | None
) -> None:
    """Wait for ``futures``, storing each payload and retiring its index.

    With a ``deadline``, that many seconds without a finished shard
    kill the workers and raise
    :class:`~repro.exceptions.PoolTimeoutError` — the case liveness cannot
    see, a wedged but alive worker.
    """
    waiting = set(futures)
    last_progress = time.monotonic()  # repro: noqa RPA004 - deadline bookkeeping, not result data
    try:
        while waiting:
            schedule_point("pool.collect")
            done, waiting = wait(
                waiting, timeout=_POLL_INTERVAL, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()  # repro: noqa RPA004 - deadline bookkeeping, not result data
            if done:
                last_progress = now
            elif deadline is not None and now - last_progress >= deadline:
                pids = sorted(p.pid for p in sweep_workers() if p.is_alive())
                close_sweep_executor()  # kills the wedged workers
                raise PoolTimeoutError(
                    f"sweep made no progress for {deadline:g}s with "
                    f"{len(waiting)} unfinished shard(s) "
                    f"{sorted(futures[f] for f in waiting)[:8]}; killed "
                    f"worker pids {pids}"
                )
            for future in done:
                index = futures[future]
                payloads[index] = _shard_result(future, index)
                pending.discard(index)
    finally:
        for future in waiting:
            future.cancel()


def _shard_result(future, index: int) -> dict:
    """A shard's payload; a worker's ``ReproError`` keeps its type."""
    try:
        return future.result()
    except (ReproError, BrokenProcessPool):
        raise
    except Exception as exc:
        raise PoolError(
            f"sweep worker failed on shard {index}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


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
    jobs:
        Worker processes to shard the sessions over (``1`` sweeps
        inline), with bit-identical output for every value.  ``None``
        uses the process default (:func:`set_default_jobs`, the CLI's
        ``--jobs``); non-positive means all cores.  The executor stays
        warm while later sweeps use the same plan and worker count, and
        is replaced when either changes.  ``REPRO_POOL_START_METHOD``
        picks its start method (``fork`` where available), and
        ``REPRO_POOL_DEADLINE`` bounds how long a sweep waits without a
        finished shard before it kills the workers and raises
        :class:`~repro.exceptions.PoolTimeoutError`.
    kind:
        Force one answerer/updater kernel (see
        :data:`~repro.engine.vector.SPLITTER_KINDS`).
    batch_size:
        Most sessions advanced together, inline or in one worker's shard
        (memory lever; results are chunk-shape-invariant).  By default a
        tracked posterior bounds it at ``4_000_000 // n`` sessions.
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

    workers = resolve_jobs(jobs) if total > 1 else 1
    step = _chunk_step(total, hierarchy.n, batch_size, track)
    bounds = _shard_bounds(total, step, workers)
    if workers > 1:
        payloads = _run_on_workers(
            plan, hierarchy, [spec_for(lo, hi) for lo, hi in bounds], workers
        )
    else:
        payloads = (
            run_noise_chunk(plan, hierarchy, spec_for(lo, hi))
            for lo, hi in bounds
        )
    for (lo, hi), payload in zip(bounds, payloads):
        scatter(lo, hi, payload)

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
