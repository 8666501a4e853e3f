"""Persistent shared-memory evaluation pool for the batched noisy sweeps.

:func:`repro.engine.belief.simulate_noisy` can shard its session grid over
a per-call process pool (``jobs=``), but every such call pays to fork
fresh workers and ship the plan — overhead that dominates repeated sweeps
over one plan.  :class:`EvaluationPool` removes both costs:

* **Long-lived workers.**  The pool owns worker processes that survive
  across calls, fed through one shared task queue.  A sweep is submitted
  as a handful of session shards (:meth:`run_noise`), so the per-call cost
  is a few queue round-trips instead of a pool spin-up.

* **Shared-memory plans.**  :meth:`publish` copies a
  :class:`~repro.plan.CompiledPlan`'s flat arrays and a pickle of its
  hierarchy into one :mod:`multiprocessing.shared_memory` segment keyed
  by the plan's ``config_key``.  Workers attach lazily by key and rebuild
  the plan as zero-copy views over the mapped buffer (the plan
  constructor adopts contiguous int64 arrays without copying), so a plan
  crosses the process boundary once per worker no matter how many sweeps
  it serves.  The hierarchy pickle carries no caches: each worker builds
  the reachability index it needs once per attached plan.

* **Refcounted registry.**  Published segments live in a registry capped at
  ``max_plans``; publishing past the cap evicts the least-recently-used
  segment that is neither pinned (:meth:`publish` with ``pin=True`` /
  :meth:`release`) nor serving an active sweep, and unlinks it.  When
  every entry is held, :class:`~repro.exceptions.PoolError` is raised
  instead of silently unmapping a plan under a running worker.

* **Failure containment.**  Worker exceptions are shipped back and
  re-raised in the caller (domain errors like
  :class:`~repro.exceptions.OracleError` keep their type); a worker that
  dies mid-sweep is detected by liveness polling, the pool restarts, and
  the unfinished shards are resubmitted (shards are pure, duplicate
  results are dropped by task id) — after :data:`_MAX_RESPAWNS` failed
  rounds the call raises :class:`~repro.exceptions.PoolError` instead of
  hanging.  A per-call ``deadline`` turns a wedged-but-alive worker into
  :class:`~repro.exceptions.PoolTimeoutError`.  Corrupt segments surface
  as :class:`PoolError` without killing the pool.

The pool works under every start method: ``fork`` where available
(workers inherit the code base for free), otherwise ``spawn`` — workers
receive only the two queues and import everything else, and plans still
travel through shared memory, never the spawn pickle stream
(``REPRO_POOL_START_METHOD`` forces a method, which the spawn CI leg uses
on Linux).  Teardown is deterministic: pools are context managers, and an
``atexit`` hook closes anything left open so no ``/dev/shm`` segment
outlives the process (the test suite asserts this).

A process-wide default pool is installed with :func:`set_default_pool`
(the CLI's ``--pool`` flag) or sized by the ``REPRO_POOL_WORKERS``
environment variable; :func:`~repro.engine.belief.simulate_noisy` consults
:func:`get_default_pool` when no explicit ``pool`` is passed, and an
explicit ``jobs=`` argument opts a call out of the ambient default.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import queue as queue_mod
import time
import uuid
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.analysis import sanitize
from repro.analysis.schedule import schedule_point
from repro.exceptions import PoolError, PoolTimeoutError, ReproError
from repro.faults.resilience import RetryPolicy

#: Segment-name prefix; includes the owning pid so a leak check (and a
#: human inspecting ``/dev/shm``) can attribute segments to a process.
#: Deliberately terse: macOS caps shm names at 31 characters including
#: the leading slash, so ``rp_<pid>_<8 hex>`` must fit.
def _segment_prefix() -> str:
    return f"rp_{os.getpid()}_"


#: On-segment format tag checked by workers on attach.
_FORMAT = "repro-pool-segment-v1"

#: Block alignment inside a segment (int64 views need 8; 16 is cache-line
#: friendly and costs nothing).
_ALIGN = 16

#: Plans a single worker keeps attached before closing the oldest mapping.
_ATTACH_LIMIT = 4

#: Result-queue poll interval; between polls the parent checks worker
#: liveness so a dead worker is noticed within one interval.
_POLL_INTERVAL = 0.1

#: Respawn-and-resubmit rounds per collect before giving up.
_MAX_RESPAWNS = 2

#: Seconds a worker gets to exit voluntarily at close before termination.
_JOIN_TIMEOUT = 5.0

#: Worker-side segment-attach retries: a just-republished segment can be
#: observed mid-swap (name unlinked, successor not yet created), which a
#: short deterministic backoff absorbs without surfacing a transient
#: PoolError to the sweep.
_ATTACH_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.1, seed=0xA77)

#: Pacing between death-recovery rounds (restart + resubmit): backing off
#: keeps a repeatedly dying pool from hot-looping through respawns.
_RECOVERY_RETRY = RetryPolicy(attempts=_MAX_RESPAWNS + 1, base_delay=0.05, seed=0x9E)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


# ----------------------------------------------------------------------
# Segment layout: [8B meta length][pickled meta][aligned blocks]
#
# Block offsets in the meta are relative to the payload base
# (align(8 + meta length)), so the meta can be pickled before the final
# layout is known.
# ----------------------------------------------------------------------
def _pack_segment(plan, hierarchy, key: str, name: str) -> shared_memory.SharedMemory:
    """Create a shared segment holding the plan arrays and the hierarchy."""
    arrays = plan.payload_arrays()
    hier_blob = pickle.dumps(hierarchy, protocol=pickle.HIGHEST_PROTOCOL)

    offsets: dict[str, tuple[int, int]] = {}
    cursor = 0
    for block, arr in arrays.items():
        offsets[block] = (cursor, int(arr.size))
        cursor = _align(cursor + arr.nbytes)
    hier_off = cursor
    cursor = _align(cursor + len(hier_blob))

    meta = {
        "format": _FORMAT,
        "key": key,
        "policy_name": plan.policy_name,
        "plan_key": plan.config_key,
        "arrays": offsets,
        "hierarchy": (hier_off, len(hier_blob)),
    }
    meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    base = _align(8 + len(meta_blob))
    try:
        shm = shared_memory.SharedMemory(
            create=True, size=base + cursor, name=name
        )
    except OSError as exc:
        raise PoolError(
            f"cannot create shared plan segment {name!r} "
            f"({base + cursor} bytes): {exc}"
        ) from exc
    try:
        shm.buf[:8] = len(meta_blob).to_bytes(8, "little")
        shm.buf[8 : 8 + len(meta_blob)] = meta_blob
        for block, arr in arrays.items():
            off, count = offsets[block]
            view = np.frombuffer(
                shm.buf, dtype=np.int64, count=count, offset=base + off
            )
            view[:] = arr
            del view
        shm.buf[base + hier_off : base + hier_off + len(hier_blob)] = hier_blob
    except BaseException:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        raise
    return shm


def _attach_segment(seg_name: str, key: str):
    """Worker side: map a published segment into (plan, hierarchy, shm).

    The plan arrays are zero-copy views over the mapped buffer; only the
    (cache-free) hierarchy pickle is materialised per worker.  Raises :class:`PoolError` on any torn or foreign content —
    the error travels back to the caller, the worker survives.
    """
    from repro.plan import CompiledPlan

    schedule_point("pool.attach")
    # Note on the resource tracker: until 3.13 *attaching* a segment
    # registers it too.  Parent and workers share one tracker process
    # (its fd is inherited under fork and spawn alike) whose cache is a
    # set, so the duplicate registrations are idempotent and the parent's
    # eventual ``unlink()`` unregisters the name exactly once — workers
    # must NOT unregister, or they would erase the parent's registration.
    shm = None
    last_exc: Exception | None = None
    for pause in (*_ATTACH_RETRY.delays(), None):
        try:
            shm = shared_memory.SharedMemory(name=seg_name)
            break
        except (FileNotFoundError, OSError) as exc:
            last_exc = exc
            if pause is None:
                break
            time.sleep(pause)  # repro: noqa RPA004 - deterministic attach-retry backoff, not result data
    if shm is None:
        raise PoolError(
            f"shared plan segment {seg_name!r} is gone (evicted or never "
            f"published) after {_ATTACH_RETRY.attempts} attach attempts: "
            f"{last_exc}"
        ) from last_exc
    try:
        meta_len = int.from_bytes(bytes(shm.buf[:8]), "little")
        if not 0 < meta_len <= shm.size - 8:
            raise PoolError(
                f"shared segment {seg_name!r} has a torn header "
                f"(meta length {meta_len}, segment {shm.size} bytes)"
            )
        meta = pickle.loads(bytes(shm.buf[8 : 8 + meta_len]))
        if not isinstance(meta, dict) or meta.get("format") != _FORMAT:
            raise PoolError(
                f"shared segment {seg_name!r} is not a pool plan segment"
            )
        if meta.get("key") != key:
            raise PoolError(
                f"shared segment {seg_name!r} carries key "
                f"{str(meta.get('key'))[:12]!r}..., expected {key[:12]!r}..."
            )
        base = _align(8 + meta_len)
        hier_off, hier_len = meta["hierarchy"]
        hierarchy = pickle.loads(
            bytes(shm.buf[base + hier_off : base + hier_off + hier_len])
        )
        views = {}
        for block in ("query", "yes", "no", "target"):
            off, count = meta["arrays"][block]
            views[block] = np.frombuffer(
                shm.buf, dtype=np.int64, count=count, offset=base + off
            )
        plan = CompiledPlan(
            hierarchy,
            views["query"],
            views["yes"],
            views["no"],
            views["target"],
            policy_name=meta["policy_name"],
            config_key=meta["plan_key"],
        )
    except ReproError:
        shm.close()
        raise
    except BaseException as exc:
        shm.close()
        raise PoolError(
            f"corrupt shared plan segment {seg_name!r}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return plan, hierarchy, shm


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_attach(attached: dict, order: list, key: str, seg_name: str):
    """Per-worker attach cache, keyed by segment name (unique per publish).

    Bounded LRU: a republished key gets a new segment name, so stale
    mappings age out naturally; closing an evicted mapping returns its
    pages without touching the parent's registry.
    """
    entry = attached.get(seg_name)
    if entry is not None:
        order.remove(seg_name)
        order.append(seg_name)
        return entry[0], entry[1]
    plan, hierarchy, shm = _attach_segment(seg_name, key)
    attached[seg_name] = (plan, hierarchy, shm)
    order.append(seg_name)
    while len(order) > _ATTACH_LIMIT:
        old_plan, old_hier, old_shm = attached.pop(order.pop(0))
        del old_plan, old_hier
        try:
            old_shm.close()
        except BufferError:  # a view escaped; leak the handle, not the pool
            pass
    return plan, hierarchy


def _worker_main(tasks, results) -> None:
    """Long-lived worker loop: attach plans by key, run sweep shards.

    Module-level so the ``spawn`` start method can import it; receives only
    the two queues — everything else arrives via shared memory or inside
    task messages.
    """
    attached: dict[str, tuple] = {}
    order: list[str] = []
    try:
        _worker_loop(tasks, results, attached, order)
    finally:
        # Detach deterministically: drop the plan/hierarchy views *before*
        # closing each mapping, so interpreter-exit GC never tries to close
        # a buffer that still has exported pointers (a noisy BufferError).
        while order:
            plan, hierarchy, shm = attached.pop(order.pop())
            del plan, hierarchy
            try:
                shm.close()
            except BufferError:
                pass


def _worker_loop(tasks, results, attached, order):
    # Results carry the worker's pid so the parent can attribute errors
    # ("task 17 on worker pid 4242") and keep per-worker health counters.
    pid = os.getpid()
    while True:
        try:
            msg = tasks.get()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        kind, task_id = msg[0], msg[1]
        try:
            if kind == "noise":
                # One shard of a batched noisy sweep (repro.engine.belief).
                # Deterministic by construction: the spec carries global
                # session ids, and each session's seed derives from its id,
                # so any dealing of shards to workers is bit-identical.
                from repro.engine.belief import run_noise_chunk

                _, _, key, seg_name, spec = msg
                plan, hierarchy = _worker_attach(attached, order, key, seg_name)
                payload = run_noise_chunk(plan, hierarchy, spec)
                results.put((task_id, "ok", payload, pid))
            elif kind == "sleep":
                # Failure-injection aid for the test suite and the fault
                # layer's "stall" kind: occupies this worker so callers
                # can wedge or kill it mid-task deterministically.
                time.sleep(float(msg[2]))  # repro: noqa RPA004 - test-only stall task; never feeds results
                results.put((task_id, "ok", None, pid))
            else:
                raise PoolError(f"unknown pool task kind {kind!r}")
        except BaseException as exc:
            try:
                payload: object = pickle.dumps(exc)
            except Exception:
                payload = f"{type(exc).__name__}: {exc}"
            try:
                results.put((task_id, "error", payload, pid))
            except Exception:
                pass


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class WorkerHealth:
    """Heartbeat record for one pool worker, surfaced by ``pool.health()``.

    ``last_seen`` is the parent's monotonic clock at the worker's most
    recent result; ``None`` until the worker has produced one.
    """

    __slots__ = ("pid", "alive", "completed", "errors", "last_seen")

    def __init__(self, pid: int, alive: bool = True) -> None:
        self.pid = pid
        self.alive = alive
        self.completed = 0
        self.errors = 0
        self.last_seen: float | None = None

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (
            f"WorkerHealth(pid={self.pid}, {state}, "
            f"completed={self.completed}, errors={self.errors})"
        )


class _Segment:
    """Registry entry: one published plan and its lifecycle counters."""

    __slots__ = ("key", "shm", "pins", "active", "stamp", "anonymous")

    def __init__(self, key: str, shm, stamp: int, anonymous: bool) -> None:
        self.key = key
        self.shm = shm
        self.pins = 0     # explicit publish(pin=True) holds
        self.active = 0   # sweeps currently reading the segment
        self.stamp = stamp  # LRU clock
        self.anonymous = anonymous  # unkeyed plan: evict when the sweep ends


class EvaluationPool:
    """A persistent pool of evaluation workers sharing plans via shm.

    Parameters
    ----------
    workers:
        Worker processes to keep alive.  ``None`` or non-positive means all
        cores.  Workers start lazily on the first sweep.
    max_plans:
        Registry capacity: published segments beyond it evict the
        least-recently-used unpinned, inactive entry (and unlink its
        memory); when every entry is held, :class:`PoolError` is raised.
    start_method:
        ``multiprocessing`` start method for the workers.  ``None`` reads
        ``REPRO_POOL_START_METHOD``, then prefers ``fork`` where available
        (the no-fork fallback path is exercised by passing ``"spawn"``).
    deadline:
        Default per-call collection deadline in seconds for
        :meth:`run_noise` — :class:`~repro.exceptions.PoolTimeoutError`
        is raised when results stop arriving for that long with shards
        still outstanding, naming the wedged task ids and worker pids.
        ``None`` (the default, or ``REPRO_POOL_DEADLINE`` when set)
        preserves the historical wait-forever-on-a-live-worker behavior;
        liveness polling still recovers *dead* workers either way.

    Use as a context manager, or rely on the ``atexit`` hook — either way
    every worker is joined and every segment unlinked; no shared memory
    outlives the process.  One pool serves one thread at a time (the
    experiment drivers are single-threaded); it is not a thread-safe
    object.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        max_plans: int = 8,
        start_method: str | None = None,
        deadline: float | None = None,
    ) -> None:
        if workers is None or int(workers) <= 0:
            workers = max(1, os.cpu_count() or 1)
        self.workers = int(workers)
        if deadline is None:
            env_deadline = os.environ.get("REPRO_POOL_DEADLINE")
            deadline = float(env_deadline) if env_deadline else None
        if deadline is not None and deadline <= 0:
            raise PoolError(f"deadline must be positive, got {deadline}")
        self.deadline = deadline
        if max_plans < 1:
            raise PoolError(f"max_plans must be >= 1, got {max_plans}")
        self.max_plans = int(max_plans)
        if start_method is None:
            start_method = os.environ.get("REPRO_POOL_START_METHOD") or None
        if start_method is None and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = self._ctx.get_start_method()
        self._tasks = self._new_queue()
        self._results = self._new_queue()
        self._procs: list = []
        self._registry: dict[str, _Segment] = {}
        self._task_ids = itertools.count()
        self._stamps = itertools.count()
        #: Every segment name this pool ever created; close() asserts (under
        #: REPRO_SANITIZE=1) that none of them survives in /dev/shm.
        self._created_segments: set[str] = set()
        #: Per-worker heartbeat records, keyed by pid (see :meth:`health`).
        self._health: dict[int, WorkerHealth] = {}
        self._closed = False
        #: Sweeps served, workers respawned after a death, segments evicted.
        self.walks = 0
        self.respawns = 0
        self.evictions = 0
        _LIVE_POOLS.add(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _new_queue(self):
        """Build one task/result queue.

        A seam on purpose: the deterministic-schedule tests
        (``repro.analysis.schedule``) subclass the pool and return an
        in-process queue here, so pool logic runs under the virtual
        scheduler with no real child processes involved.
        """
        return self._ctx.Queue()

    def _ensure_started(self) -> None:
        if self._closed:
            raise PoolError("the evaluation pool is closed")
        while len(self._procs) < self.workers:
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        # Start the parent's resource tracker *before* the worker exists, so
        # the worker inherits its fd (fork and spawn both pass it down) and
        # worker-side attach registrations land in the parent's tracker —
        # idempotent against the parent's own registration, unregistered
        # exactly once by the parent's unlink.  Without this, a worker
        # forked before the first publish would lazily start a *private*
        # tracker that "cleans up" (unlinks!) still-published segments when
        # the worker exits.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._tasks, self._results),
            daemon=True,
            name=f"repro-pool-worker-{len(self._procs)}",
        )
        proc.start()
        self._procs.append(proc)
        pid = getattr(proc, "pid", None)
        if pid is not None and pid not in self._health:
            self._health[pid] = WorkerHealth(pid)

    def _restart(self) -> None:
        """Nuke-and-repave after a worker death: fresh queues, fresh workers.

        A worker killed while blocked in ``Queue.get()`` dies *holding the
        queue's shared read lock*, poisoning it for every survivor — so
        merely respawning the dead process can still hang the pool.  The
        only robust recovery is to terminate the survivors (they may be
        stuck on the poisoned lock already), rebuild both queues, and start
        a full set of fresh workers; the caller then resubmits every
        unfinished shard.  In-flight results are lost with the old queue,
        which is safe: their task ids are still pending and the rerun
        produces identical data (shards are pure).

        Both fresh queues are built before anything is torn down.  When
        that fails (``OSError``, e.g. out of file descriptors) the pool is
        left as it was, dead workers included, and :class:`PoolError`
        is raised; the next call's liveness check restarts again.
        """
        try:
            fresh = (self._new_queue(), self._new_queue())
        except OSError as exc:
            raise PoolError(
                f"cannot rebuild the pool's task/result queues: {exc}"
            ) from exc
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        self._procs = []
        for q in (self._tasks, self._results):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        # Installed before the fault point: a restart that fails here must
        # not leave the closed ones for the next _ensure_started().
        self._tasks, self._results = fresh
        schedule_point("pool.restart.rebuild")
        self.respawns += 1
        self._ensure_started()

    def close(self) -> None:
        """Stop every worker and unlink every published segment.

        Idempotent; also runs from the ``atexit`` hook for pools left open.
        """
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                try:
                    self._tasks.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + _JOIN_TIMEOUT  # repro: noqa RPA004 - teardown join budget, not result data
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))  # repro: noqa RPA004 - teardown join budget, not result data
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        self._procs = []
        for entry in self._registry.values():
            self._unlink(entry)
        self._registry.clear()
        for q in (self._tasks, self._results):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        _LIVE_POOLS.discard(self)
        sanitize.check_segments_released(
            self._created_segments, f"EvaluationPool({self.workers} workers)"
        )

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Worker health
    # ------------------------------------------------------------------
    def _note_result(self, pid, status: str) -> None:
        """Heartbeat bookkeeping for one received worker result."""
        if pid is None:
            return
        entry = self._health.get(pid)
        if entry is None:
            entry = self._health[pid] = WorkerHealth(pid)
        if status == "error":
            entry.errors += 1
        else:
            entry.completed += 1
        entry.last_seen = time.monotonic()  # repro: noqa RPA004 - heartbeat timestamp, not result data

    def health(self) -> list[WorkerHealth]:
        """Heartbeat records for the current worker set, sorted by pid.

        ``alive`` is refreshed from the process table on every call;
        counters survive across results but not across a pool
        :meth:`_restart` pid change (fresh workers get fresh records).
        """
        out = []
        for proc in self._procs:
            pid = getattr(proc, "pid", None)
            if pid is None:
                continue
            entry = self._health.get(pid)
            if entry is None:
                entry = self._health[pid] = WorkerHealth(pid)
            entry.alive = proc.is_alive()
            out.append(entry)
        out.sort(key=lambda e: e.pid)
        return out

    def _live_pids(self) -> list[int]:
        return sorted(
            proc.pid
            for proc in self._procs
            if getattr(proc, "pid", None) is not None and proc.is_alive()
        )

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self._procs)} live"
        return (
            f"EvaluationPool(workers={self.workers}, {self.start_method}, "
            f"{len(self._registry)} plan(s) published, {state})"
        )

    # ------------------------------------------------------------------
    # Plan registry
    # ------------------------------------------------------------------
    @staticmethod
    def _unlink(entry: _Segment) -> None:
        try:
            entry.shm.close()
        except BufferError:
            pass
        try:
            entry.shm.unlink()
        except FileNotFoundError:
            pass

    def _evict_one(self) -> None:
        schedule_point("pool.evict")
        victims = [
            e
            for e in self._registry.values()
            if e.pins == 0 and e.active == 0
        ]
        if not victims:
            raise PoolError(
                f"plan registry exhausted: all {len(self._registry)} "
                f"published plan(s) are pinned or serving active sweeps "
                f"(max_plans={self.max_plans}); release() one or raise "
                "max_plans"
            )
        victim = min(victims, key=lambda e: e.stamp)
        del self._registry[victim.key]
        self._unlink(victim)
        self.evictions += 1

    def publish(self, plan, hierarchy=None, *, pin: bool = False) -> str:
        """Publish a plan's arrays into shared memory; returns its key.

        Idempotent per ``config_key`` — republishing an already-resident
        plan only refreshes its LRU stamp.  ``hierarchy`` defaults to the
        plan's own; pass the caller's (fingerprint-equal) hierarchy to ship
        an already-built reachability block to the workers.  ``pin=True``
        protects the segment from LRU eviction until :meth:`release`.
        Plans without a content key (``plan_cacheable`` false policies)
        cannot be pinned — they have no stable identity to release later.
        """
        schedule_point("pool.publish")
        if self._closed:
            raise PoolError("the evaluation pool is closed")
        if hierarchy is None:
            hierarchy = plan.hierarchy
        key = plan.config_key
        if not key:
            if pin:
                raise PoolError(
                    f"plan of {plan.policy_name!r} has no content key; it "
                    "cannot be pinned in the pool registry"
                )
            key = f"anon:{uuid.uuid4().hex}"
        entry = self._registry.get(key)
        if entry is None:
            while len(self._registry) >= self.max_plans:
                self._evict_one()
            name = _segment_prefix() + uuid.uuid4().hex[:8]
            shm = _pack_segment(plan, hierarchy, key, name)
            self._created_segments.add(name)
            entry = _Segment(
                key, shm, next(self._stamps), anonymous=key.startswith("anon:")
            )
            self._registry[key] = entry
        else:
            entry.stamp = next(self._stamps)
        if pin:
            entry.pins += 1
        return key

    def release(self, key: str) -> None:
        """Drop one :meth:`publish(pin=True) <publish>` hold on ``key``."""
        schedule_point("pool.release")
        entry = self._registry.get(key)
        if entry is None or entry.pins <= 0:
            raise PoolError(f"plan {key[:12]!r}... is not pinned in this pool")
        entry.pins -= 1

    @property
    def published_keys(self) -> tuple[str, ...]:
        """Keys currently resident in the registry (oldest first)."""
        return tuple(
            e.key for e in sorted(self._registry.values(), key=lambda e: e.stamp)
        )

    def _acquire_for_walk(self, plan, hierarchy) -> tuple[str, str]:
        schedule_point("pool.acquire_for_walk")
        key = self.publish(plan, hierarchy)
        entry = self._registry[key]
        entry.active += 1
        entry.stamp = next(self._stamps)
        return key, entry.shm.name

    def _release_after_walk(self, key: str) -> None:
        schedule_point("pool.release_after_walk")
        entry = self._registry.get(key)
        if entry is None:
            return
        entry.active -= 1
        if entry.anonymous and entry.active <= 0:
            del self._registry[key]
            self._unlink(entry)

    # ------------------------------------------------------------------
    # Noisy sweeps
    # ------------------------------------------------------------------
    def run_noise(
        self, plan, hierarchy, specs, *, deadline: float | None = None
    ) -> list:
        """Fan a batched noisy sweep's shards over the warm workers.

        Each spec is a :class:`repro.engine.belief.NoiseChunkSpec`;
        returns the per-shard payload dicts in spec order.  The plan and
        hierarchy are published once (shared memory), so repeated sweeps
        over one plan never re-pickle it; a worker death restarts the
        pool and resubmits the unfinished shards — shards are pure, so
        duplicates are dropped by task id.  ``deadline`` overrides the
        pool's default collection deadline for this call.
        """
        self._ensure_started()
        specs = list(specs)
        payloads: list = [None] * len(specs)
        pending: dict[int, tuple] = {}
        handlers: dict[int, object] = {}
        key = None
        try:
            key, seg_name = self._acquire_for_walk(plan, hierarchy)
            for index, spec in enumerate(specs):
                task_id = next(self._task_ids)
                msg = ("noise", task_id, key, seg_name, spec)
                pending[task_id] = msg

                def keep(payload, index=index):
                    payloads[index] = payload

                handlers[task_id] = keep
                self._tasks.put(msg)
            self._collect(
                pending,
                handlers,
                deadline=self.deadline if deadline is None else deadline,
            )
            self.walks += 1
        finally:
            if key is not None:
                self._release_after_walk(key)
        return payloads

    def _collect(
        self, pending: dict, handlers: dict, *, deadline: float | None = None
    ) -> None:
        """Drain results for ``pending``; survive worker deaths.

        A result for an unknown task id is a stale duplicate (a resubmitted
        shard finished twice, or a previous failed call's leftovers) and
        is dropped — shards are pure, so duplicates carry identical data.

        ``deadline`` bounds the *no-progress* wait: liveness polling only
        detects workers that died, so a wedged-but-alive worker (stuck in
        a syscall, livelocked, maliciously slow) used to hang the caller
        forever.  With a deadline, ``deadline`` seconds without a single
        result raises :class:`~repro.exceptions.PoolTimeoutError` naming
        the unfinished task ids and the live worker pids.
        """
        respawn_rounds = 0
        last_progress = time.monotonic()  # repro: noqa RPA004 - deadline bookkeeping, not result data
        while pending:
            schedule_point("pool.collect")
            try:
                task_id, status, payload, pid = self._results.get(
                    timeout=_POLL_INTERVAL
                )
            except queue_mod.Empty:
                if (
                    deadline is not None
                    and time.monotonic() - last_progress >= deadline  # repro: noqa RPA004 - deadline bookkeeping, not result data
                ):
                    raise PoolTimeoutError(
                        f"pool made no progress for {deadline:g}s with "
                        f"{len(pending)} unfinished shard(s) "
                        f"(tasks {sorted(pending)[:8]}); live worker pids "
                        f"{self._live_pids()}"
                    )
                if all(proc.is_alive() for proc in self._procs):
                    continue
                respawn_rounds += 1
                if respawn_rounds > _MAX_RESPAWNS:
                    raise PoolError(
                        f"pool workers died {respawn_rounds} times re-running "
                        f"{len(pending)} unfinished shard(s) "
                        f"(tasks {sorted(pending)[:8]}); giving up"
                    )
                # Any death forces a full restart (see _restart: a kill can
                # poison the shared queue locks); then resubmit every
                # unfinished shard — duplicates are dropped by task id.
                # Backing off between rounds keeps a repeatedly dying
                # pool from hot-looping.
                time.sleep(_RECOVERY_RETRY.delay_for(respawn_rounds - 1))  # repro: noqa RPA004 - bounded recovery backoff, not result data
                self._restart()
                for msg in pending.values():
                    self._tasks.put(msg)
                continue
            self._note_result(pid, status)
            last_progress = time.monotonic()  # repro: noqa RPA004 - deadline bookkeeping, not result data
            if task_id not in pending:
                continue
            del pending[task_id]
            if status == "ok":
                handlers[task_id](payload)
            elif status == "error":
                raise self._as_exception(payload, task_id=task_id, pid=pid)
            else:
                raise PoolError(
                    f"unknown result status {status!r} from worker "
                    f"(task {task_id}, worker pid {pid})"
                )

    @staticmethod
    def _as_exception(payload, *, task_id=None, pid=None) -> BaseException:
        # Context names the task and worker for diagnosability; domain
        # errors keep their type *and* message (inline parity), so only the
        # PoolError wrappers carry it.
        context = ""
        if task_id is not None:
            context = f" (task {task_id}"
            context += f", worker pid {pid})" if pid is not None else ")"
        if isinstance(payload, bytes):
            try:
                exc = pickle.loads(payload)
            except Exception:
                return PoolError(
                    f"pool worker failed with an unpicklable error{context}"
                )
            if isinstance(exc, BaseException):
                if isinstance(exc, ReproError):
                    return exc  # domain errors keep their type (parity)
                return PoolError(
                    f"pool worker failed{context}: {type(exc).__name__}: {exc}"
                )
        return PoolError(f"pool worker failed{context}: {payload}")

    # ------------------------------------------------------------------
    # Failure-injection hooks (tests)
    # ------------------------------------------------------------------
    def _inject_sleep(self, seconds: float) -> int:
        """Occupy one worker with a sleep task (no result is awaited)."""
        self._ensure_started()
        task_id = next(self._task_ids)
        self._tasks.put(("sleep", task_id, float(seconds)))
        return task_id


# ----------------------------------------------------------------------
# Process-wide default pool and teardown
# ----------------------------------------------------------------------
_LIVE_POOLS: "weakref.WeakSet[EvaluationPool]" = weakref.WeakSet()

_UNSET = object()
_default_pool: EvaluationPool | None | object = _UNSET


def set_default_pool(pool: EvaluationPool | None) -> None:
    """Install the process-wide default pool (CLI ``--pool``).

    ``None`` clears the default (without closing a previously installed
    pool — its owner does that, or the ``atexit`` hook will).
    """
    global _default_pool
    _default_pool = pool


def get_default_pool() -> EvaluationPool | None:
    """The installed default, lazily sized by ``REPRO_POOL_WORKERS``.

    Returns ``None`` when neither :func:`set_default_pool` nor the
    environment variable configured one — noisy sweeps then run in-process
    (or through the per-call ``jobs=`` pool).
    """
    global _default_pool
    if _default_pool is _UNSET:
        workers = os.environ.get("REPRO_POOL_WORKERS")
        _default_pool = EvaluationPool(int(workers)) if workers else None
    if (
        _default_pool is not None
        and isinstance(_default_pool, EvaluationPool)
        and _default_pool.closed
    ):
        _default_pool = None
    return _default_pool  # type: ignore[return-value]


def resolve_pool(pool) -> EvaluationPool | None:
    """Coerce the engine's ``pool`` argument into a pool or ``None``.

    ``False`` disables pooling outright (ignoring the process default) —
    timing callers use it exactly like ``result_cache=False``.
    """
    if pool is False or pool is None:
        return get_default_pool() if pool is None else None
    return pool


@atexit.register
def _close_all_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass
