"""Span tracing around the program's public calls, for traced runs only.

Untraced runs never import this module.  A traced process installs
wrappers (:func:`install`) that replace public functions and methods of
the program with timed versions.  Each call records one span — name,
start, end, parent span and session id — into per-thread buffers held in
memory; :meth:`Tracer.dump` writes them out when the process ends, and
:meth:`Tracer.layer_metrics` turns them into per-layer numbers.  A span's
self time is its duration minus the durations of its direct children
(children of one span run on its thread, one after another, so they never
overlap).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

from common import percentile

#: Policy classes whose public methods are wrapped, keyed by table name.
POLICY_CLASSES = ("TopDown", "MIGS", "WIGS", "GreedyTree", "GreedyDAG")
POLICY_METHODS = ("reset", "propose", "observe", "undo")


class _Buffer:
    """One thread's spans, as parallel columns (about 32 bytes a span)."""

    __slots__ = ("name", "start", "end", "parent", "session", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.session = array("q")
        self.stack: list[int] = []


class Tracer:
    """Collects spans from wrapped calls while :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        #: Session (op) id stamped on spans opened from now on.
        self.session = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        #: Counts taken at the same boundaries as the spans.
        self.counters: Counter = Counter()
        #: The LazyPlan whose cursor the next SessionRuntime.run walks.
        self.current_lazy = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    @property
    def num_spans(self) -> int:
        return sum(len(buf.name) for buf in self._buffers)

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` counts."""
        nid = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            stack = buf.stack
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.session.append(tracer.session)
            buf.end.append(0.0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def spans(self) -> dict[str, np.ndarray]:
        """Every thread's spans merged, parents re-indexed globally."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "session")}
        offset = 0
        for buf in self._buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parent[parent >= 0] += offset
            cols["parent"].append(parent)
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            cols["session"].append(np.frombuffer(buf.session, dtype=np.int64))
            offset += len(buf.name)
        return {
            key: np.concatenate(parts) if parts else np.zeros(0)
            for key, parts in cols.items()
        }

    def dump(self, path) -> None:
        """Write the spans (and the name table) to ``path`` as ``.npz``."""
        spans = self.spans()
        np.savez(path, names=np.array(self.names), **spans)

    def layer_metrics(self, spans) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``total_s`` (totals)."""
        names = spans["name"].astype(np.int64)
        duration = spans["end"] - spans["start"]
        parent = spans["parent"].astype(np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        self_time = duration - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        total_s = np.bincount(names, weights=duration, minlength=k)
        return {
            name: {
                "calls": float(calls[i]),
                "self_s": float(self_s[i]),
                "total_s": float(total_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def pick(self, spans, name: str) -> np.ndarray:
        """Mask of the spans called ``name``."""
        return spans["name"] == self._ids.get(name, -1)


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (callers that did ``from x import f`` hold their own
    reference)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(tracer: Tracer, cls, method: str, name: str, after=None):
    setattr(cls, method, tracer.wrap(name, getattr(cls, method), after))


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the workloads cross."""
    from repro import policies
    from repro.core.hierarchy import Hierarchy
    from repro.engine import simulate_policies
    from repro.evaluation.comparison import compare_policies
    from repro.online.learner import EmpiricalLearner
    from repro.plan import LazyPlan, compile_policy
    from repro.serve.runtime import SessionRuntime
    from repro.serve.server import Server

    counters = tracer.counters

    # policies: public protocol methods of the classes the workloads build
    for cls in (
        policies.TopDownPolicy,
        policies.MigsPolicy,
        policies.WigsPolicy,
        policies.GreedyTreePolicy,
        policies.GreedyDagPolicy,
    ):
        for method in POLICY_METHODS:
            _wrap_method(
                tracer, cls, method, f"policies.{cls.name}.{method}"
            )

    # core
    _wrap_method(
        tracer, Hierarchy, "reach_weight_vector", "core.reach_weight_vector"
    )

    # plan: eager compile and lazy plans
    def compiled(args, plan) -> None:
        counters["plan.compile.nodes"] += plan.num_nodes

    _replace_everywhere(
        compile_policy, tracer.wrap("plan.compile", compile_policy, compiled)
    )

    def lazy_made(args, result) -> None:
        counters["plan.lazy.plans"] += 1

    _wrap_method(tracer, LazyPlan, "__init__", "plan.lazy.init", lazy_made)
    start = LazyPlan.start

    def lazy_start(self):
        tracer.current_lazy = self
        return start(self)

    LazyPlan.start = lazy_start

    # engine and evaluation
    def walked(args, results) -> None:
        counters["engine.decision_nodes"] += sum(
            r.decision_nodes for r in results
        )

    _replace_everywhere(
        simulate_policies,
        tracer.wrap("engine.simulate_policies", simulate_policies, walked),
    )
    _replace_everywhere(
        compare_policies,
        tracer.wrap("evaluation.compare_policies", compare_policies),
    )

    # online learner
    for method in ("observe", "snapshot"):
        _wrap_method(
            tracer, EmpiricalLearner, method, f"online.learner.{method}"
        )

    # serve.runtime: per-object runs, and the protocol steps under them
    for method in ("propose", "observe"):
        _wrap_method(
            tracer, SessionRuntime, method, f"serve.runtime.{method}"
        )
    traced_run = tracer.wrap("serve.runtime.run", SessionRuntime.run)

    def run(self, oracle):
        lazy = tracer.current_lazy
        before = lazy.num_expanded if lazy is not None else 0
        result = traced_run(self, oracle)
        if tracer.enabled and lazy is not None:
            grown = lazy.num_expanded - before
            counters["plan.lazy.objects"] += 1
            counters["plan.lazy.expanded"] += grown
            counters["plan.lazy.hits"] += grown == 0
        return result

    SessionRuntime.run = run

    # serve.server: vectorized steps
    def stepped(args, outcomes) -> None:
        counters["serve.server.step.sessions"] += len(outcomes)

    _wrap_method(tracer, Server, "step", "serve.server.step", stepped)


def per_layer(
    tracer: Tracer, ops: int, extra: dict[str, float] | None = None
) -> dict[str, float]:
    """The per-layer metrics of one traced program process.

    Counts and times are per op (the unit ``throughput`` counts: a Table III
    evaluation, a labelled object, a completed session).  Layers a process
    never crossed report zero.
    """
    spans = tracer.spans()
    layers = tracer.layer_metrics(spans)
    counters = tracer.counters
    per = 1.0 / ops if ops else 0.0

    def calls(name):
        return layers.get(name, {}).get("calls", 0.0) * per

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0) * per

    out: dict[str, float] = {}
    for cls in POLICY_CLASSES:
        for method in POLICY_METHODS:
            span = f"policies.{cls}.{method}"
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.self_s"] = self_s(span)
    out["core.reach_weight_vector.calls"] = calls("core.reach_weight_vector")
    out["core.reach_weight_vector.self_s"] = self_s("core.reach_weight_vector")
    out["plan.compile.calls"] = calls("plan.compile")
    out["plan.compile.self_s"] = self_s("plan.compile")
    out["plan.compile.nodes"] = counters["plan.compile.nodes"] * per
    out["plan.lazy.plans"] = counters["plan.lazy.plans"] * per
    objects = counters["plan.lazy.objects"]
    out["plan.lazy.expanded"] = (
        counters["plan.lazy.expanded"] / objects if objects else 0.0
    )
    out["plan.lazy.hit_share"] = (
        counters["plan.lazy.hits"] / objects if objects else 0.0
    )
    out["engine.self_s"] = self_s("engine.simulate_policies")
    out["engine.decision_nodes"] = counters["engine.decision_nodes"] * per
    out["evaluation.self_s"] = self_s("evaluation.compare_policies")
    for method in ("observe", "snapshot"):
        span = f"online.learner.{method}"
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_s"] = self_s(span)
    runs = tracer.pick(spans, "serve.runtime.run")
    runs = (spans["end"][runs] - spans["start"][runs]) * 1e3
    out["serve.runtime.run_p50_ms"] = percentile(runs, 50) if runs.size else 0.0
    out["serve.runtime.run_p99_ms"] = percentile(runs, 99) if runs.size else 0.0
    out["serve.runtime.propose.self_s"] = self_s("serve.runtime.propose")
    out["serve.runtime.observe.self_s"] = self_s("serve.runtime.observe")
    steps = layers.get("serve.server.step", {})
    out["serve.server.step.calls"] = calls("serve.server.step")
    out["serve.server.step.busy_s"] = steps.get("total_s", 0.0) * per
    out["serve.server.step.batch_mean"] = (
        counters["serve.server.step.sessions"] / steps["calls"]
        if steps.get("calls")
        else 0.0
    )
    steps_at = np.sort(spans["start"][tracer.pick(spans, "serve.server.step")])
    gaps = np.diff(steps_at) * 1e3
    out["serve.server.step.gap_p50_ms"] = (
        percentile(gaps, 50) if gaps.size else 0.0
    )
    out["serve.server.step.gap_p99_ms"] = (
        percentile(gaps, 99) if gaps.size else 0.0
    )
    out["trace.spans"] = float(len(spans["name"]))
    if extra:
        out.update(extra)
    return out
