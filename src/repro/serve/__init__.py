"""The unified session runtime, the streaming serving layer, and the wire.

Three layers, one loop:

* :class:`SessionRuntime` — the single propose/observe/undo/done engine
  behind every interactive surface (``run_search``, the online labelling
  simulator, the console, and the server below).  One session, driven one
  protocol step at a time.

* :class:`Server` — many concurrent sessions grouped per shared
  :class:`~repro.plan.CompiledPlan`, behind admission control (in-flight
  cap, bounded queue, typed rejection) and per-tenant plan quotas.
  Target sessions settle from the plan's leaf table — at once through
  ``Server.settle``, or on the first step after admission; oracle-driven
  sessions step one question at a time.

* :class:`ServeTransport` / :class:`ServeClient` — the network edge:
  NDJSON frames over asyncio streams; each target ``open`` is settled by
  ``Server.settle`` as it is read, interactive sessions run at the
  transport; session stickiness by id, typed backpressure, graceful
  drain; the client side carries retries, per-request deadlines, and a
  per-backend circuit breaker.  :func:`run_load` drives it open-loop
  (seeded Poisson arrivals, think time, adversarial slow/abandoning
  clients) and reports per-question and per-session latency.

See the README's "Serving sessions at scale" and "Serving over the
network" sections for the workflow, and ``benchmarks/bench_serve.py``
for the throughput and latency acceptance gates.
"""

from repro.serve.loadgen import LoadProfile, LoadReport, run_load
from repro.serve.runtime import SessionRuntime
from repro.serve.server import (
    Server,
    ServerStats,
    SessionOutcome,
    SessionRequest,
)
from repro.serve.transport import (
    RemoteSession,
    ServeClient,
    ServeTransport,
    TransportStats,
)

__all__ = [
    "LoadProfile",
    "LoadReport",
    "RemoteSession",
    "ServeClient",
    "ServeTransport",
    "Server",
    "ServerStats",
    "SessionOutcome",
    "SessionRequest",
    "SessionRuntime",
    "TransportStats",
    "run_load",
]
