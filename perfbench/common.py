"""Fixed workload parameters and helpers shared by the benchmark's processes.

Every process of a run (the orchestrator ``run.py``, the in-process
workload ``inproc.py``, the server host ``serve_host.py`` and the load
generator ``loadgen.py``) imports this module, so the parameters below are
the single record of what each workload runs.  The seed given on the
command line is the only input that varies between runs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs from (the parent of this folder).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources: the benchmark imports ``repro`` from here.
SRC = ROOT / "src"
#: Scratch output (plan files, span dumps), listed in ``.gitignore``.
OUT = ROOT / ".perfbench_out"

#: Ambient configuration the program reads from the environment.  Any of
#: these would change what a timed call does (a plan or result cache turns
#: a compile or walk into an ``np.load``, a pool shards it, the sanitizer,
#: fault and schedule hooks arm extra work), so every workload process runs
#: without them.
STRIPPED_ENV_PREFIX = "REPRO_"

# ----------------------------------------------------------------------
# Workload parameters
# ----------------------------------------------------------------------
#: Golden outputs exist for this many variants; ``--seed`` picks
#: ``seed % VARIANTS`` (the Monte-Carlo target sample of ``paper-eval``,
#: the stream shuffles of ``online-dag``).
VARIANTS = 16

#: ``paper-eval`` and ``online-dag`` use the SMALL preset's datasets at the
#: CLI's default dataset seed, so every run does the same amount of work.
DATASET_SEED = 0

#: ``online-dag``: objects per trace, reported block size, learner refresh
#: cadence, and the number of distinct traces.  A round labels each trace
#: equally often (whole cycles); four traces make a cycle of about 3 s, so
#: a round of ``seconds / INPROC_ROUNDS`` holds one cycle.
TRACE_OBJECTS = 400
TRACE_BLOCK = 100
TRACE_REFRESH = 10
TRACES = 4

#: ``serve-*``: the paper-size Amazon-like tree (Table II) with its
#: catalog, the tree seed ``build_datasets`` uses at seed 0.
SERVE_TREE_SEED = 7
#: ``serve-target``: closed-loop sessions kept outstanding per connection.
TARGET_OUTSTANDING = 64
#: ``serve-interactive``: open-loop Poisson arrival rate (sessions/s).
INTERACTIVE_RATE = 300.0
#: Connections the generator opens (both serving workloads).
CONNECTIONS = 2
#: Seconds of traffic before the measured window of a serving round.
SERVE_WARMUP_S = 1.0

#: Rounds per untraced run.  Each round is a fresh set of processes that
#: sets up once and measures ``seconds / rounds``; ``setup_s`` is the
#: median of the set-ups.  A set-up is one cold pass of 0.4-0.9 s, and the
#: host's speed phases moved single passes of the serving set-up between
#: 0.78 and 1.26 s back to back, so a median of three was unsteady: an
#: untraced serving run also starts a set-up-only server before each round
#: (six set-ups).  An in-process run sets up in each of its five rounds.
INPROC_ROUNDS = 5
SERVE_ROUNDS = 3

#: Span buffer cap of a traced process: an in-process round starts no new
#: op once it holds this many spans (about 32 bytes each).
MAX_SPANS = 1_000_000

#: Tumbling window of the serving metrics (seconds), and the fewest
#: sessions a window needs to count (300 complete per second on
#: ``serve-interactive``, thousands on ``serve-target``).
WINDOW_S = 1.0
WINDOW_MIN_SESSIONS = 20


def percentile(values, q: float) -> float:
    """``q``-th percentile with linear interpolation (``nan`` if empty)."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(values, q))


def median(values) -> float:
    return percentile(values, 50)


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process (MB).

    Read from ``VmHWM``: Linux carries ``ru_maxrss`` across ``fork`` and
    ``exec``, so a fresh child would report its parent's peak whenever that
    is larger (a parent holding earlier rounds' samples).
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to(cpu: int | None) -> None:
    """Pin the calling process (every thread it starts later) to one CPU."""
    if cpu is not None and cpu >= 0:
        os.sched_setaffinity(0, {cpu})


class CpuWindow:
    """CPU seconds per wall second of this process over a window."""

    def __init__(self) -> None:
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        self.wall1: float | None = None
        self.cpu1: float | None = None

    def stop(self) -> None:
        self.wall1 = time.perf_counter()
        self.cpu1 = time.process_time()

    @property
    def ratio(self) -> float:
        if self.wall1 is None:
            self.stop()
        wall = self.wall1 - self.wall0
        return (self.cpu1 - self.cpu0) / wall if wall > 0 else float("nan")


def emit(payload: dict) -> None:
    """Write one JSON line to stdout (how child processes report)."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
