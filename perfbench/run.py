"""Run one benchmark workload (or all of them) and report its metrics.

    python3 perfbench/run.py --workload serve-target --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

Run from the root of a checkout; the program is imported from ``src/``.
Every round starts fresh processes with the program's ``REPRO_*``
environment stripped:

* ``paper-eval`` and ``online-dag`` run in one program process per round
  (``inproc.py``);
* ``serve-target`` and ``serve-interactive`` run a server process
  (``serve_host.py``) and a load generator process (``loadgen.py``),
  pinned to different CPUs when two are available.

An untraced run (``--trace 0``) makes several rounds, each with its own
set-up, and reports the end-to-end metrics.  A traced run (``--trace 1``)
makes one untraced and one traced round and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``README.md`` beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent

WORKLOADS = ("paper-eval", "online-dag", "serve-target", "serve-interactive")

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Latencies reported without a bound (see ``README.md``): (name, unit).
SESSION = (
    ("session.latency_p99_ms", "ms"),
    ("session.question_p50_ms", "ms"),
    ("session.question_p99_ms", "ms"),
)


def _per_layer_names():
    from tracing import POLICY_CLASSES, POLICY_METHODS

    names = [(name, unit, "lower") for name, unit in SESSION]
    for cls in POLICY_CLASSES:
        for method in POLICY_METHODS:
            names += [
                (f"policies.{cls}.{method}.calls", "count", "lower"),
                (f"policies.{cls}.{method}.self_s", "s", "lower"),
            ]
    names += [
        ("core.reach_weight_vector.calls", "count", "lower"),
        ("core.reach_weight_vector.self_s", "s", "lower"),
        ("plan.compile.calls", "count", "lower"),
        ("plan.compile.self_s", "s", "lower"),
        ("plan.compile.nodes", "count", "lower"),
        ("plan.lazy.plans", "count", "lower"),
        ("plan.lazy.expanded", "count", "lower"),
        ("plan.lazy.hit_share", "share", "higher"),
        ("engine.self_s", "s", "lower"),
        ("engine.decision_nodes", "count", "lower"),
        ("evaluation.self_s", "s", "lower"),
        ("online.learner.observe.calls", "count", "lower"),
        ("online.learner.observe.self_s", "s", "lower"),
        ("online.learner.snapshot.calls", "count", "lower"),
        ("online.learner.snapshot.self_s", "s", "lower"),
        ("serve.runtime.run_p50_ms", "ms", "lower"),
        ("serve.runtime.run_p99_ms", "ms", "lower"),
        ("serve.runtime.propose.self_s", "s", "lower"),
        ("serve.runtime.observe.self_s", "s", "lower"),
        ("serve.server.step.calls", "count", "lower"),
        ("serve.server.step.busy_s", "s", "lower"),
        ("serve.server.step.batch_mean", "count", "higher"),
        ("serve.server.step.gap_p50_ms", "ms", "lower"),
        ("serve.server.step.gap_p99_ms", "ms", "lower"),
        ("serve.server.stats.completed", "count", "higher"),
        ("serve.server.stats.errored", "count", "lower"),
        ("serve.server.stats.rejected", "count", "lower"),
        ("serve.server.stats.peak_in_flight", "count", "lower"),
        ("serve.transport.frames_in", "count", "lower"),
        ("serve.transport.frames_out", "count", "lower"),
        ("serve.transport.connections", "count", "lower"),
        ("serve.transport.rejected", "count", "lower"),
        ("serve.transport.protocol_errors", "count", "lower"),
        ("serve.transport.orphaned", "count", "lower"),
        ("serve.transport.slow_disconnects", "count", "lower"),
        ("serve.transport.loop_lag_p50_ms", "ms", "lower"),
        ("serve.transport.loop_lag_p99_ms", "ms", "lower"),
        ("process.cpu_per_wall", "s/s", "lower"),
        ("generator.late_p50_ms", "ms", "lower"),
        ("generator.late_p99_ms", "ms", "lower"),
        ("generator.cpu_per_wall", "s/s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.throughput_untraced", "1/s", "higher"),
        ("trace.throughput_traced", "1/s", "higher"),
        ("trace.overhead", "1/s", "higher"),
    ]
    return names


PER_LAYER = _per_layer_names()

#: A generator busier than this was the bottleneck: the run is invalid.
_GENERATOR_SATURATED = 0.95


class BenchError(Exception):
    """A round could not be run (crash, hang, missing program)."""


class _Runner:
    """Starts the rounds' processes and makes sure every one has ended."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.procs: list[subprocess.Popen] = []
        self.env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith(common.STRIPPED_ENV_PREFIX)
        }
        self.env["PYTHONPATH"] = str(common.SRC)
        self.env["PYTHONHASHSEED"] = "0"
        # Only the serving processes pin themselves: the in-process
        # workloads' BLAS threads need both cores, and children inherit
        # this process's affinity.
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            self.server_cpu, self.gen_cpu = cpus[0], cpus[1]
        else:
            self.server_cpu = self.gen_cpu = None
        common.OUT.mkdir(exist_ok=True)

    def start(self, script: str, *args) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *map(str, args)],
            stdout=subprocess.PIPE,
            env=self.env,
            cwd=common.ROOT,
            text=True,
        )
        self.procs.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen, timeout: float) -> dict:
        """Wait for ``proc`` and parse its last stdout line."""
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{proc.args[1]} did not finish") from None
        if proc.returncode != 0:
            raise BenchError(f"{proc.args[1]} exited {proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{proc.args[1]} printed nothing")
        return json.loads(lines[-1])

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    # ------------------------------------------------------------------
    def serve_setup(self) -> float:
        """A server process that only sets up; returns its ``setup_s``."""
        args = ["--setup-only"]
        if self.server_cpu is not None:
            args += ["--cpu", self.server_cpu]
        return self.finish(self.start("serve_host.py", *args), 120)["setup_s"]

    def inproc_round(self, workload, seconds, trace, index) -> dict:
        args = ["--workload", workload, "--seed", self.seed]
        args += ["--seconds", seconds, "--trace", trace]
        if trace:
            args += ["--spans-out", common.OUT / f"spans-{workload}.npz"]
        return self.finish(self.start("inproc.py", *args), seconds + 120)

    def serve_round(self, workload, seconds, trace, index) -> dict:
        tag = f"{workload}-{os.getpid()}-{index}"
        plan = common.OUT / f"plan-{tag}.pkl"
        args = ["--trace", trace, "--plan-out", plan]
        if self.server_cpu is not None:
            args += ["--cpu", self.server_cpu]
        if trace:
            args += ["--spans-out", common.OUT / f"spans-{workload}.npz"]
        server = self.start("serve_host.py", *args)
        line = server.stdout.readline()
        if not line:
            raise BenchError("serve_host.py exited during set-up")
        ready = json.loads(line)
        mode = "target" if workload == "serve-target" else "interactive"
        args = ["--mode", mode, "--port", ready["port"], "--plan", plan]
        args += ["--seed", self.seed, "--round", index, "--seconds", seconds]
        if self.gen_cpu is not None:
            args += ["--cpu", self.gen_cpu]
        gen = self.start("loadgen.py", *args)
        last = ""
        for line in gen.stdout:
            line = line.strip()
            if line == "MEASURE":
                server.send_signal(signal.SIGUSR1)
            elif line == "END":
                server.send_signal(signal.SIGUSR2)
            elif line:
                last = line
        if gen.wait(timeout=60) != 0 or not last:
            raise BenchError(f"loadgen.py exited {gen.returncode}")
        server.send_signal(signal.SIGTERM)
        report = self.finish(server, 60)
        plan.unlink(missing_ok=True)
        report["generator"] = json.loads(last)
        return report


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _inproc_summary(rounds: list[dict]) -> dict:
    # A slot's ops repeat fixed work (a Table III evaluation, one trace),
    # so the spread of their times is the host's, not the program's.  On a
    # shared 2-vCPU VM the host's speed switched between phases about 1.7x
    # apart for seconds at a time, which moves a median by the share of the
    # run spent slow; a slot's cost is therefore its fastest time over the
    # run's rounds.
    cycle = rounds[0]["cycle"]
    cost = [math.inf] * cycle
    for r in rounds:
        for op in r["ops"]:
            cost[op["slot"]] = min(cost[op["slot"]], op["s"])
    ops = [op for r in rounds for op in r["ops"]]
    return {
        "throughput": rounds[0]["units_per_op"] * cycle / sum(cost),
        "latency_p50_ms": common.median(cost) * 1e3,
        "throughput_n": len(ops),
        "latency_ms": [op["s"] * 1e3 for op in ops],
        "question_ms": [
            op["s"] * 1e3 / op["questions"] for op in ops if op["questions"]
        ],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "setup_s": [r["setup_s"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "cpu_per_wall": [r["cpu_per_wall"] for r in rounds],
        "invalid": [],
    }


def _server_failures(report: dict) -> int:
    server, transport = report["server_stats"], report["transport_stats"]
    return (
        server["errored"]
        + server["rejected"]
        + transport["rejected"]
        + transport["protocol_errors"]
        + transport["slow_disconnects"]
        + transport["orphaned"]
    )


def _windows(gen: dict) -> list[list]:
    """One round's measured sessions, split by completion time into
    windows of about ``WINDOW_S``; windows with too few sessions drop."""
    width = common.WINDOW_S
    count = max(1, round(gen["seconds"] / width))
    windows: list[list] = [[] for _ in range(count)]
    for session in gen["sessions"]:
        windows[min(int(session[0] / width), count - 1)].append(session)
    return [
        w for w in windows
        if len(w) >= common.WINDOW_MIN_SESSIONS and w[-1][0] > w[0][0]
    ]


def _serve_summary(rounds: list[dict]) -> dict:
    # The host's slow phases (see ``_inproc_summary``) last seconds and also
    # delay the wake-ups every frame waits for.  A serving run's figures are
    # therefore its best window over the rounds: the highest completion
    # rate (completions after a window's first, over the time from its first
    # to its last) and the lowest median session latency.
    gens = [r["generator"] for r in rounds]
    invalid = [
        f"generator CPU {g['cpu_per_wall']:.2f}" for g in gens
        if g["cpu_per_wall"] > _GENERATOR_SATURATED
    ]
    windows = [w for g in gens for w in _windows(g)]
    if not windows:
        raise BenchError("no window completed enough sessions to measure")
    if gens[0]["questions"]:  # interactive: measured per question
        question_ms = [ms for g in gens for _, ms in g["questions"]]
    else:  # target: a session's latency over its questions
        question_ms = [
            ms / max(queries, 1)
            for g in gens
            for _, ms, queries in g["sessions"]
        ]
    return {
        "throughput": max(
            (len(w) - 1) / (w[-1][0] - w[0][0]) for w in windows
        ),
        "latency_p50_ms": min(
            common.median([s[1] for s in w]) for w in windows
        ),
        "throughput_n": len(windows),
        "latency_ms": [ms for g in gens for _, ms, _ in g["sessions"]],
        "question_ms": question_ms,
        "attempted": sum(g["attempted"] for g in gens),
        "failed": sum(
            g["failed"] + _server_failures(r) for g, r in zip(gens, rounds)
        ),
        "setup_s": [r["setup_s"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "cpu_per_wall": [r["cpu_per_wall"] for r in rounds],
        "generator_cpu": [g["cpu_per_wall"] for g in gens],
        "late_ms": [x for g in gens for x in g["late_ms"]],
        "invalid": invalid,
    }


def _end_to_end(summary: dict) -> dict[str, float]:
    return {
        "throughput": summary["throughput"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "setup_s": common.median(summary["setup_s"]),
        "peak_rss_mb": common.median(summary["peak_rss_mb"]),
    }


def _session(summary: dict) -> dict[str, float]:
    """Percentiles over every sample of the rounds (no best window)."""
    latency, question = summary["latency_ms"], summary["question_ms"]
    return {
        "session.latency_p99_ms": common.percentile(latency, 99),
        "session.question_p50_ms": common.percentile(question, 50),
        "session.question_p99_ms": common.percentile(question, 99),
    }


def _counts(summary: dict) -> dict[str, int]:
    """The number of samples behind each metric."""
    latencies = len(summary["latency_ms"])
    questions = len(summary["question_ms"])
    return {
        "throughput": summary["throughput_n"],
        "latency_p50_ms": latencies,
        "setup_s": len(summary["setup_s"]),
        "peak_rss_mb": len(summary["peak_rss_mb"]),
        "session.latency_p99_ms": latencies,
        "session.question_p50_ms": questions,
        "session.question_p99_ms": questions,
    }


def run_workload(runner: _Runner, workload: str, seconds: float, trace: int):
    serving = workload.startswith("serve-")
    play = runner.serve_round if serving else runner.inproc_round
    summarize = _serve_summary if serving else _inproc_summary
    if not trace:
        count = common.SERVE_ROUNDS if serving else common.INPROC_ROUNDS
        rounds, setups = [], []
        for i in range(count):
            if serving:
                setups.append(runner.serve_setup())
            rounds.append(play(workload, seconds / count, 0, i))
        summary = summarize(rounds)
        summary["setup_s"] += setups
        values = _end_to_end(summary)
        units = dict(END_TO_END)
        unbounded = _session(summary)
        counts = _counts(summary)
    else:
        share = seconds / 2
        plain = summarize([play(workload, share, 0, 0)])
        traced_round = play(workload, share, 1, 1)
        traced = summarize([traced_round])
        summary = {
            key: plain[key] + traced[key]
            for key in ("attempted", "failed", "invalid")
        }
        values = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
        values.update(traced_round["per_layer"])
        values.update(_session(plain))
        if serving:
            gen = traced_round["generator"]
            values["generator.late_p50_ms"] = common.percentile(gen["late_ms"], 50)
            values["generator.late_p99_ms"] = common.percentile(gen["late_ms"], 99)
            values["generator.cpu_per_wall"] = gen["cpu_per_wall"]
        values["trace.throughput_untraced"] = plain["throughput"]
        values["trace.throughput_traced"] = traced["throughput"]
        values["trace.overhead"] = traced["throughput"] - plain["throughput"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        unbounded = {}
        counts = _counts(plain)
    _print_report(workload, summary, values, units, unbounded, counts, trace)
    return {
        "correct": summary["failed"] == 0 and not summary["invalid"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }


def _print_report(workload, summary, values, units, unbounded, counts, trace):
    print(f"== {workload} ({'traced' if trace else 'untraced'})")
    for name, unit in units.items():
        n = f"  n={counts[name]}" if name in counts else ""
        print(f"  {name:40s} {values[name]:14.6g} {unit}{n}")
    if unbounded:
        print("  no bound (per-layer metrics of a --trace 1 run):")
        for name, unit in SESSION:
            print(f"  {name:40s} {unbounded[name]:14.6g} {unit}  n={counts[name]}")
    if "cpu_per_wall" in summary:
        cpu = ", ".join(f"{x:.2f}" for x in summary["cpu_per_wall"])
        print(f"  program process CPU s per wall s: {cpu}")
    if "generator_cpu" in summary:
        cpu = ", ".join(f"{x:.2f}" for x in summary["generator_cpu"])
        late = summary["late_ms"]
        print(
            f"  generator CPU s per wall s: {cpu}; send lateness "
            f"p50 {common.percentile(late, 50):.3f} ms, "
            f"p99 {common.percentile(late, 99):.3f} ms"
        )
    for reason in summary["invalid"]:
        print(f"  INVALID: {reason}")
    print(f"  ops attempted {summary['attempted']}, failed {summary['failed']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {common.SRC}", file=sys.stderr)
        return 2

    def timeout(signum, frame):
        raise BenchError("the run exceeded its time limit")

    signal.signal(signal.SIGALRM, timeout)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    # A round's own timeouts are its share of the seconds plus 120 s; this
    # catches anything else that hangs, and scales with the run's length.
    signal.alarm(len(workloads) * int(130 + 2 * args.seconds))
    runner = _Runner(args.seed)
    try:
        results = {
            w: run_workload(runner, w, args.seconds, args.trace)
            for w in workloads
        }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        runner.close()
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
