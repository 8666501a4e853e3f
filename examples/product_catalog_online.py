"""Product categorization with an unknown distribution, learned on the fly.

The paper's Fig. 4 scenario as a user-facing workflow: a merchant must file
a stream of new products into an Amazon-like category tree, but has no prior
statistics.  The empirical distribution is learned from each finished label
and immediately drives the next search; the per-block average cost decays
towards the cost achievable with the true distribution.  (Internally each
object is served from the policy's current lazily-compiled plan, rebuilt
only when the learned distribution refreshes.)

Once the distribution has converged, the policy is compiled into an
immutable plan (`compile_policy`), persisted, and reloaded — the artifact a
labelling service ships.  The service itself is the session server
(:mod:`repro.serve`): product sessions arrive as a feed, are settled from
the shared plan's leaf table, and run behind admission control — a
bounded in-flight cap plus a bounded waiting queue, with typed rejection
once both are full, which this example triggers on purpose.

Run:  python examples/product_catalog_online.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import CompiledPlan, compile_policy
from repro.evaluation import evaluate_expected_cost
from repro.exceptions import AdmissionError
from repro.online import simulate_online_labeling
from repro.policies import GreedyTreePolicy, WigsPolicy
from repro.serve import Server, SessionRequest
from repro.taxonomy import amazon_catalog, amazon_like


def main() -> None:
    hierarchy = amazon_like(1000, seed=7)
    catalog = amazon_catalog(hierarchy, num_objects=60_000)
    truth = catalog.to_distribution()
    rng = np.random.default_rng(1)

    offline = evaluate_expected_cost(
        GreedyTreePolicy(), hierarchy, truth, max_targets=400, rng=rng
    ).expected_queries
    wigs = evaluate_expected_cost(
        WigsPolicy(), hierarchy, truth, max_targets=400, rng=rng
    ).expected_queries

    stream = catalog.stream(rng, max_objects=5_000)
    run = simulate_online_labeling(
        GreedyTreePolicy(),
        hierarchy,
        stream,
        block_size=500,
        refresh_every=10,
    )

    print(f"Catalog tree: {hierarchy.n} categories; labelling 5,000 products\n")
    print("  products   avg questions (online)   offline greedy   WIGS")
    for i, cost in enumerate(run.block_costs):
        print(
            f"  {(i + 1) * run.block_size:8d}   {cost:22.2f}   {offline:14.2f}"
            f"   {wigs:4.2f}"
        )
    print(
        "\nThe online policy approaches the true-distribution cost as the"
        "\nempirical statistics sharpen — no prior knowledge required."
    )

    # Ship the converged behaviour: compile once against the true
    # distribution, persist, reload — the serving artifact.
    plan = compile_policy(GreedyTreePolicy(), hierarchy, truth)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.plan"
        plan.save(path)
        served = CompiledPlan.load(path)
    print(
        f"\nCompiled plan: {served.num_questions} questions for "
        f"{hierarchy.n} categories (key {served.config_key[:12]}...)"
    )

    # The labelling service: a streaming server micro-batches every
    # concurrent session over the one shared plan.  A burst of 2,000
    # product sessions flows through a 256-session admission window.
    arrivals = catalog.stream(rng, max_objects=2_000)
    feed = (
        SessionRequest(i, target=category)
        for i, category in enumerate(arrivals)
    )
    with Server(served, max_sessions=256, queue_limit=512) as server:
        outcomes = list(server.serve(feed))
    ok = [o for o in outcomes if o.ok]
    print(
        f"\nServed {len(ok)} product sessions "
        f"(peak {server.stats.peak_in_flight} in flight, "
        f"{server.stats.steps} steps); "
        f"avg {sum(o.result.num_queries for o in ok) / len(ok):.2f} "
        "questions/product"
    )

    # Admission control end to end: a deliberately tiny service sheds the
    # overflow with a *typed* rejection instead of queueing unboundedly.
    with Server(served, max_sessions=4, queue_limit=8) as tiny:
        admitted = rejected = 0
        for i, category in enumerate(catalog.stream(rng, max_objects=50)):
            try:
                tiny.submit(SessionRequest(f"burst-{i}", target=category))
                admitted += 1
            except AdmissionError:
                rejected += 1  # back off / retry in a real producer
        finished = tiny.drain()
    print(
        f"Overload drill: {admitted} admitted, {rejected} rejected "
        f"(AdmissionError), {len(finished)} completed after the burst"
    )


if __name__ == "__main__":
    main()
