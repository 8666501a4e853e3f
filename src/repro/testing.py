"""Shared builders for tests and benchmarks.

These generators build the quick random hierarchies and distributions used
throughout the test suite and the benchmark drivers.  They live inside the
package (rather than in a ``conftest.py``) so that every consumer imports
them the same way — ``from repro.testing import make_random_tree`` — and no
directory-level ``conftest`` module can shadow another.  (The seed repo kept
them in ``tests/conftest.py``; running pytest from the repo root then
resolved ``from conftest import ...`` against ``benchmarks/conftest.py`` and
collection died before a single test ran.)

Not part of the public API proper, but stable enough for downstream test
suites to reuse.
"""

from __future__ import annotations

import numpy as np

from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.plan import compile_policy
from repro.policies.random_policy import RandomPolicy

__all__ = [
    "VEHICLE_EDGES",
    "VEHICLE_PROBS",
    "ForcedReplayPolicy",
    "make_random_dag",
    "make_random_tree",
    "random_distribution",
    "replay_compile",
    "vehicle_hierarchy",
    "vehicle_distribution",
]


class ForcedReplayPolicy(RandomPolicy):
    """A deterministic policy that *refuses* exact undo — for fallback tests.

    Every registry policy now journals exact answer reversal, so nothing in
    the registry exercises the engine's transcript-replay adapter or the
    prefix-replay compile walk anymore.  This seeded clone of
    :class:`~repro.policies.random_policy.RandomPolicy` keeps those paths
    honest: same decisions as ``RandomPolicy(seed)``, but
    ``supports_undo=False`` forces the engine to fall back to one
    ``run_search`` per target and the compiler to prefix replay.
    """

    name = "Random(replay)"
    supports_undo = False

    def _apply_answer(self, query, answer) -> None:
        self._cg.apply(query, answer)


def replay_compile(policy_cls, hierarchy, distribution=None, cost_model=None):
    """Compile ``policy_cls()`` by answer-prefix replay: the reference plan.

    A ``supports_undo = False`` subclass sends ``compile_policy`` down its
    prefix-replay walk, which needs nothing of the policy but determinism
    (one reset and replay per plan node).  Tests hold the undo walk's plans
    and the engine's results against it.
    """
    replaying = type(policy_cls.__name__, (policy_cls,), {"supports_undo": False})
    return compile_policy(replaying(), hierarchy, distribution, cost_model)

#: The paper's Fig. 1 vehicle hierarchy, used throughout the tests.
VEHICLE_EDGES = [
    ("Vehicle", "Car"),
    ("Car", "Nissan"),
    ("Car", "Honda"),
    ("Car", "Mercedes"),
    ("Nissan", "Maxima"),
    ("Nissan", "Sentra"),
]

#: The paper's Fig. 1 target probabilities (they sum to one exactly).
VEHICLE_PROBS = {
    "Vehicle": 0.04,
    "Car": 0.02,
    "Nissan": 0.08,
    "Honda": 0.04,
    "Mercedes": 0.02,
    "Maxima": 0.40,
    "Sentra": 0.40,
}


def vehicle_hierarchy() -> Hierarchy:
    """A fresh copy of the Fig. 1 vehicle hierarchy."""
    return Hierarchy(VEHICLE_EDGES)


def vehicle_distribution() -> TargetDistribution:
    """The Fig. 1 target distribution."""
    return TargetDistribution(VEHICLE_PROBS, normalize=False)


def make_random_tree(n: int, seed: int) -> Hierarchy:
    """A quick uniform-attachment tree for tests (not the tuned generator)."""
    gen = np.random.default_rng(seed)
    edges = [(f"t{int(gen.integers(0, i))}", f"t{i}") for i in range(1, n)]
    return Hierarchy(edges, nodes=["t0"])


def make_random_dag(n: int, seed: int, extra: int | None = None) -> Hierarchy:
    """A quick random DAG: uniform-attachment tree plus forward cross edges."""
    gen = np.random.default_rng(seed)
    edges = {(int(gen.integers(0, i)), i) for i in range(1, n)}
    extra = extra if extra is not None else max(1, n // 4)
    for _ in range(extra * 3):
        if len(edges) >= n - 1 + extra:
            break
        j = int(gen.integers(1, n))
        i = int(gen.integers(0, j))
        edges.add((i, j))
    return Hierarchy(
        [(f"d{u}", f"d{v}") for u, v in sorted(edges)], nodes=["d0"]
    )


def random_distribution(
    hierarchy: Hierarchy, seed: int, *, zeros: bool = False
) -> TargetDistribution:
    """A random positive (or partially zero) distribution for tests."""
    gen = np.random.default_rng(seed)
    values = gen.uniform(0.1, 1.0, size=hierarchy.n)
    if zeros:
        mask = gen.random(hierarchy.n) < 0.4
        if mask.all():
            mask[0] = False
        values[mask] = 0.0
    return TargetDistribution(dict(zip(hierarchy.nodes, values)))
