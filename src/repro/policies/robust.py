"""Noise-hardened search strategies (the paper's future-work direction).

Section VII flags crowd noise — including *persistent* noise — as the open
challenge for IGS.  This module provides the two standard mitigations so the
reproduction can quantify them (see ``examples/noisy_crowd.py`` and the
``noise`` experiment):

* **Per-question redundancy** — wrap the oracle in
  :class:`~repro.core.oracle.MajorityVoteOracle` (ask each question to up
  to ``2t + 1`` workers, early-stopping once decided).  Effective against
  transient noise, useless against persistent noise, and multiplies the
  query bill by the vote count.
* **Per-search redundancy** — :func:`repeated_search_majority` runs the whole
  interactive search ``r`` times and returns the plurality label.  Because
  each run asks different question sequences once earlier answers diverge,
  this also resists *some* persistent noise: a consistently wrong answer on
  one node only corrupts runs that happen to ask that node.

Both strategies also exist in batched form: the belief engine
(:mod:`repro.engine.belief`) evaluates them for whole Monte-Carlo grids in
a few vectorized plan walks — :func:`batched_repeated_search_majority` is
the drop-in bridge from this module.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable

from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.oracle import CountingOracle, Oracle
from repro.core.policy import Policy
from repro.core.session import run_search
from repro.exceptions import SearchError


def repeated_search_majority(
    policy: Policy,
    oracle_factory: Callable[[], Oracle],
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None = None,
    *,
    repeats: int = 3,
    max_queries_per_run: int | None = None,
) -> tuple[Hashable, int]:
    """Run the search ``repeats`` times and return the plurality answer.

    Parameters
    ----------
    oracle_factory:
        Builds a fresh oracle per run (fresh noise draws); a shared oracle
        would replay identical transient noise and defeat the redundancy.
    repeats:
        Number of independent runs (odd values avoid ties).

    Returns
    -------
    (label, total_queries):
        The plurality label over the completed runs and the total number of
        questions spent across all runs — *including* runs that dead-ended
        (noise emptied the candidate set or blew the budget): those
        questions were asked and paid for, they just cast no vote.  If
        every run dead-ends a :class:`SearchError` is raised.
    """
    if repeats < 1:
        raise SearchError(f"repeats must be >= 1, got {repeats}")
    votes: Counter = Counter()
    total_queries = 0
    failures = 0
    for _ in range(repeats):
        # The counter sits outside whatever the factory built (possibly a
        # majority-vote wrapper), so a failed run's spend is recovered at
        # the same per-question granularity ``result.num_queries`` uses.
        oracle = CountingOracle(oracle_factory())
        try:
            result = run_search(
                policy,
                oracle,
                hierarchy,
                distribution,
                max_queries=max_queries_per_run,
            )
        except SearchError:
            failures += 1
            total_queries += oracle.num_queries
            continue
        votes[result.returned] += 1
        total_queries += result.num_queries
    if not votes:
        raise SearchError(
            f"all {failures} search runs dead-ended under oracle noise"
        )
    label, _ = max(votes.items(), key=lambda item: (item[1], str(item[0])))
    return label, total_queries


def batched_repeated_search_majority(
    policy,
    hierarchy: Hierarchy,
    error_model,
    distribution: TargetDistribution | None = None,
    *,
    targets=None,
    replications: int = 1,
    repeats: int = 3,
    seed: int = 0,
    max_queries_per_run: int | None = None,
    **engine_kwargs,
):
    """Vectorized :func:`repeated_search_majority` over a whole target grid.

    Delegates to :func:`repro.engine.belief.simulate_noisy` — all
    ``repeats`` runs of all (target, replication) cells advance through one
    compiled plan, and one vectorized plurality reduce (same
    count-then-``str(label)`` tie-break as the loop above) folds them.
    Returns the :class:`~repro.engine.belief.NoisyResult`; cells whose runs
    all failed carry label ``-1`` instead of raising, so a sweep never
    aborts on one unlucky cell.  Extra keyword arguments (``jobs=``,
    ``votes=``, ...) pass through to the engine.
    """
    from repro.engine.belief import simulate_noisy

    return simulate_noisy(
        policy,
        hierarchy,
        distribution,
        error_model=error_model,
        targets=targets,
        replications=replications,
        repeats=repeats,
        seed=seed,
        max_queries=max_queries_per_run,
        **engine_kwargs,
    )
