"""A seeded random-query control baseline.

Not from the paper — a floor for experiments and tests: any sensible policy
must beat uniformly random (non-root) candidate queries.  Determinism per
``seed`` keeps decision-tree construction and paired comparisons possible.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro.core.candidate import CandidateGraph
from repro.core.policy import Policy


class RandomPolicy(Policy):
    """Queries a uniformly random remaining candidate (never the root).

    Supports exact answer reversal: the candidate graph journals its
    updates, and the generator's bit state is snapshotted alongside, so
    :meth:`undo` restores *both* — after undoing, the policy draws exactly
    the numbers a fresh run reaching the same answer prefix would draw.
    (The draw for question ``k`` happens at its ``propose``, before any
    answer diverges the paths, so the restored stream is the one every
    path shares.)  That puts the seeded baseline on the one-pass undo-DFS
    compile path with everything else; the transcript-replay fallback is
    exercised in tests via ``repro.testing.ForcedReplayPolicy``.
    """

    name = "Random"
    uses_distribution = False
    supports_undo = True

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed

    def fingerprint(self) -> str:
        # The seed changes every decision but not the name; without this
        # the result cache would serve one seed's costs for another.
        return f"{super().fingerprint()}:seed={self.seed}"

    def _reset_state(self) -> None:
        self._cg = CandidateGraph(self.hierarchy)
        self._rng = np.random.default_rng(self.seed)

    def done(self) -> bool:
        self._require_reset()
        return self._cg.settled

    def result(self) -> Hashable:
        return self._cg.result()

    def _select_query(self) -> Hashable:
        cg = self._cg
        candidates = [
            ix for ix in cg.reachable_ix(cg.root_ix) if ix != cg.root_ix
        ]
        pick = candidates[int(self._rng.integers(0, len(candidates)))]
        return self.hierarchy.label(pick)

    def _apply_answer(self, query: Hashable, answer: bool) -> None:
        if self._undo_enabled:
            # The rng state right now is the state right after this
            # question's propose() — how many raw words integers() consumed
            # depends on the candidate count, so it must be restored by
            # value, not recomputed.
            rng_state = self._rng.bit_generator.state
            journal = self._cg.apply_journaled(query, answer)
            self._undo_log.append((query, answer, (journal, rng_state)))
        else:
            self._cg.apply(query, answer)

    def _revert_answer(self, query: Hashable, answer: bool, payload) -> None:
        (eliminated, root), rng_state = payload
        self._cg.restore(eliminated, root)
        self._rng.bit_generator.state = rng_state
