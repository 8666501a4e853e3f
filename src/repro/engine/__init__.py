"""Vectorized multi-session simulation engine.

Evaluate a policy — compiled once into a :class:`repro.plan.CompiledPlan` —
against *all* targets of a hierarchy in one pass on flat numpy index arrays:
the amortized, index-level evaluation path the paper's efficiency
experiments (Fig. 6) presume, instead of one ``run_search`` per target.
See :mod:`repro.engine.driver` for the level-by-level descent,
:mod:`repro.engine.vector` for the undo protocol and the reachability
kernels, :mod:`repro.engine.cache` for the persistent engine-result cache
(``result_cache=``), and :mod:`repro.engine.belief` for the batched
noisy-oracle evaluation path (posterior kernels, seeded flip draws,
majority voting) behind the noise study.  Noisy sweeps are the one
process-parallel path: ``jobs=`` shards them over a process pool that
stays warm across sweeps of one plan (:func:`close_sweep_executor` shuts
it down).
"""

from repro.engine.belief import (
    NoisyResult,
    close_sweep_executor,
    get_default_jobs,
    make_belief_updater,
    posterior_from_transcript,
    reference_noisy,
    resolve_jobs,
    set_default_jobs,
    simulate_noisy,
)
from repro.engine.cache import (
    EngineResultCache,
    as_result_cache,
    get_default_result_cache,
    resolve_result_cache,
    result_key,
    set_default_result_cache,
)
from repro.engine.driver import (
    EngineResult,
    simulate_all_targets,
    simulate_policies,
)
from repro.engine.vector import (
    SPLITTER_KINDS,
    VectorPolicy,
    is_vector_policy,
    make_answerer,
    make_splitter,
)

__all__ = [
    "EngineResult",
    "EngineResultCache",
    "NoisyResult",
    "SPLITTER_KINDS",
    "VectorPolicy",
    "as_result_cache",
    "close_sweep_executor",
    "get_default_jobs",
    "get_default_result_cache",
    "is_vector_policy",
    "make_answerer",
    "make_belief_updater",
    "make_splitter",
    "posterior_from_transcript",
    "reference_noisy",
    "simulate_noisy",
    "resolve_jobs",
    "resolve_result_cache",
    "result_key",
    "set_default_jobs",
    "set_default_result_cache",
    "simulate_all_targets",
    "simulate_policies",
]
