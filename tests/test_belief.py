"""Property suite for the batched noisy-oracle belief engine.

The engine contract, mirroring ``test_bit_identity.py`` for the noise
study: for any hierarchy, policy, error model, and mitigation knobs,
:func:`repro.engine.belief.simulate_noisy` is *bit-identical* to the
per-session reference (one oracle stack + ``run_search`` per session)
— same labels, same question/vote counts, same prices, same outcome
codes — and stays bit-identical to itself whichever way the batch
executes: inline in one block, chunked (``batch_size=``), sharded over
``jobs=2`` workers on a cold or a warm executor, both at once, or with
any splitter kernel forced (``kind=``).  Hypothesis searches random
trees/DAGs for violations and shrinks any counterexample to a printed
seed; ``derandomize=True`` keeps CI stable run to run.

The posterior half of the suite pins the Bayes step itself: rows are
proper distributions (sum to one), every kernel kind computes the same
numbers, and the posterior concentrates on the true target as the
error rate drops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ErrorRateModel
from repro.engine import (
    close_sweep_executor,
    simulate_all_targets,
    simulate_noisy,
)
from repro.engine.belief import (
    OUTCOME_BUDGET,
    OUTCOME_MAP,
    _chunk_step,
    _shard_bounds,
    make_belief_updater,
    posterior_from_transcript,
    reference_noisy,
)
from repro.engine.vector import SPLITTER_KINDS
from repro.exceptions import HierarchyError, OracleError, SearchError
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy, make_policy
from repro.testing import make_random_dag, make_random_tree, random_distribution

#: Modest example counts: every example simulates hundreds of noisy
#: sessions through the reference loop, so the suite trades
#: exhaustiveness per run for a tolerable wall-clock (CI accumulates
#: coverage across pushes).
_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _hierarchy(kind: str, n: int, seed: int):
    if kind == "tree":
        return make_random_tree(n, seed=seed)
    return make_random_dag(n, seed=seed)


def _policy_for(kind: str):
    return make_policy("greedy-tree" if kind == "tree" else "greedy-dag")


def _assert_same(a, b, context: str) -> None:
    assert np.array_equal(a.target_ix, b.target_ix), context
    assert np.array_equal(a.labels, b.labels), context
    assert np.array_equal(a.queries, b.queries), context
    assert np.array_equal(a.vote_queries, b.vote_queries), context
    assert np.array_equal(a.prices, b.prices), context
    assert np.array_equal(a.run_labels, b.run_labels), context
    assert np.array_equal(a.run_outcomes, b.run_outcomes), context
    assert np.array_equal(a.run_queries, b.run_queries), context


class TestBitIdenticalToReference:
    """simulate_noisy reproduces the per-session oracle stack bit for bit."""

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        n=st.integers(min_value=8, max_value=32),
        persistent=st.booleans(),
        votes=st.sampled_from([1, 3]),
        repeats=st.sampled_from([1, 2]),
    )
    def test_matches_reference(self, seed, kind, n, persistent, votes, repeats):
        hierarchy = _hierarchy(kind, n, seed)
        distribution = random_distribution(hierarchy, seed)
        model = ErrorRateModel(0.15, persistent=persistent)
        common = dict(
            error_model=model,
            replications=2,
            seed=seed,
            votes=votes,
            repeats=repeats,
        )
        batched = simulate_noisy(
            _policy_for(kind), hierarchy, distribution, **common
        )
        reference = reference_noisy(
            _policy_for(kind), hierarchy, distribution, **common
        )
        _assert_same(
            batched,
            reference,
            f"diverged from reference: kind={kind} n={n} seed={seed} "
            f"persistent={persistent} votes={votes} repeats={repeats}",
        )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=10, max_value=28),
        persistent=st.booleans(),
    )
    def test_migs_on_dag_repeated_queries(self, seed, n, persistent):
        """MIGS revisits nodes on DAG paths — the case that exercises the
        first-visit-only uniform consumption contract of persistent noise."""
        hierarchy = make_random_dag(n, seed=seed)
        distribution = random_distribution(hierarchy, seed)
        model = ErrorRateModel(0.2, persistent=persistent)
        common = dict(error_model=model, replications=2, seed=seed)
        batched = simulate_noisy(
            make_policy("migs"), hierarchy, distribution, **common
        )
        reference = reference_noisy(
            make_policy("migs"), hierarchy, distribution, **common
        )
        _assert_same(
            batched,
            reference,
            f"migs diverged: n={n} seed={seed} persistent={persistent}",
        )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=8, max_value=24),
    )
    def test_node_rates_match_reference(self, seed, n):
        hierarchy = make_random_tree(n, seed=seed)
        distribution = random_distribution(hierarchy, seed)
        rng = np.random.default_rng(seed)
        overrides = {
            node: float(rate)
            for node, rate in zip(
                hierarchy.nodes[::3], rng.uniform(0.0, 0.45, size=hierarchy.n)
            )
        }
        model = ErrorRateModel(0.1, node_rates=overrides)
        common = dict(error_model=model, replications=2, seed=seed, votes=3)
        batched = simulate_noisy(
            _policy_for("tree"), hierarchy, distribution, **common
        )
        reference = reference_noisy(
            _policy_for("tree"), hierarchy, distribution, **common
        )
        _assert_same(
            batched, reference, f"node_rates diverged: n={n} seed={seed}"
        )


class TestBatchShapeInvariance:
    """The answer never depends on how the batch is sliced or where it runs."""

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        n=st.integers(min_value=8, max_value=32),
        persistent=st.booleans(),
    )
    def test_all_modes(self, seed, kind, n, persistent):
        hierarchy = _hierarchy(kind, n, seed)
        distribution = random_distribution(hierarchy, seed)
        common = dict(
            error_model=ErrorRateModel(0.15, persistent=persistent),
            replications=2,
            seed=seed,
            votes=3,
        )

        def run(**extra):
            return simulate_noisy(
                _policy_for(kind), hierarchy, distribution, **common, **extra
            )

        reference = run()
        close_sweep_executor()
        modes = {
            "batch_size=1": run(batch_size=1),
            "batch_size=5": run(batch_size=5),
            "jobs=2 cold": run(jobs=2),
            "jobs=2 warm": run(jobs=2),
            "batch_size=7, jobs=2": run(batch_size=7, jobs=2),
        }
        for splitter in SPLITTER_KINDS:
            if splitter == "tree" and kind != "tree":
                continue  # the interval kernel rejects DAGs by design
            modes[f"kind={splitter}"] = run(kind=splitter)
        for mode, result in modes.items():
            _assert_same(
                reference,
                result,
                f"{mode} diverged: kind={kind} n={n} seed={seed} "
                f"persistent={persistent}",
            )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        n=st.integers(min_value=8, max_value=32),
    )
    def test_tracked_posterior_modes(self, seed, kind, n):
        """MAP stopping and posterior tracking chunk the sweep by the
        posterior bound; shards and chunks never show in the result."""
        hierarchy = _hierarchy(kind, n, seed)
        distribution = random_distribution(hierarchy, seed)
        common = dict(
            error_model=ErrorRateModel(0.15),
            replications=2,
            seed=seed,
            map_threshold=0.9,
            track_posterior=True,
        )

        def run(**extra):
            return simulate_noisy(
                _policy_for(kind), hierarchy, distribution, **common, **extra
            )

        reference = run()
        for mode, result in {
            "jobs=2": run(jobs=2),
            "batch_size=7, jobs=2": run(batch_size=7, jobs=2),
        }.items():
            context = f"{mode} diverged: kind={kind} n={n} seed={seed}"
            _assert_same(reference, result, context)
            assert np.array_equal(
                reference.posterior, result.posterior
            ), context

    @settings(**{**_SETTINGS, "max_examples": 200})
    @given(
        total=st.integers(min_value=1, max_value=5_000),
        n=st.integers(min_value=1, max_value=40_000),
        batch_size=st.one_of(st.none(), st.integers(1, 600)),
        track=st.booleans(),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_shards_never_exceed_the_chunk_step(
        self, total, n, batch_size, track, workers
    ):
        """Every path cuts the grid into contiguous shards no larger than
        the step (``batch_size``, or the posterior bound when tracked),
        and into at least one shard per worker while sessions last."""
        step = _chunk_step(total, n, batch_size, track)
        bounds = _shard_bounds(total, step, workers)
        assert bounds[0][0] == 0 and bounds[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert all(0 < hi - lo <= step for lo, hi in bounds)
        assert len(bounds) >= min(workers, total)
        if track and batch_size is None:
            assert step * n <= max(4_000_000, n)


class TestPosterior:
    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        n=st.integers(min_value=8, max_value=32),
    )
    def test_rows_are_distributions(self, seed, kind, n):
        hierarchy = _hierarchy(kind, n, seed)
        distribution = random_distribution(hierarchy, seed)
        result = simulate_noisy(
            _policy_for(kind),
            hierarchy,
            distribution,
            error_model=ErrorRateModel(0.1),
            replications=2,
            seed=seed,
            track_posterior=True,
        )
        posterior = result.posterior
        assert posterior is not None
        assert posterior.shape[-1] == hierarchy.n
        assert (posterior >= 0.0).all()
        sums = posterior.reshape(-1, hierarchy.n).sum(axis=1)
        # Rows either sum to 1 or collapsed to exactly zero mass (only
        # possible when a zero-rate answer contradicts the whole prior).
        np.testing.assert_allclose(
            sums[sums > 0], 1.0, rtol=0.0, atol=1e-9
        )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        n=st.integers(min_value=10, max_value=32),
    )
    def test_tracking_never_changes_the_walk(self, seed, kind, n):
        """track_posterior is an observer: outcomes stay bit-identical."""
        hierarchy = _hierarchy(kind, n, seed)
        distribution = random_distribution(hierarchy, seed)
        common = dict(
            error_model=ErrorRateModel(0.2),
            replications=2,
            seed=seed,
        )
        plain = simulate_noisy(
            _policy_for(kind), hierarchy, distribution, **common
        )
        tracked = simulate_noisy(
            _policy_for(kind),
            hierarchy,
            distribution,
            track_posterior=True,
            **common,
        )
        _assert_same(
            plain, tracked, f"tracking changed the walk: n={n} seed={seed}"
        )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=12, max_value=32),
    )
    def test_concentrates_as_noise_vanishes(self, seed, n):
        """Mean posterior mass on the true target grows as the rate drops."""
        hierarchy = make_random_tree(n, seed=seed)
        distribution = random_distribution(hierarchy, seed)

        def mass_on_target(rate):
            result = simulate_noisy(
                _policy_for("tree"),
                hierarchy,
                distribution,
                error_model=ErrorRateModel(rate),
                replications=3,
                seed=seed,
                track_posterior=True,
            )
            flat = result.posterior.reshape(-1, hierarchy.n)
            targets = np.repeat(result.target_ix, flat.shape[0] // len(result.target_ix))
            return float(flat[np.arange(len(flat)), targets].mean())

        assert mass_on_target(0.02) >= mass_on_target(0.35) - 1e-12

    def test_posterior_from_transcript(self, vehicle_hierarchy):
        model = ErrorRateModel(0.1)
        transcript = [("Car", True), ("Nissan", True), ("Sentra", True)]
        posterior = posterior_from_transcript(
            vehicle_hierarchy, transcript, model
        )
        assert posterior.shape == (vehicle_hierarchy.n,)
        np.testing.assert_allclose(posterior.sum(), 1.0)
        assert (
            int(np.argmax(posterior)) == vehicle_hierarchy.index("Sentra")
        )

    def test_updater_kinds_agree(self, vehicle_hierarchy):
        n = vehicle_hierarchy.n
        rng = np.random.default_rng(3)
        posterior = rng.dirichlet(np.ones(n), size=6)
        queries = rng.integers(0, n, size=6)
        answers = rng.random(6) < 0.5
        rates = rng.uniform(0.0, 0.45, size=n)
        results = {}
        for splitter in SPLITTER_KINDS:
            update = make_belief_updater(vehicle_hierarchy, kind=splitter)
            assert update.kind == splitter
            results[splitter] = update(posterior, queries, answers, rates)
        reference = results.pop("tree")
        for splitter, updated in results.items():
            np.testing.assert_array_equal(
                reference, updated, err_msg=f"kind={splitter} diverged"
            )

    def test_updater_rejects_unknown_kind(self, vehicle_hierarchy):
        with pytest.raises(HierarchyError):
            make_belief_updater(vehicle_hierarchy, kind="quantum")


class TestMapStopping:
    def test_noiseless_map_is_perfect(self, vehicle_hierarchy,
                                      vehicle_distribution):
        result = simulate_noisy(
            _policy_for("tree"),
            vehicle_hierarchy,
            vehicle_distribution,
            error_model=ErrorRateModel(0.0),
            replications=2,
            map_threshold=0.95,
            track_posterior=True,
        )
        assert result.accuracy() == 1.0
        assert result.posterior is not None

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=10, max_value=28),
    )
    def test_map_stops_never_increase_spend(self, seed, n):
        """Early MAP stops can only shorten sessions, never lengthen them."""
        hierarchy = make_random_tree(n, seed=seed)
        distribution = random_distribution(hierarchy, seed)
        common = dict(
            error_model=ErrorRateModel(0.1), replications=2, seed=seed
        )
        plain = simulate_noisy(
            _policy_for("tree"), hierarchy, distribution, **common
        )
        mapped = simulate_noisy(
            _policy_for("tree"),
            hierarchy,
            distribution,
            map_threshold=0.9,
            **common,
        )
        assert (mapped.queries <= plain.queries).all()
        stopped = mapped.run_outcomes == OUTCOME_MAP
        # A MAP stop always yields a label (the argmax), never a failure.
        assert (mapped.run_labels[stopped] >= 0).all()


class TestValidation:
    def test_bad_knobs(self, vehicle_hierarchy, vehicle_distribution):
        policy = _policy_for("tree")
        with pytest.raises(SearchError):
            simulate_noisy(
                policy, vehicle_hierarchy, vehicle_distribution,
                error_model=0.1, replications=0,
            )
        with pytest.raises(OracleError):
            simulate_noisy(
                policy, vehicle_hierarchy, vehicle_distribution,
                error_model=0.1, votes=4,
            )
        with pytest.raises(OracleError):
            simulate_noisy(
                policy, vehicle_hierarchy, vehicle_distribution,
                error_model=0.6,
            )

    def test_bare_float_error_model(self, vehicle_hierarchy,
                                    vehicle_distribution):
        """A bare rate is promoted to a transient ErrorRateModel."""
        a = simulate_noisy(
            _policy_for("tree"), vehicle_hierarchy, vehicle_distribution,
            error_model=0.2, replications=2, seed=5,
        )
        b = simulate_noisy(
            _policy_for("tree"), vehicle_hierarchy, vehicle_distribution,
            error_model=ErrorRateModel(0.2), replications=2, seed=5,
        )
        _assert_same(a, b, "bare-float promotion diverged")


class TestBudget:
    @pytest.mark.parametrize("sweep", [simulate_noisy, reference_noisy])
    def test_policy_settles_like_its_plan_below_plan_depth(self, sweep):
        """A budget below the plan's depth settles sessions as
        ``OUTCOME_BUDGET`` for a policy exactly as for its compiled plan:
        the policy compiles at the default ``2 n + 10`` bound, not at the
        caller's budget."""
        hierarchy = make_random_tree(60, seed=1)
        plan = compile_policy(GreedyTreePolicy(), hierarchy)
        assert simulate_all_targets(plan).worst_case() > 2
        common = dict(error_model=0.1, max_queries=2)
        via_plan = sweep(plan, hierarchy, **common)
        via_policy = sweep(GreedyTreePolicy(), hierarchy, **common)
        _assert_same(via_policy, via_plan, f"{sweep.__name__} diverged")
        assert (via_plan.run_outcomes == OUTCOME_BUDGET).all()
