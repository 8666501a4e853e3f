"""Unit tests for cost-sensitive greedy (Section III-D, Example 4)."""

from __future__ import annotations

import pytest

from repro.core.costs import TableCost, UnitCost, random_costs
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.session import search_for_target
from repro.policies import CostSensitiveGreedyPolicy, GreedyNaivePolicy
from repro.policies.optimal import optimal_expected_cost

from repro.testing import make_random_tree, random_distribution, replay_compile


@pytest.fixture
def chain4() -> Hierarchy:
    """Fig. 3(a): the 4-node chain 1 -> 2 -> 3 -> 4."""
    return Hierarchy([(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def chain4_costs() -> TableCost:
    """c(1) = c(2) = c(4) = 1, c(3) = 5."""
    return TableCost({1: 1.0, 2: 1.0, 3: 5.0, 4: 1.0})


class TestExample4:
    """The paper's Example 4, reproduced with exact arithmetic."""

    def test_simple_greedy_pays_6(self, chain4, chain4_costs):
        dist = TargetDistribution.equal(chain4)
        tree = replay_compile(GreedyNaivePolicy, chain4, dist, chain4_costs)
        assert tree.expected_price(dist, chain4_costs) == pytest.approx(6.0)

    def test_cost_sensitive_greedy_pays_4_25(self, chain4, chain4_costs):
        dist = TargetDistribution.equal(chain4)
        tree = replay_compile(
            CostSensitiveGreedyPolicy, chain4, dist, chain4_costs
        )
        assert tree.expected_price(dist, chain4_costs) == pytest.approx(4.25)

    def test_first_queries(self, chain4, chain4_costs):
        dist = TargetDistribution.equal(chain4)
        simple = GreedyNaivePolicy()
        simple.reset(chain4, dist, chain4_costs)
        assert simple.propose() == 3  # splits 2-2, ignoring prices

        sensitive = CostSensitiveGreedyPolicy()
        sensitive.reset(chain4, dist, chain4_costs)
        # Nodes 2 and 4 tie at 0.1875, both beating node 3's 0.05; the paper
        # picks 4, and ties may break either way (Definition 4 remark).
        first = sensitive.propose()
        assert first in (2, 4)
        assert sensitive.objective_of(first) == pytest.approx(0.1875)

    def test_objective_values_match_paper(self, chain4, chain4_costs):
        dist = TargetDistribution.equal(chain4)
        policy = CostSensitiveGreedyPolicy()
        policy.reset(chain4, dist, chain4_costs)
        assert policy.objective_of(4) == pytest.approx(0.25 * 0.75 / 1.0)
        assert policy.objective_of(3) == pytest.approx(0.5 * 0.5 / 5.0)


class TestGeneral:
    def test_unit_costs_reduce_to_plain_greedy_objective(self, chain4):
        """With unit prices the maximiser of p(Gu)p(G\\Gu) is a middle point."""
        dist = TargetDistribution.equal(chain4)
        sensitive = CostSensitiveGreedyPolicy()
        sensitive.reset(chain4, dist, UnitCost())
        plain = GreedyNaivePolicy()
        plain.reset(chain4, dist)
        assert plain.objective_of(sensitive.propose()) == pytest.approx(
            plain.objective_of(plain.propose())
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_soundness_random_costs(self, seed, rng):
        h = make_random_tree(15, seed=seed)
        dist = random_distribution(h, seed)
        costs = random_costs(h, rng)
        policy = CostSensitiveGreedyPolicy()
        for target in h.nodes:
            result = search_for_target(
                policy, h, target, dist, cost_model=costs
            )
            assert result.returned == target

    @pytest.mark.parametrize("seed", range(3))
    def test_not_much_worse_than_optimal_price(self, seed, rng):
        """Sanity versus the exponential CAIGS optimum on small trees."""
        h = make_random_tree(9, seed=seed)
        dist = random_distribution(h, seed)
        costs = random_costs(h, rng)
        tree = replay_compile(CostSensitiveGreedyPolicy, h, dist, costs)
        greedy_price = tree.expected_price(dist, costs)
        best = optimal_expected_cost(h, dist, costs)
        assert greedy_price <= 2.5 * best + 1e-9

    def test_rounded_variant_sound(self, chain4, chain4_costs):
        dist = TargetDistribution({1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4})
        policy = CostSensitiveGreedyPolicy(rounded=True)
        for target in chain4.nodes:
            result = search_for_target(
                policy, chain4, target, dist, cost_model=chain4_costs
            )
            assert result.returned == target

    def test_zero_mass_fallback(self, chain4, chain4_costs):
        dist = TargetDistribution({1: 1.0})
        policy = CostSensitiveGreedyPolicy()
        for target in chain4.nodes:
            result = search_for_target(
                policy, chain4, target, dist, cost_model=chain4_costs
            )
            assert result.returned == target
