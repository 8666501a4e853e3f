"""Query price models for cost-sensitive AIGS (Section III-D).

The base problem charges a unit price per question.  CAIGS generalises this:
querying node ``v`` costs ``c(v) > 0`` (e.g. $0.5 for an easy question, $1.5
for a hard one).  A :class:`QueryCostModel` maps nodes to prices; policies and
sessions consult it when accumulating the total price of a search.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Mapping

import numpy as np

from repro.core.hierarchy import Hierarchy
from repro.exceptions import CostModelError


class QueryCostModel(ABC):
    """Price of asking ``reach(v)`` for each node ``v``."""

    @abstractmethod
    def cost(self, node: Hashable) -> float:
        """Price charged for querying ``node``."""

    def as_array(self, hierarchy: Hierarchy) -> np.ndarray:
        """Prices as a dense array aligned to hierarchy indices."""
        return np.fromiter(
            (self.cost(node) for node in hierarchy.nodes),
            dtype=float,
            count=hierarchy.n,
        )

    def total(self, nodes) -> float:
        """Total price of a sequence of queries."""
        return sum(self.cost(node) for node in nodes)


class UnitCost(QueryCostModel):
    """The homogeneous setting: every question costs the same flat fee."""

    def __init__(self, price: float = 1.0) -> None:
        if price <= 0:
            raise CostModelError(f"price must be positive, got {price}")
        self.price = float(price)

    def cost(self, node: Hashable) -> float:
        return self.price

    def as_array(self, hierarchy: Hierarchy) -> np.ndarray:
        return np.full(hierarchy.n, self.price)

    def __repr__(self) -> str:
        return f"UnitCost({self.price})"


class TableCost(QueryCostModel):
    """Heterogeneous prices from an explicit ``node -> price`` table.

    Parameters
    ----------
    prices:
        Known per-node prices; all must be positive.
    default:
        Price for nodes absent from the table; ``None`` (default) makes
        missing nodes an error, surfacing typos early.
    """

    def __init__(
        self,
        prices: Mapping[Hashable, float],
        *,
        default: float | None = None,
    ) -> None:
        self._prices: dict[Hashable, float] = {}
        for node, price in prices.items():
            value = float(price)
            if value <= 0:
                raise CostModelError(
                    f"price must be positive, got {value} for node {node!r}"
                )
            self._prices[node] = value
        if default is not None and default <= 0:
            raise CostModelError(f"default price must be positive, got {default}")
        self._default = default

    def cost(self, node: Hashable) -> float:
        price = self._prices.get(node, self._default)
        if price is None:
            raise CostModelError(f"no price known for node {node!r}")
        return price

    def __repr__(self) -> str:
        return f"TableCost({len(self._prices)} nodes, default={self._default})"


def random_costs(
    hierarchy: Hierarchy,
    rng: np.random.Generator,
    *,
    low: float = 0.5,
    high: float = 1.5,
) -> TableCost:
    """Uniformly random per-node prices in ``[low, high]`` (for experiments)."""
    if not 0 < low <= high:
        raise CostModelError(f"need 0 < low <= high, got [{low}, {high}]")
    values = rng.uniform(low, high, size=hierarchy.n)
    return TableCost(dict(zip(hierarchy.nodes, values)))
