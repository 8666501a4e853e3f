"""Target-node probability distributions for AIGS.

Section II of the paper associates every node ``v`` with a probability
``p(v)`` of being the target.  :class:`TargetDistribution` is a validated
mapping from node labels to probabilities, together with

* the weight-rounding transform of Equation (1),
  ``w(u) = ceil(n^2 * p(u) / max_v p(v))``, used by the rounded greedy policy
  (Theorem 1) and by :class:`repro.policies.greedy_dag.GreedyDagPolicy`;
* the synthetic distribution families used in the paper's evaluation
  (Section V-B: equal, uniform, exponential, Zipf).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping

import numpy as np

from repro.core.hierarchy import Hierarchy
from repro.exceptions import DistributionError

#: Tolerance used when checking that probabilities sum to one.
_SUM_ATOL = 1e-9


class TargetDistribution:
    """An immutable probability distribution over hierarchy nodes.

    Parameters
    ----------
    probs:
        Mapping from node label to a non-negative weight.  Missing nodes are
        treated as probability zero by :meth:`p`.
    normalize:
        When true (default), weights are rescaled to sum to one.  When false,
        the weights must already sum to one (within a small tolerance).

    Raises
    ------
    DistributionError
        On negative weights, an all-zero distribution, NaNs, or (with
        ``normalize=False``) a total different from one.
    """

    __slots__ = ("_probs", "_total")

    def __init__(
        self,
        probs: Mapping[Hashable, float],
        *,
        normalize: bool = True,
    ) -> None:
        if not probs:
            raise DistributionError("empty distribution")
        cleaned: dict[Hashable, float] = {}
        total = 0.0
        for node, value in probs.items():
            weight = float(value)
            if math.isnan(weight):
                raise DistributionError(f"NaN probability for node {node!r}")
            if weight < 0:
                raise DistributionError(
                    f"negative probability {weight} for node {node!r}"
                )
            cleaned[node] = weight
            total += weight
        if total <= 0:
            raise DistributionError("distribution has zero total mass")
        if normalize:
            cleaned = {node: w / total for node, w in cleaned.items()}
        elif abs(total - 1.0) > 1e-6:
            raise DistributionError(
                f"probabilities sum to {total}, expected 1 "
                "(pass normalize=True to rescale)"
            )
        self._probs: dict[Hashable, float] = cleaned
        self._total = sum(cleaned.values())

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def p(self, node: Hashable) -> float:
        """Probability of ``node`` being the target (0 if unknown)."""
        return self._probs.get(node, 0.0)

    def items(self):
        """``(node, probability)`` pairs."""
        return self._probs.items()

    @property
    def support(self) -> frozenset:
        """Nodes with strictly positive probability."""
        return frozenset(n for n, w in self._probs.items() if w > 0)

    def __len__(self) -> int:
        return len(self._probs)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._probs

    def __repr__(self) -> str:
        return (
            f"TargetDistribution(|support|={len(self.support)}, "
            f"entropy={self.entropy():.3f})"
        )

    def entropy(self) -> float:
        """Shannon entropy in bits (a skewness summary used in reports)."""
        return -sum(w * math.log2(w) for w in self._probs.values() if w > 0)

    def total_mass(self, nodes) -> float:
        """``p(S)`` — total probability of a set of nodes."""
        return sum(self._probs.get(n, 0.0) for n in nodes)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw target node(s) according to the distribution."""
        nodes = list(self._probs)
        weights = np.fromiter(
            (self._probs[n] for n in nodes), dtype=float, count=len(nodes)
        )
        weights = weights / weights.sum()
        picks = rng.choice(len(nodes), size=size, p=weights)
        if size is None:
            return nodes[int(picks)]
        return [nodes[int(i)] for i in picks]

    # ------------------------------------------------------------------
    # Array and rounding views
    # ------------------------------------------------------------------
    def as_array(self, hierarchy: Hierarchy) -> np.ndarray:
        """Probabilities as a dense array aligned to hierarchy indices."""
        probs = self._probs
        return np.array(
            [probs.get(label, 0.0) for label in hierarchy.nodes], dtype=float
        )

    def rounded_weights(self, hierarchy: Hierarchy) -> np.ndarray:
        """Equation (1): ``w(u) = ceil(n^2 * p(u) / max_v p(v))``.

        Every node of the hierarchy receives an integer weight (nodes outside
        the distribution's support get ``ceil(0) = 0``, matching the formula).
        The maximum is taken over hierarchy nodes, as in the paper.
        """
        probs = self.as_array(hierarchy)
        p_max = probs.max()
        if p_max <= 0:
            raise DistributionError(
                "rounding requires at least one positive-probability node "
                "inside the hierarchy"
            )
        scaled = probs * (hierarchy.n * hierarchy.n / p_max)
        # The paper's footnote 1 notes machine precision is fine here.  Two
        # float artifacts need care: (i) the division round trip can land a
        # hair above an integer (25.000000000000004 must not ceil to 26), and
        # (ii) ceil of any positive probability is at least 1, however tiny.
        fraction = scaled - np.floor(scaled)
        noise = 1e-9 * np.maximum(scaled, 1.0)
        weights = np.where(
            fraction <= noise, np.floor(scaled), np.ceil(scaled)
        ).astype(np.int64)
        weights[(probs > 0) & (weights < 1)] = 1
        return weights

    def restricted_to(self, nodes) -> "TargetDistribution":
        """A renormalised copy supported only on ``nodes``."""
        subset = {n: self._probs.get(n, 0.0) for n in nodes}
        return TargetDistribution(subset, normalize=True)

    # ------------------------------------------------------------------
    # Constructors (paper Section V-B synthetic settings)
    # ------------------------------------------------------------------
    @classmethod
    def equal(cls, hierarchy: Hierarchy) -> "TargetDistribution":
        """The unweighted setting: ``p(v) = 1/n`` for every node."""
        share = 1.0 / hierarchy.n
        return cls({node: share for node in hierarchy.nodes}, normalize=False)

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[Hashable, float],
        *,
        hierarchy: Hierarchy | None = None,
        smoothing: float = 0.0,
    ) -> "TargetDistribution":
        """Empirical distribution from per-category object counts.

        ``smoothing`` adds a Laplace pseudo-count to every hierarchy node
        (requires ``hierarchy``); this is how the online learner keeps the
        early empirical distribution close to uniform (Fig. 4 protocol).
        """
        if smoothing < 0:
            raise DistributionError("smoothing must be non-negative")
        if smoothing > 0 and hierarchy is None:
            raise DistributionError("smoothing requires the hierarchy")
        if hierarchy is not None:
            probs = {
                node: counts.get(node, 0.0) + smoothing
                for node in hierarchy.nodes
            }
        else:
            probs = dict(counts)
        return cls(probs, normalize=True)

    @classmethod
    def random_uniform(
        cls, hierarchy: Hierarchy, rng: np.random.Generator
    ) -> "TargetDistribution":
        """Weighted setting: ``x_v ~ Uniform(0, 1)``, then normalised."""
        values = rng.uniform(0.0, 1.0, size=hierarchy.n)
        return cls(dict(zip(hierarchy.nodes, values)), normalize=True)

    @classmethod
    def random_exponential(
        cls, hierarchy: Hierarchy, rng: np.random.Generator
    ) -> "TargetDistribution":
        """Weighted setting: ``x_v ~ Exp(1)``, then normalised."""
        values = rng.exponential(1.0, size=hierarchy.n)
        return cls(dict(zip(hierarchy.nodes, values)), normalize=True)

    @classmethod
    def random_zipf(
        cls,
        hierarchy: Hierarchy,
        rng: np.random.Generator,
        a: float = 2.0,
    ) -> "TargetDistribution":
        """Weighted setting: ``x_v ~ Zipf(a)`` (long tail), then normalised.

        The paper uses ``f(x; a) = x^-a / zeta(a)`` with default ``a = 2``
        and sweeps ``a`` in Fig. 5.
        """
        if a <= 1.0:
            raise DistributionError("Zipf parameter must exceed 1")
        values = rng.zipf(a, size=hierarchy.n).astype(float)
        return cls(dict(zip(hierarchy.nodes, values)), normalize=True)

    @classmethod
    def synthetic(
        cls,
        name: str,
        hierarchy: Hierarchy,
        rng: np.random.Generator,
        **params,
    ) -> "TargetDistribution":
        """Dispatch by family name (``equal``/``uniform``/``exponential``/``zipf``)."""
        if name == "equal":
            return cls.equal(hierarchy)
        if name == "uniform":
            return cls.random_uniform(hierarchy, rng)
        if name == "exponential":
            return cls.random_exponential(hierarchy, rng)
        if name == "zipf":
            return cls.random_zipf(hierarchy, rng, **params)
        raise DistributionError(f"unknown synthetic distribution {name!r}")


SYNTHETIC_FAMILIES = ("equal", "uniform", "exponential", "zipf")
