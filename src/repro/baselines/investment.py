"""Investment and PooledInvestment — Pasternack & Roth, COLING 2010 [9].

Each source uniformly "invests" its trustworthiness across the claims it
makes; a claim's belief grows from the invested credit through a
non-linear growth function ``G(x) = x^g``, and sources earn trust back in
proportion to how much of each claim's belief their investment funded.

* **Investment** (g = 1.2): belief is ``G`` applied directly to the
  invested credit — a non-linear function of the sum of invested
  reliability, as Section 3.1.2 puts it.
* **PooledInvestment** (g = 1.4): invested credit is linearly scaled, then
  pooled within each entry's mutual-exclusion set:
  ``B(f) = H(f) * G(H(f)) / sum_{f' in entry} G(H(f'))``.

Trust scores are normalized to mean 1 every round, which is the standard
guard against the exponential blow-up of the raw recurrence.

Both methods run on the :class:`~repro.baselines.claims.ClaimGraph`
built from claim views, so dense and sparse backends are bit-identical;
process/mmap requests degrade (traced) to inline sparse execution via
:func:`~repro.baselines.claims.claim_graph_session`.
"""

from __future__ import annotations

import numpy as np

from ..core.result import TruthDiscoveryResult
from ..data.table import MultiSourceDataset
from .base import ConflictResolver, register_resolver
from .claims import ClaimGraph, claim_graph_session, winners_to_truth_table


class _InvestmentBase(ConflictResolver):
    """Shared trust/belief loop; subclasses define the belief function."""

    growth: float
    max_iterations: int
    tol: float

    def __init__(self, max_iterations: int = 20, tol: float = 1e-6,
                 **backend_kwargs) -> None:
        super().__init__(**backend_kwargs)
        self.max_iterations = max_iterations
        self.tol = tol

    def _beliefs(self, graph: ClaimGraph, invested: np.ndarray) -> np.ndarray:
        """Fact beliefs from invested credit; subclass responsibility."""
        raise NotImplementedError

    def fit(self, dataset: MultiSourceDataset) -> TruthDiscoveryResult:
        """Iterate the invest/harvest trust recurrence to a fixpoint."""
        session, graph = claim_graph_session(self, dataset)
        try:
            return session.stamp(self._fit_graph(session.data, graph))
        finally:
            session.close()

    def _fit_graph(self, data, graph: ClaimGraph) -> TruthDiscoveryResult:
        claims_per_source = np.maximum(graph.claims_per_source(), 1)
        claims_of_claim_source = claims_per_source[graph.claim_source]
        trust = np.ones(graph.n_sources)
        beliefs = np.zeros(graph.n_facts)
        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            # Each source splits its trust evenly over its claims.
            per_claim = trust[graph.claim_source] / claims_of_claim_source
            invested = graph.sum_claims_by_fact(per_claim)
            beliefs = self._beliefs(graph, invested)
            # Sources harvest belief proportional to their share of the
            # credit invested in each claim.
            safe_invested = np.maximum(invested, 1e-300)
            harvest = beliefs[graph.claim_fact] * per_claim / \
                safe_invested[graph.claim_fact]
            new_trust = graph.sum_claims_by_source(harvest)
            mean_trust = new_trust.mean()
            if mean_trust > 0:
                new_trust = new_trust / mean_trust
            delta = float(np.abs(new_trust - trust).max())
            trust = new_trust
            if delta < self.tol:
                converged = True
                break
        winners = graph.argmax_fact_per_entry(beliefs)
        truths = winners_to_truth_table(graph, data, winners)
        return TruthDiscoveryResult(
            truths=truths,
            weights=trust,
            source_ids=data.source_ids,
            method=self.name,
            iterations=iterations,
            converged=converged,
        )


@register_resolver
class InvestmentResolver(_InvestmentBase):
    """Investment with growth exponent 1.2 (the authors' suggestion)."""

    name = "Investment"
    growth = 1.2

    def _beliefs(self, graph: ClaimGraph, invested: np.ndarray) -> np.ndarray:
        return invested ** self.growth


@register_resolver
class PooledInvestmentResolver(_InvestmentBase):
    """PooledInvestment with growth exponent 1.4 (the authors' suggestion)."""

    name = "PooledInvestment"
    growth = 1.4

    def _beliefs(self, graph: ClaimGraph, invested: np.ndarray) -> np.ndarray:
        grown = invested ** self.growth
        pooled = graph.sum_facts_by_entry(grown)
        denominator = np.maximum(pooled[graph.fact_entry], 1e-300)
        return invested * grown / denominator
