"""2-Estimates and 3-Estimates — Galland et al., WSDM 2010 [5].

Both methods exploit *negative* votes: claiming one fact at an entry is an
implicit vote against the entry's other facts ("there is one and only one
true value for each entry").  They alternate between fact truth estimates
``p_f`` and source error factors ``eps_k``:

* **2-Estimates**: a positive vote from source ``k`` contributes
  ``1 - eps_k`` to ``p_f``; a negative vote contributes ``eps_k``.
  Symmetrically, ``eps_k`` averages ``1 - p_f`` over positive votes and
  ``p_f`` over negative ones.
* **3-Estimates** additionally estimates a per-fact difficulty
  ``theta_f`` ("the difficulty of getting the truth for each entry"):
  votes are discounted by ``eps_k * theta_f``, and a third update step
  estimates difficulty from the residuals.

After each round both methods apply the authors' *linear rescaling*
normalization, mapping the estimate vectors onto [0, 1] — without it the
fixpoint collapses (every estimate drifts to the same value).  Source
error factors are unreliability scores, so Fig. 1 inverts them.

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

_EPS = 1e-3  # guards the 3-Estimates divisions by eps/theta


def _rescale(values: np.ndarray) -> np.ndarray:
    """Galland's lambda normalization: min-max map onto [0, 1]."""
    lo, hi = values.min(), values.max()
    if hi - lo <= 0:
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def _claim_invariants(graph: ClaimGraph, claimants_per_entry: np.ndarray,
                      facts_per_entry: np.ndarray):
    """The claim-only terms of both fixpoints, computed once per fit.

    Returns ``(entry_of_claim, vote_sum, claimants_of_fact_entry)``:
    each claim's entry, each source's vote count (one positive vote
    plus one negative vote per other fact of the entry, floored at 1)
    and each fact's entry claimant count.
    """
    entry_of_claim = graph.fact_entry[graph.claim_fact]
    votes_per_claim = facts_per_entry[entry_of_claim]
    vote_sum = np.maximum(graph.sum_claims_by_source(votes_per_claim), 1.0)
    return (entry_of_claim, vote_sum,
            claimants_per_entry[graph.fact_entry])


class _EstimatesBase(ConflictResolver):
    """Shared fixpoint scaffolding; subclasses define the update rules."""

    scores_are_unreliability = True

    def __init__(self, max_iterations: int = 20, tol: float = 1e-6,
                 **backend_kwargs) -> None:
        super().__init__(**backend_kwargs)
        self.max_iterations = max_iterations
        self.tol = tol

    def _run(self, graph: ClaimGraph) -> tuple[np.ndarray, np.ndarray, int, bool]:
        """Run the truth/error fixpoint; subclass responsibility."""
        raise NotImplementedError

    def fit(self, dataset: MultiSourceDataset) -> TruthDiscoveryResult:
        """Run the estimates fixpoint and decode the winning facts."""
        session, graph = claim_graph_session(self, dataset)
        try:
            p, eps, iterations, converged = self._run(graph)
            winners = graph.argmax_fact_per_entry(p)
            truths = winners_to_truth_table(graph, session.data, winners)
            return session.stamp(TruthDiscoveryResult(
                truths=truths,
                weights=eps,  # error factors: lower = more reliable
                source_ids=session.data.source_ids,
                method=self.name,
                iterations=iterations,
                converged=converged,
            ))
        finally:
            session.close()


@register_resolver
class TwoEstimatesResolver(_EstimatesBase):
    """2-Estimates: joint truth/error fixpoint with negative votes."""

    name = "2-Estimates"

    def _run(self, graph: ClaimGraph):
        claimants_per_fact = graph.claimants_per_fact().astype(np.float64)
        claimants_per_entry = np.maximum(
            graph.claimants_per_entry().astype(np.float64), 1.0
        )
        facts_per_entry = graph.facts_per_entry().astype(np.float64)
        entry_of_claim, vote_sum, claimants_of_fact_entry = \
            _claim_invariants(graph, claimants_per_entry, facts_per_entry)
        eps = np.full(graph.n_sources, 0.4)
        p = np.zeros(graph.n_facts)
        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            # --- truth step -------------------------------------------
            eps_of_claim = eps[graph.claim_source]
            pos_eps = graph.sum_claims_by_fact(eps_of_claim)
            entry_eps = graph.sum_facts_by_entry(pos_eps)
            numerator = (
                (claimants_per_fact - pos_eps)                  # pos: 1-eps
                + (entry_eps[graph.fact_entry] - pos_eps)        # neg: eps
            )
            p = numerator / claimants_of_fact_entry
            p = _rescale(p)
            # --- error step -------------------------------------------
            p_of_claim = p[graph.claim_fact]
            entry_p = graph.sum_facts_by_entry(p)
            per_claim_error = (
                (1.0 - p_of_claim)                               # pos vote
                + (entry_p[entry_of_claim] - p_of_claim)        # neg votes
            )
            error_sum = graph.sum_claims_by_source(per_claim_error)
            new_eps = _rescale(error_sum / vote_sum)
            delta = float(np.abs(new_eps - eps).max())
            eps = new_eps
            if delta < self.tol:
                converged = True
                break
        return p, eps, iterations, converged


@register_resolver
class ThreeEstimatesResolver(_EstimatesBase):
    """3-Estimates: 2-Estimates plus per-fact difficulty estimation."""

    name = "3-Estimates"

    def _run(self, graph: ClaimGraph):
        claimants_per_fact = graph.claimants_per_fact().astype(np.float64)
        claimants_per_entry = np.maximum(
            graph.claimants_per_entry().astype(np.float64), 1.0
        )
        facts_per_entry = graph.facts_per_entry().astype(np.float64)
        entry_of_claim, vote_sum, claimants_of_fact_entry = \
            _claim_invariants(graph, claimants_per_entry, facts_per_entry)
        eps = np.full(graph.n_sources, 0.4)
        theta = np.full(graph.n_facts, 0.5)
        p = np.zeros(graph.n_facts)
        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            # --- truth step: votes discounted by eps * theta -----------
            eps_of_claim = eps[graph.claim_source]
            pos_eps = graph.sum_claims_by_fact(eps_of_claim)
            entry_eps = graph.sum_facts_by_entry(pos_eps)
            numerator = (
                (claimants_per_fact - theta * pos_eps)
                + theta * (entry_eps[graph.fact_entry] - pos_eps)
            )
            p = _rescale(numerator / claimants_of_fact_entry)
            # --- error step: residuals scaled by 1/theta ---------------
            safe_theta = np.maximum(theta, _EPS)
            q = p / safe_theta                        # neg-vote residual
            r = (1.0 - p) / safe_theta                # pos-vote residual
            entry_q = graph.sum_facts_by_entry(q)
            per_claim_error = (
                r[graph.claim_fact]
                + (entry_q[entry_of_claim] - q[graph.claim_fact])
            )
            error_sum = graph.sum_claims_by_source(per_claim_error)
            new_eps = _rescale(error_sum / vote_sum)
            # --- difficulty step: residuals scaled by 1/eps ------------
            safe_eps = np.maximum(new_eps, _EPS)
            inv_eps_of_claim = 1.0 / safe_eps[graph.claim_source]
            pos_inv = graph.sum_claims_by_fact(inv_eps_of_claim)
            entry_inv = graph.sum_facts_by_entry(pos_inv)
            theta_num = (
                (1.0 - p) * pos_inv
                + p * (entry_inv[graph.fact_entry] - pos_inv)
            )
            theta = _rescale(theta_num / claimants_of_fact_entry)
            delta = float(np.abs(new_eps - eps).max())
            eps = new_eps
            if delta < self.tol:
                converged = True
                break
        return p, eps, iterations, converged
