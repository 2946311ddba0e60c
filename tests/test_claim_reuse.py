"""Claim-only structure is built once and reused, bit-identically.

Two caches carry the reuse on the Table 2 path:

* the sparse vote's :class:`~repro.core.kernels.VoteCellPlan`, cached
  per claim view (:meth:`~repro.data.claims_matrix.ClaimView.vote_plan`)
  and reused by every vote of a solve;
* the fact-graph :class:`~repro.baselines.claims.ClaimGraph`, cached per
  dataset by :func:`~repro.baselines.claims.claim_graph_session` and
  shared read-only by the six fact-graph resolvers.

Each must give exactly what a fresh computation gives.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import resolver_by_name
from repro.baselines.claims import claim_graph_session
from repro.core import kernels
from repro.core.losses import ZeroOneLoss
from repro.data.encoding import MISSING_CODE
from repro.datasets import StockConfig, generate_stock_dataset

FACT_GRAPH_RESOLVERS = ("Investment", "PooledInvestment", "2-Estimates",
                        "3-Estimates", "TruthFinder", "AccuSim")


def _oracle_vote(codes, weights, indptr, n_categories):
    """Dense ``np.add.at`` / ``argmax`` vote with the zero-total fallback."""
    sizes = np.diff(indptr)
    group = np.repeat(np.arange(sizes.shape[0]), sizes)
    weights = np.asarray(weights, dtype=np.float64)
    totals = np.bincount(group, weights=weights, minlength=sizes.shape[0])
    fallback = (totals <= 0)[group]
    weights = np.where(fallback, 1.0, weights)
    scores = np.zeros((n_categories, sizes.shape[0]))
    np.add.at(scores, (codes, group), weights)
    winners = scores.argmax(axis=0).astype(np.int32)
    winners[sizes == 0] = MISSING_CODE
    return winners


@st.composite
def vote_cases(draw):
    """Groups (empty, single-claim and larger), codes, and >= 3 weight
    vectors drawn from a small value set so ties and zeros are common."""
    n_categories = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    n_claims = int(indptr[-1])
    codes = np.array(draw(st.lists(st.integers(0, n_categories - 1),
                                   min_size=n_claims, max_size=n_claims)),
                     dtype=np.int32)
    weight_values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    weights = draw(st.lists(
        st.lists(weight_values, min_size=n_claims, max_size=n_claims),
        min_size=3, max_size=5))
    return codes, indptr, n_categories, [np.array(w) for w in weights]


class TestVoteCellPlan:
    @settings(max_examples=150, deadline=None)
    @given(case=vote_cases(),
           cells_per_claim=st.sampled_from([None, 0, float("inf")]))
    def test_reused_plan_matches_fresh_vote_and_dense_oracle(
            self, case, cells_per_claim):
        codes, indptr, n_categories, weight_vectors = case
        group = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
        plan = kernels.VoteCellPlan(codes, group, n_categories)
        with pytest.MonkeyPatch.context() as patch:
            # None keeps the natural path; 0 forces sparse, inf dense.
            if cells_per_claim is not None:
                patch.setattr(kernels, "VOTE_DENSE_CELLS_PER_CLAIM",
                              cells_per_claim)
            for weights in weight_vectors:
                fresh = kernels.segment_weighted_vote(
                    codes, weights, indptr, n_categories,
                    group_of_claim=group)
                planned = kernels.segment_weighted_vote(
                    codes, weights, indptr, n_categories,
                    group_of_claim=group, plan=plan)
                oracle = _oracle_vote(codes, weights, indptr, n_categories)
                assert planned.dtype == fresh.dtype == np.int32
                np.testing.assert_array_equal(planned, fresh)
                np.testing.assert_array_equal(planned, oracle)

    def test_view_caches_one_plan_per_category_count(self, monkeypatch):
        view = next(p for p in _stock(0).properties
                    if not p.schema.is_continuous).claim_view()
        assert view.vote_plan(2) is None  # dense shape: nothing to plan
        monkeypatch.setattr(kernels, "VOTE_DENSE_CELLS_PER_CLAIM", 0)
        plan = view.vote_plan(2_000)
        assert plan is view.vote_plan(2_000)
        rebuilt = view.vote_plan(3_000)
        assert rebuilt is not plan and rebuilt.n_categories == 3_000

    def test_zero_one_truth_step_uses_the_cached_plan(self, monkeypatch):
        monkeypatch.setattr(kernels, "VOTE_DENSE_CELLS_PER_CLAIM", 0)
        dataset = _stock(1)
        prop = next(p for p in dataset.properties
                    if not p.schema.is_continuous)
        view = prop.claim_view()
        weights = np.linspace(0.5, 2.0, dataset.n_sources)
        state = ZeroOneLoss().update_truth(prop, weights)
        plan = view.vote_plan(len(prop.codec))
        assert plan is not None and view.vote_plan(len(prop.codec)) is plan
        fresh = kernels.segment_weighted_vote(
            view.values, view.claim_weights(weights), view.indptr,
            len(prop.codec), group_of_claim=view.object_idx)
        np.testing.assert_array_equal(state.column, fresh)


def _stock(seed: int):
    return generate_stock_dataset(
        StockConfig(seed=seed, n_symbols=12, n_days=4)).dataset


def _fit_arrays(result):
    return ([np.asarray(c) for c in result.truths.columns],
            np.asarray(result.weights), result.iterations)


class TestSharedClaimGraph:
    @pytest.mark.parametrize("method", FACT_GRAPH_RESOLVERS)
    def test_warm_and_cold_graph_give_identical_fits(self, method):
        cold_data = _stock(3)
        assert getattr(cold_data, "_claim_graph_cache", None) is None
        cold = _fit_arrays(resolver_by_name(method).fit(cold_data))
        warm_data = _stock(3)
        for other in FACT_GRAPH_RESOLVERS:
            resolver_by_name(other).fit(warm_data)
        graph = warm_data._claim_graph_cache
        warm = _fit_arrays(resolver_by_name(method).fit(warm_data))
        assert warm_data._claim_graph_cache is graph
        for got, want in zip(warm[0], cold[0]):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(warm[1], cold[1])
        assert warm[2] == cold[2]

    def test_resolvers_share_one_graph_per_dataset(self):
        dataset = _stock(4)
        graphs = []
        for method in FACT_GRAPH_RESOLVERS:
            session, graph = claim_graph_session(
                resolver_by_name(method), dataset)
            session.close()
            graphs.append(graph)
        assert all(graph is graphs[0] for graph in graphs)
        other_session, other = claim_graph_session(
            resolver_by_name("Investment"), _stock(4))
        other_session.close()
        assert other is not graphs[0]

    def test_cached_graph_arrays_are_read_only(self):
        dataset = _stock(5)
        session, graph = claim_graph_session(
            resolver_by_name("2-Estimates"), dataset)
        session.close()
        arrays = [getattr(graph, f.name) for f in dataclasses.fields(graph)
                  if isinstance(getattr(graph, f.name), np.ndarray)]
        assert len(arrays) == 8
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
