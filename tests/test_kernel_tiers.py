"""Kernel-tier dispatch, fused sweep, and compiled-core bit-identity.

The tier invariant mirrors the backend invariant: ``kernel_tier`` is an
*implementation* choice, never a numerical one.  This suite pins:

* dispatch resolution (explicit request / session default / auto /
  NumPy fallback with a traced ``kernel_tier_reason``);
* bit-identity of the compiled cores against the NumPy kernels — the
  cores are importable as plain Python without numba (the ``njit``
  stub), so the algorithm-level fuzz runs on numba-free machines too,
  and a numba-marked variant re-runs it compiled where numba exists;
* the fused sweep (cached median plans, precomputed effective weights,
  preallocated deviation scratch) being pure reuse;
* the vote kernel's sparse-scores fallback: same winners, O(claims)
  peak memory instead of O(categories * objects);
* the solver stamping ``kernel_tier`` / ``kernel_tier_reason`` into
  ``run_start`` traces.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dispatch, kernels
from repro.core import kernels_numba as kn
from repro.core.solver import CRHConfig, crh
from repro.core.sweep import resolve_properties
from repro.data import ClaimsMatrix
from repro.data.encoding import MISSING_CODE
from repro.observability import MemoryTracer

from .test_engine_equivalence import _assert_truths_equal, _fuzz_dataset

requires_numba = pytest.mark.skipif(
    not kn.NUMBA_AVAILABLE, reason="numba is not installed"
)


@pytest.fixture(autouse=True)
def _restore_tier_state():
    """Every test leaves the process on the NumPy tier, default unset."""
    yield
    dispatch.ensure_tier("numpy")
    dispatch.set_kernel_tier(None)


def _segment_case(seed: int, n_groups: int = 14, max_size: int = 24):
    """Random segmented claims: ties, empty and zero-total groups."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, max_size, n_groups)
    sizes[rng.integers(0, n_groups)] = 0
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    n = int(indptr[-1])
    group = np.repeat(np.arange(n_groups), sizes)
    values = np.round(rng.normal(size=n), 1)
    weights = rng.random(n) * rng.choice([0.0, 1e-7, 1.0, 1e7], n)
    if n_groups > 1 and sizes[1] > 0:
        weights[group == 1] = 0.0  # zero-total group -> uniform fallback
    codes = rng.integers(0, 6, n).astype(np.int32)
    return values, weights, codes, indptr, group


class TestResolve:
    def test_explicit_numpy(self):
        assert dispatch.resolve_kernel_tier("numpy") == \
            ("numpy", "explicit request")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="kernel_tier must be one of"):
            dispatch.resolve_kernel_tier("fortran")

    def test_numba_request_matches_availability(self):
        available, why = dispatch.numba_tier_status()
        tier, reason = dispatch.resolve_kernel_tier("numba")
        if available:
            assert (tier, reason) == ("numba", "explicit request")
        else:
            assert tier == "numpy"
            assert reason == \
                f"numba tier unavailable, NumPy fallback: {why}"

    def test_auto_follows_numba_availability(self):
        available, why = dispatch.numba_tier_status()
        tier, reason = dispatch.resolve_kernel_tier("auto")
        if available:
            assert tier == "numba"
            assert reason == \
                "auto: compiled tier available (self-check passed)"
        else:
            assert (tier, reason) == ("numpy", f"auto: {why}")

    def test_session_default_drives_auto(self):
        with dispatch.use_kernel_tier("numpy"):
            assert dispatch.resolve_kernel_tier("auto") == \
                ("numpy", "session default")
        assert dispatch.get_kernel_tier() is None

    def test_set_kernel_tier_validates_and_clears(self):
        with pytest.raises(ValueError, match="kernel tier must be one of"):
            dispatch.set_kernel_tier("fast")
        dispatch.set_kernel_tier("numpy")
        assert dispatch.get_kernel_tier() == "numpy"
        dispatch.set_kernel_tier("auto")
        assert dispatch.get_kernel_tier() is None


class TestActivation:
    def test_default_registry_is_empty(self):
        assert dispatch.active_kernel_tier() == "numpy"
        for name in dispatch.COMPILED_KERNELS:
            assert dispatch.kernel_override(name) is None

    def test_activate_tier_installs_and_restores(self):
        with dispatch.activate_tier("numba"):
            assert dispatch.active_kernel_tier() == "numba"
            assert dispatch.kernel_override(
                "segment_weighted_median") is kn.median_core
            assert dispatch.kernel_override(
                "segment_weighted_vote") is kn.vote_core
            assert dispatch.kernel_override(
                "accumulate_source_deviations") is kn.accumulate_core
        assert dispatch.active_kernel_tier() == "numpy"
        assert dispatch.kernel_override("segment_weighted_median") is None

    def test_activate_tier_rejects_unresolved(self):
        with pytest.raises(ValueError, match="resolved tier"):
            with dispatch.activate_tier("auto"):
                pass  # pragma: no cover

    def test_ensure_tier_is_idempotent(self):
        dispatch.ensure_tier("numba")
        dispatch.ensure_tier("numba")
        assert dispatch.active_kernel_tier() == "numba"
        dispatch.ensure_tier("numpy")
        assert dispatch.kernel_override("segment_weighted_vote") is None
        with pytest.raises(ValueError, match="resolved tier"):
            dispatch.ensure_tier("auto")


class TestCoreBitIdentity:
    """The compiled cores against the NumPy kernels, algorithm level.

    Runs the core bodies as plain Python where numba is absent — same
    arithmetic, same order — so the construction is verified everywhere;
    the compiled path re-verifies via :func:`dispatch.numba_tier_status`
    and the solver equivalence below.
    """

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_median_core_matches_numpy(self, seed):
        values, weights, _, indptr, group = _segment_case(seed)
        expected = kernels.segment_weighted_median(
            values, weights, indptr, group_of_claim=group)
        with dispatch.activate_tier("numba"):
            got = kernels.segment_weighted_median(
                values, weights, indptr, group_of_claim=group)
        assert np.array_equal(expected, got, equal_nan=True)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_vote_core_matches_numpy(self, seed):
        values, weights, codes, indptr, group = _segment_case(seed)
        expected = kernels.segment_weighted_vote(
            codes, weights, indptr, 6, group_of_claim=group)
        with dispatch.activate_tier("numba"):
            got = kernels.segment_weighted_vote(
                codes, weights, indptr, 6, group_of_claim=group)
        assert np.array_equal(expected, got)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_accumulate_core_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 200))
        deviations = rng.normal(size=n)
        deviations[rng.random(n) < 0.15] = np.nan
        source_idx = rng.integers(0, 9, n).astype(np.int32)
        expected = kernels.accumulate_source_deviations(
            deviations, source_idx, 9)
        with dispatch.activate_tier("numba"):
            got = kernels.accumulate_source_deviations(
                deviations, source_idx, 9)
        assert np.array_equal(expected[0], got[0])
        assert np.array_equal(expected[1], got[1])

    def test_self_check_passes_on_this_numpy_build(self):
        """The activation-time guard agrees with the fuzz above."""
        assert dispatch._self_check() is None


class TestFusedSweepReuse:
    """Plans / effective weights / scratch are pure reuse, bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_median_plan_and_effective_are_pure_reuse(self, seed):
        values, weights, codes, indptr, group = _segment_case(seed)
        plain = kernels.segment_weighted_median(
            values, weights, indptr, group_of_claim=group)
        plan = kernels.MedianSortPlan(
            np.asarray(values, dtype=np.float64), group)
        effective = kernels.effective_claim_weights(weights, indptr, group)
        fused = kernels.segment_weighted_median(
            values, weights, indptr, group_of_claim=group,
            plan=plan, effective=effective)
        refused = kernels.segment_weighted_median(
            values, weights, indptr, group_of_claim=group,
            plan=plan, effective=effective)  # plan scratch reused
        assert np.array_equal(plain, fused, equal_nan=True)
        assert np.array_equal(plain, refused, equal_nan=True)
        assert np.array_equal(
            kernels.segment_weighted_vote(
                codes, weights, indptr, 6, group_of_claim=group),
            kernels.segment_weighted_vote(
                codes, weights, indptr, 6, group_of_claim=group,
                effective=effective),
        )

    def test_claim_view_caches_one_plan(self):
        dataset = _fuzz_dataset(3)
        sparse = ClaimsMatrix.from_dense(dataset)
        view = sparse.properties[0].claim_view()
        plan = view.median_plan()
        assert view.median_plan() is plan
        assert isinstance(plan, kernels.MedianSortPlan)

    def test_deviation_out_buffers_are_pure_reuse(self):
        rng = np.random.default_rng(9)
        n_groups, n = 8, 60
        object_idx = np.sort(rng.integers(0, n_groups, n))
        values = rng.normal(size=n)
        truths = rng.normal(size=n_groups)
        stds = rng.uniform(0.5, 2.0, n_groups)
        out = np.empty(n, dtype=np.float64)
        for fn in (kernels.squared_claim_deviations,
                   kernels.absolute_claim_deviations):
            expected = fn(values, truths, stds, object_idx)
            got = fn(values, truths, stds, object_idx, out=out)
            assert got is out
            assert np.array_equal(expected, got)
        expected = kernels.huber_claim_deviations(
            values, truths, stds, object_idx, 1.0)
        got = kernels.huber_claim_deviations(
            values, truths, stds, object_idx, 1.0, out=out)
        assert np.array_equal(expected, got)
        pair = (np.zeros(4), np.zeros(4))
        src = rng.integers(0, 4, n).astype(np.int32)
        fresh = kernels.accumulate_source_deviations(expected, src, 4)
        reused = kernels.accumulate_source_deviations(
            expected, src, 4, out=pair)
        assert reused[0] is pair[0] and reused[1] is pair[1]
        assert np.array_equal(fresh[0], reused[0])
        assert np.array_equal(fresh[1], reused[1])

    @pytest.mark.parametrize("seed", range(3))
    def test_resolve_properties_matches_unfused_loop(self, seed):
        dataset = ClaimsMatrix.from_dense(_fuzz_dataset(seed + 40))
        from repro.core.losses import loss_by_name

        losses = [
            loss_by_name("zero_one" if prop.schema.uses_codec
                         else "absolute")
            for prop in dataset.properties
        ]
        rng = np.random.default_rng(seed)
        weights = rng.random(dataset.n_sources)
        fused = resolve_properties(dataset, losses, weights)
        unfused = [loss.update_truth(prop, weights)
                   for loss, prop in zip(losses, dataset.properties)]
        for a, b in zip(fused, unfused):
            assert np.array_equal(np.asarray(a.column),
                                  np.asarray(b.column), equal_nan=True)


def _vote_case(cells_per_claim: float, seed: int, n_groups: int = 40,
               n_claims: int = 400):
    """Segmented votes at a chosen ``n_categories * n_groups / n_claims``.

    Most claims agree on a few low codes (so groups have real winners
    and exact ties), the rest spread over the whole vocabulary; one
    group is empty and one carries only zero weights.
    """
    rng = np.random.default_rng(seed)
    n_categories = max(1, round(cells_per_claim * n_claims / n_groups))
    group = np.sort(rng.integers(0, n_groups, n_claims))
    group[group == 0] = 1                     # group 0 stays empty
    indptr = np.searchsorted(group, np.arange(n_groups + 1)).astype(
        np.int64)
    codes = np.where(rng.random(n_claims) < 0.6,
                     rng.integers(0, min(n_categories, 3), n_claims),
                     rng.integers(0, n_categories, n_claims)).astype(np.int32)
    weights = rng.choice([0.0, 0.25, 0.5, 1.0, 1e7], n_claims)
    weights[group == 2] = 0.0                 # zero total -> uniform
    return codes, weights, indptr, group, n_categories


class TestVoteSparseFallback:
    @pytest.mark.parametrize("cells_per_claim,seed", [
        # the shared _segment_case at ~0.5 cells per claim
        *(pytest.param(None, seed, id=str(seed)) for seed in range(6)),
        *(pytest.param(cells, seed, id=f"{cells:g}cells-{seed}")
          for cells in (0.1, 0.5, 1.0, 2.0, 4.0,
                        kernels.VOTE_DENSE_CELLS_PER_CLAIM - 0.1,
                        kernels.VOTE_DENSE_CELLS_PER_CLAIM,
                        kernels.VOTE_DENSE_CELLS_PER_CLAIM + 0.1,
                        16.0, 32.0, 60.0)
          for seed in range(3)),
    ])
    def test_sparse_and_dense_paths_agree(self, cells_per_claim, seed,
                                          monkeypatch):
        if cells_per_claim is None:
            _, weights, codes, indptr, group = _segment_case(seed)
            n_categories = 6
        else:
            codes, weights, indptr, group, n_categories = _vote_case(
                cells_per_claim, seed)
        vote = lambda: kernels.segment_weighted_vote(  # noqa: E731
            codes, weights, indptr, n_categories, group_of_claim=group)
        chosen = vote()
        monkeypatch.setattr(kernels, "VOTE_DENSE_CELLS_PER_CLAIM",
                            float("inf"))
        dense = vote()
        monkeypatch.setattr(kernels, "VOTE_DENSE_CELLS_PER_CLAIM", 0)
        sparse = vote()
        assert np.array_equal(dense, sparse)
        assert np.array_equal(chosen, dense)
        assert (chosen[np.diff(indptr) == 0] == MISSING_CODE).all()

    @pytest.mark.parametrize("n_claims,n_groups,n_categories,sparse", [
        (35_000, 1_000, 2_000, True),    # a stock fact property
        (71_000, 8_900, 35, False),      # an Adult categorical property
    ])
    def test_path_follows_cells_per_claim(self, n_claims, n_groups,
                                          n_categories, sparse,
                                          monkeypatch):
        calls = []
        real = kernels._sparse_weighted_vote

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "_sparse_weighted_vote", spy)
        rng = np.random.default_rng(0)
        group = np.sort(rng.integers(0, n_groups, n_claims))
        indptr = np.searchsorted(group, np.arange(n_groups + 1)).astype(
            np.int64)
        codes = rng.integers(0, n_categories, n_claims).astype(np.int32)
        winners = kernels.segment_weighted_vote(
            codes, rng.random(n_claims), indptr, n_categories,
            group_of_claim=group)
        assert winners.shape == (n_groups,)
        assert len(calls) == (1 if sparse else 0)

    def test_empty_groups_stay_missing_on_sparse_path(self, monkeypatch):
        monkeypatch.setattr(kernels, "VOTE_DENSE_CELLS_PER_CLAIM", 0)
        indptr = np.array([0, 2, 2, 3], dtype=np.int64)
        codes = np.array([4, 4, 1], dtype=np.int32)
        weights = np.array([0.5, 0.25, 1.0])
        winners = kernels.segment_weighted_vote(codes, weights, indptr, 6)
        assert winners.tolist() == [4, MISSING_CODE, 1]

    def test_huge_vocabulary_peak_memory_is_bounded(self):
        """Above the cells-per-claim threshold, peak allocation tracks
        the claim count, not the (categories x groups) score matrix —
        the dense path here would allocate 50_000 * 120 * 8 bytes =
        ~46 MiB."""
        rng = np.random.default_rng(0)
        n_categories, n_groups, n = 50_000, 120, 2_000
        assert n_categories * n_groups > \
            kernels.VOTE_DENSE_CELLS_PER_CLAIM * n
        group = np.sort(rng.integers(0, n_groups, n))
        indptr = np.searchsorted(group, np.arange(n_groups + 1)).astype(
            np.int64)
        codes = rng.integers(0, n_categories, n).astype(np.int64)
        weights = rng.random(n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            winners = kernels.segment_weighted_vote(
                codes, weights, indptr, n_categories,
                group_of_claim=group)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert winners.shape == (n_groups,)
        assert peak < 2 * 1024 * 1024, f"peak {peak} bytes"
        # and the winners match a directly computed per-group argmax
        for g in range(0, n_groups, 17):
            lo, hi = indptr[g], indptr[g + 1]
            if lo == hi:
                assert winners[g] == MISSING_CODE
                continue
            scores: dict[int, float] = {}
            for c, w in zip(codes[lo:hi], weights[lo:hi]):
                scores[int(c)] = scores.get(int(c), 0.0) + w
            best = max(sorted(scores), key=lambda c: scores[c])
            assert winners[g] == best


class TestSolverTierIntegration:
    def test_run_start_stamps_tier_and_reason(self):
        dataset = _fuzz_dataset(1, k=4, n=12)
        tracer = MemoryTracer()
        crh(dataset, backend="sparse", max_iterations=4, tracer=tracer)
        record = tracer.events("run_start")[0]
        assert record["kernel_tier"] in ("numpy", "numba")
        assert isinstance(record["kernel_tier_reason"], str)
        expected_tier, expected_reason = dispatch.resolve_kernel_tier("auto")
        assert record["kernel_tier"] == expected_tier
        assert record["kernel_tier_reason"] == expected_reason

    def test_numba_request_without_numba_falls_back_traced(self):
        dataset = _fuzz_dataset(2, k=4, n=12)
        tracer = MemoryTracer()
        result = crh(dataset, backend="sparse", kernel_tier="numba",
                     max_iterations=4, tracer=tracer)
        assert result.iterations >= 1
        record = tracer.events("run_start")[0]
        if kn.NUMBA_AVAILABLE and dispatch.numba_tier_status()[0]:
            assert record["kernel_tier"] == "numba"
        else:
            assert record["kernel_tier"] == "numpy"
            assert record["kernel_tier_reason"].startswith(
                "numba tier unavailable, NumPy fallback:")

    def test_config_rejects_unknown_tier(self):
        with pytest.raises(ValueError, match="kernel_tier must be one of"):
            CRHConfig(kernel_tier="fast")

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("cat_loss,cont_loss",
                             [("zero_one", "absolute"),
                              ("probability", "squared")])
    def test_forced_core_tier_solver_bit_identical(
            self, backend, cat_loss, cont_loss, monkeypatch):
        """Full solver through the core implementations (plain Python
        where numba is absent) against the NumPy tier."""
        monkeypatch.setattr(dispatch, "_NUMBA_STATUS", (True, None))
        dataset = _fuzz_dataset(5, k=5, n=20)
        results = {
            tier: crh(dataset, backend=backend, kernel_tier=tier,
                      categorical_loss=cat_loss,
                      continuous_loss=cont_loss, max_iterations=6)
            for tier in ("numpy", "numba")
        }
        _assert_truths_equal(results["numpy"].truths,
                             results["numba"].truths)
        assert np.array_equal(results["numpy"].weights,
                              results["numba"].weights)
        assert results["numpy"].objective_history == \
            results["numba"].objective_history

    @requires_numba
    @pytest.mark.parametrize("backend", ["dense", "sparse", "process",
                                         "mmap"])
    @pytest.mark.parametrize("seed", range(3))
    def test_numba_tier_bit_identical_across_backends(self, backend, seed):
        """The compiled tier against NumPy on every execution backend
        (runs only where numba is installed — the CI numba job)."""
        dataset = _fuzz_dataset(seed + 60)
        kwargs = {"n_workers": 2} if backend == "process" else {}
        if backend == "mmap":
            kwargs["chunk_claims"] = 64
        results = {
            tier: crh(dataset, backend=backend, kernel_tier=tier,
                      max_iterations=8, **kwargs)
            for tier in ("numpy", "numba")
        }
        _assert_truths_equal(results["numpy"].truths,
                             results["numba"].truths)
        assert np.array_equal(results["numpy"].weights,
                              results["numba"].weights)
        assert results["numpy"].objective_history == \
            results["numba"].objective_history
