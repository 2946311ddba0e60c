"""Profiler behavior: spans, kernel counters, flush deltas, neutrality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.solver import crh
from repro.observability import (
    JsonlProfiler,
    MemoryProfiler,
    MemoryTracer,
    NullProfiler,
    Profiler,
    RunReport,
    profile_record,
)
from repro.observability.profiling import activate, peak_rss_kib, span
from repro.parallel import parallel_crh
from repro.streaming import icrh

from .conftest import make_synthetic


@pytest.fixture()
def workload():
    dataset, _ = make_synthetic(n_objects=40)
    return dataset


class TestProtocolAndNull:
    def test_all_profilers_satisfy_protocol(self):
        assert isinstance(NullProfiler(), Profiler)
        assert isinstance(MemoryProfiler(), Profiler)

    def test_null_profiler_is_disabled_and_inert(self):
        prof = NullProfiler()
        assert prof.enabled is False
        with prof.phase("anything"):
            pass
        prof.record_kernel("k", 1.0)
        assert prof.flush_to(MemoryTracer()) == 0
        prof.close()

    def test_span_is_noop_for_none_and_disabled(self):
        with span(None, "x"):
            pass
        with span(NullProfiler(), "x"):
            pass

    def test_peak_rss_is_positive_on_posix(self):
        rss = peak_rss_kib()
        assert rss is None or rss > 0


class TestPhaseSpans:
    def test_nested_phases_join_with_slash(self):
        prof = MemoryProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                pass
        totals = prof.phase_totals()
        assert set(totals) == {"outer", "outer/inner"}
        assert totals["outer"] >= totals["outer/inner"]

    def test_reentering_a_path_accumulates(self):
        prof = MemoryProfiler()
        for _ in range(3):
            with prof.phase("step"):
                pass
        assert prof.phase_calls() == {"step": 3}
        assert len(prof.phase_totals()) == 1

    def test_memory_mode_tracks_top_level_phases_only(self):
        prof = MemoryProfiler(memory=True)
        with prof:
            with prof.phase("outer"):
                with prof.phase("inner"):
                    _ = np.zeros(200_000)
        traced = prof.phase_memory()
        assert "outer" in traced and "outer/inner" not in traced
        assert traced["outer"] > 0


class TestKernelAttribution:
    def test_kernels_record_only_when_activated(self):
        values = np.array([1.0, 2.0, 3.0])
        weights = np.ones(3)
        starts = np.array([0, 3])
        prof = MemoryProfiler()
        kernels.segment_weighted_mean(values, weights, starts)
        assert prof.kernel_calls() == {}
        with activate(prof):
            kernels.segment_weighted_mean(values, weights, starts)
            kernels.segment_weighted_mean(values, weights, starts)
        assert prof.kernel_calls()["segment_weighted_mean"] == 2
        assert prof.kernel_totals()["segment_weighted_mean"] > 0

    def test_activate_restores_previous_profiler(self):
        outer, inner = MemoryProfiler(), MemoryProfiler()
        values = np.array([1.0])
        one = np.ones(1)
        starts = np.array([0, 1])
        with activate(outer):
            with activate(inner):
                kernels.segment_weighted_mean(values, one, starts)
            kernels.segment_weighted_mean(values, one, starts)
        assert inner.kernel_calls()["segment_weighted_mean"] == 1
        assert outer.kernel_calls()["segment_weighted_mean"] == 1

    def test_wrapped_kernel_matches_raw_kernel(self):
        rng = np.random.default_rng(7)
        values = rng.normal(0, 1, 500)
        weights = rng.uniform(0.1, 1, 500)
        starts = np.searchsorted(np.sort(rng.integers(0, 50, 500)),
                                 np.arange(51))
        wrapped = kernels.segment_weighted_median(values, weights, starts)
        raw = kernels.segment_weighted_median.__wrapped__(
            values, weights, starts)
        np.testing.assert_array_equal(wrapped, raw)


class TestEngineNeutralityAndBreakdown:
    def test_solver_results_bit_identical_with_profiler(self, workload):
        plain = crh(workload, seed=3)
        profiled = crh(workload, seed=3, profiler=MemoryProfiler())
        np.testing.assert_array_equal(plain.weights, profiled.weights)
        for a, b in zip(plain.truths.columns, profiled.truths.columns):
            np.testing.assert_array_equal(a, b)

    def test_solver_phases_cover_algorithm_steps(self, workload):
        prof = MemoryProfiler()
        crh(workload, profiler=prof)
        assert {"setup", "weight_step", "truth_step",
                "objective", "finalize"} <= set(prof.phase_totals())
        assert prof.kernel_calls()  # segment kernels were attributed

    def test_parallel_phases_and_flush(self, workload):
        prof, tracer = MemoryProfiler(), MemoryTracer()
        parallel_crh(workload, tracer=tracer, profiler=prof)
        report = RunReport(tracer.records)
        breakdown = report.phase_breakdown()
        assert {"prepare", "truth_step", "weight_step",
                "assemble"} <= set(breakdown)
        assert report.hotspots()  # kernel records made it into the trace

    def test_streaming_phases(self, small_weather):
        prof = MemoryProfiler()
        icrh(small_weather.dataset, window=2, profiler=prof)
        assert {"setup", "truth_step", "accumulate",
                "weight_step"} <= set(prof.phase_totals())


class TestFlushDeltas:
    def test_flush_emits_deltas_not_cumulative_totals(self, workload):
        prof, tracer = MemoryProfiler(), MemoryTracer()
        crh(workload, tracer=tracer, profiler=prof)
        crh(workload, tracer=tracer, profiler=prof)
        report = RunReport(tracer.records)
        # Two runs flushed; per-phase trace seconds must equal the
        # profiler's own totals (no double counting of run 1 in run 2).
        breakdown = report.phase_breakdown()
        for path, total in prof.phase_totals().items():
            assert breakdown[path] == pytest.approx(total)
        calls = {r["kernel"]: 0 for r in report.profiles()
                 if "kernel" in r}
        for r in report.profiles():
            if "kernel" in r:
                calls[r["kernel"]] += r["calls"]
        assert calls == prof.kernel_calls()

    def test_flush_with_no_new_activity_emits_nothing(self):
        prof, tracer = MemoryProfiler(), MemoryTracer()
        with prof.phase("p"):
            pass
        assert prof.flush_to(tracer) > 0
        assert prof.flush_to(tracer) == 0


class TestJsonlProfiler:
    def test_records_round_trip_through_file(self, workload, tmp_path):
        path = tmp_path / "profile.jsonl"
        prof = JsonlProfiler(path)
        crh(workload, profiler=prof)
        prof.close()
        report = RunReport.from_file(path)
        assert report.phase_breakdown()
        assert report.hotspots()

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "profile.jsonl"
        prof = JsonlProfiler(path)
        with prof.phase("p"):
            pass
        prof.close()
        prof.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1


class TestProfileRecord:
    def test_requires_exactly_one_subject(self):
        with pytest.raises(ValueError):
            profile_record(seconds=1.0, calls=1)
        with pytest.raises(ValueError):
            profile_record(phase="p", kernel="k", seconds=1.0, calls=1)

    def test_summary_renders_phases_and_hotspots(self, workload):
        prof, tracer = MemoryProfiler(memory=True), MemoryTracer()
        # Closing stops the tracemalloc tracer the profiler started,
        # which would otherwise slow every later test in the session.
        with prof:
            crh(workload, tracer=tracer, profiler=prof)
        summary = RunReport(tracer.records).summary()
        assert "phases:" in summary
        assert "hot kernels:" in summary


class TestRecordPhase:
    """Externally measured time (worker busy seconds) folded into the
    phase table via :meth:`Profiler.record_phase`."""

    def test_memory_profiler_accumulates(self):
        prof = MemoryProfiler()
        prof.record_phase("truth_step/workers", 0.25, calls=4)
        prof.record_phase("truth_step/workers", 0.15, calls=4)
        prof.record_phase("objective/workers", 0.1)
        assert prof.phase_totals()["truth_step/workers"] == \
            pytest.approx(0.4)
        assert prof.phase_calls()["truth_step/workers"] == 8
        assert prof.phase_calls()["objective/workers"] == 1

    def test_null_profiler_is_inert(self):
        NullProfiler().record_phase("x", 1.0)

    def test_flush_emits_recorded_phase(self):
        prof = MemoryProfiler()
        prof.record_phase("truth_step/workers", 0.5, calls=2)
        tracer = MemoryTracer()
        prof.flush_to(tracer)
        (record,) = [r for r in tracer.records
                     if r.get("phase") == "truth_step/workers"]
        assert record["seconds"] == pytest.approx(0.5)
        assert record["calls"] == 2

    def test_process_run_records_worker_phases(self, workload):
        prof = MemoryProfiler()
        crh(workload, backend="process", max_iterations=4, n_workers=2,
            profiler=prof)
        totals = prof.phase_totals()
        assert "truth_step/workers" in totals
        assert "objective/workers" in totals
        assert totals["truth_step/workers"] >= 0.0
