"""Seeded inputs, operation accounting and tiny-size workload runs."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from conftest import BENCH, ROOT

import harness
import spans
import workloads

TINY = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _build(name, seed):
    meter = harness.Meter(spans.NullRecorder())
    return workloads.WORKLOADS[name].build(seed, TINY, meter)


def _arrays(dataset):
    """Every claim array of a dense or sparse dataset, in order."""
    out = []
    for prop in dataset.properties:
        view = prop.claim_view()
        out += [view.values, view.source_idx, view.indptr]
    return out


@pytest.mark.parametrize("name", ["adult-scale", "sparse-claims",
                                  "serve-stream"])
def test_inputs_are_the_same_for_a_seed(name):
    first, again, other = _build(name, 3), _build(name, 3), _build(name, 4)
    for a, b in zip(_arrays(first["dataset"]), _arrays(again["dataset"])):
        np.testing.assert_array_equal(a, b)
    assert first["targets"] == again["targets"]
    assert any(
        a.shape != b.shape or not np.array_equal(a, b)
        for a, b in zip(_arrays(first["dataset"]),
                        _arrays(other["dataset"])))


def test_stock_inputs_are_the_same_for_a_seed():
    stock = workloads.WORKLOADS["stock-table"]
    first, again = _build("stock-table", 3), _build("stock-table", 3)
    assert first["targets"] == again["targets"]
    meter = harness.Meter(spans.NullRecorder())
    one = stock.body(first, meter, None, stock.prepare(first, None))
    two = stock.body(again, meter, None, stock.prepare(again, None))
    assert one["dataset_seed"] == two["dataset_seed"] == 3
    assert one["scores"] == two["scores"]
    assert sum(meter.failed.values()) == 0


def test_stock_iterations_walk_consecutive_generator_seeds():
    stock = workloads.WORKLOADS["stock-table"]
    inputs = _build("stock-table", 62)
    seeds = [stock.prepare(inputs, None).seed for _ in range(4)]
    assert seeds == [62, 63, 0, 1]


def test_sparse_claims_shape():
    matrix = workloads.build_sparse_claims(seed=0, n_objects=2000)
    assert matrix.n_sources == workloads.SPARSE_SOURCES
    density = matrix.n_observations() / (3 * 50 * 2000)
    assert 0.045 < density <= 0.05
    assert len(matrix.codecs()["label"]) == workloads.SPARSE_LABELS


def test_a_failing_operation_is_counted_and_the_run_continues():
    meter = harness.Meter(spans.NullRecorder())
    meter.start_iteration()

    def boom():
        raise RuntimeError("injected")

    assert meter.call("fit", "baselines.fit.X", boom,
                      latency="write") is None
    assert meter.call("fit", "baselines.fit.Y", lambda: 7,
                      latency="write") == 7
    meter.check("ok", lambda: None)
    meter.check("mismatch", lambda: "values differ")
    meter.check("raises", lambda: 1 / 0)
    assert meter.attempted == {"fit": 2, "check": 3}
    assert meter.failed == {"fit": 1, "check": 2}
    assert len(meter.log["write"]) == 1
    assert "injected" in meter.errors[0]


def test_stored_scores_cover_the_documented_seeds():
    stored = json.loads(workloads.EXPECTED_STOCK.read_text())
    assert stored["scale"] == 1
    assert set(stored["seeds"]) == {str(s) for s in range(64)}
    for scores in stored["seeds"].values():
        assert set(scores) == {*workloads.PAPER_METHOD_ORDER, "I-CRH"}


def test_score_comparison_flags_a_changed_score():
    want = {"CRH": [0.1, 0.5], "Mean": [None, 0.7]}
    assert workloads.compare_scores(want, want, 0) is None
    assert workloads.compare_scores(
        {"CRH": [0.1, 0.5 * (1 + 1e-12)], "Mean": [None, 0.7]}, want,
        1e-9) is None
    assert "CRH error rate" in workloads.compare_scores(
        {"CRH": [0.2, 0.5], "Mean": [None, 0.7]}, want, 1e-9)
    assert "Mean MNAD" in workloads.compare_scores(
        {"CRH": [0.1, 0.5], "Mean": [None, 0.8]}, want, 1e-9)


#: On a stream this small, one 100-claim ingest leaves at least half of
#: all objects dirty, so the recompute planner takes its "full" scope and
#: re-resolves already-sealed objects under later weights.  The served
#: truths then differ from batch ``icrh`` (and depend on the ingest batch
#: size): a defect in ``repro.streaming``, which the check reports.
PLANNER_FULL_SCOPE = pytest.mark.xfail(
    strict=True, reason="full-scope recompute rewrites sealed truths")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [
    "adult-scale", "sparse-claims", "stock-table",
    pytest.param("serve-stream", marks=PLANNER_FULL_SCOPE),
])
def test_tiny_run_of_each_workload(name, trace):
    report = harness.run_workload(name, 2, 0.0, trace, scale=TINY,
                                  root=ROOT, probes=False)
    result = report["result"]
    assert result["correct"], report["detail"]["errors"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    provenance = report["detail"]["provenance"]
    assert provenance["seed"] == 2
    assert set(provenance["sizes"]) == {"claims", "objects", "sources",
                                        "max_categories"}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_cli_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_cli_workload_names_match_the_workloads():
    import run

    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in SPEC["workloads"]}


def test_cli_rejects_a_negative_seed():
    import run

    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "serve-stream", "--seed", "-1"])
    assert run.parse_args(["--workload", "serve-stream"]).seed == 1


def test_stop_children_reaps_workers_and_the_resource_tracker():
    # In a fresh interpreter: shared memory starts the resource tracker,
    # which would otherwise outlive the run as an orphan.
    script = """
import os, sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context, resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
import harness
segment = shared_memory.SharedMemory(create=True, size=64)
pool = ProcessPoolExecutor(1, mp_context=get_context("fork"))
pool.submit(abs, -1).result()
workers = [p.pid for p in pool._processes.values()]
pool.shutdown(wait=False)
segment.close()
segment.unlink()
tracker = resource_tracker._resource_tracker._pid
harness.stop_children()
for pid in workers + [tracker]:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        continue
    print("alive", pid)
print("done")
"""
    done = subprocess.run([sys.executable, "-c", script, str(BENCH)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["done"]
