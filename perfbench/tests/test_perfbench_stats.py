"""Percentiles, their sample counts, and the metric-name rules."""

import json
import random

import numpy as np
import pytest
from conftest import ROOT

import stats


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
@pytest.mark.parametrize("q", [0, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(n, q):
    rng = random.Random(n * 1000 + q)
    values = [rng.expovariate(1.0) for _ in range(n)]
    assert stats.percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)), rel=1e-12, abs=1e-15)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_median_of_even_count_interpolates():
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_samples_beyond_the_p99():
    assert stats.samples_beyond(1000, 99) == pytest.approx(10)
    assert stats.samples_beyond(48, 99) < 1


def test_summarize_reports_the_sample_count():
    summary = stats.summarize(range(1, 101))
    assert summary["n"] == 100
    assert summary["median"] == 50.5
    assert summary["min"] == 1 and summary["max"] == 100
    assert summary["p25"] <= summary["median"] <= summary["p75"]
    assert summary["beyond_p99"] == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["run_s", "core.crh_s", "a", "9x",
                                  "streaming.replay_over_batch",
                                  "x" * 64])
def test_valid_metric_names(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_run", ".x", "run s", "run/s",
                                  "x" * 65, "é"])
def test_invalid_metric_names(name):
    assert not stats.valid_metric_name(name)


@pytest.mark.parametrize("unit", ["s", "ms", "1/s", "claims/s", "%",
                                  "MiB", "count"])
def test_valid_units(unit):
    assert stats.valid_unit(unit)


@pytest.mark.parametrize("unit", ["", "m s", "x" * 17])
def test_invalid_units(unit):
    assert not stats.valid_unit(unit)


def test_benchmark_json_follows_the_naming_rules():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(stats.valid_metric_name(n) for n in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert stats.valid_unit(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json")
                           .read_text())["layers"]
    assert set(layer_map) == {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= workloads
