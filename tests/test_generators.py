"""Tests for the workload generators: invariants, scales, determinism."""

import numpy as np
import pytest

from repro.data import validate_dataset, validate_truth_alignment
from repro.data.encoding import CategoricalCodec
from repro.data.schema import PropertyKind
from repro.datasets import (
    ADULT_ROUNDING,
    PAPER_GAMMAS,
    FlightConfig,
    StockConfig,
    WeatherConfig,
    dataset_statistics,
    generate_adult_truth,
    generate_bank_truth,
    generate_flight_dataset,
    generate_stock_dataset,
    generate_weather_dataset,
    reliable_unreliable_mix,
    simulate_sources,
)
from repro.datasets import stock as stock_module
from repro.metrics import rank_agreement, true_source_reliability


class TestWeatherGenerator:
    def test_paper_scale_statistics(self):
        generated = generate_weather_dataset(seed=7)
        stats = dataset_statistics("w", generated.dataset, generated.truth)
        assert stats.n_entries == 1_920                 # 640 objects x 3
        assert stats.n_ground_truths == 1_740           # 580 objects x 3
        assert 13_000 < stats.n_observations < 17_280   # ~7-22% missing

    def test_structure(self, small_weather):
        dataset = small_weather.dataset
        assert dataset.n_sources == 9
        assert dataset.schema.names() == ("high_temp", "low_temp",
                                          "condition")
        assert validate_dataset(dataset).ok
        assert validate_truth_alignment(dataset, small_weather.truth).ok
        assert dataset.object_timestamps is not None

    def test_high_above_low(self, small_weather):
        high = small_weather.dataset.property_observations("high_temp")
        low = small_weather.dataset.property_observations("low_temp")
        both = ~np.isnan(high.values) & ~np.isnan(low.values)
        assert (low.values[both] < high.values[both]).all()

    def test_reliability_tracks_error_scale(self, small_weather):
        actual = true_source_reliability(small_weather.dataset,
                                         small_weather.truth)
        # Higher generative error scale -> lower measured reliability.
        assert rank_agreement(-small_weather.source_error_scale,
                              actual) > 0.7

    def test_deterministic(self):
        a = generate_weather_dataset(seed=9)
        b = generate_weather_dataset(seed=9)
        np.testing.assert_array_equal(
            a.dataset.property_observations("high_temp").values,
            b.dataset.property_observations("high_temp").values,
        )

    def test_seed_changes_data(self):
        a = generate_weather_dataset(seed=9)
        b = generate_weather_dataset(seed=10)
        assert not np.array_equal(
            a.dataset.property_observations("high_temp").values,
            b.dataset.property_observations("high_temp").values,
            equal_nan=True,
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WeatherConfig(n_cities=0)
        with pytest.raises(ValueError):
            WeatherConfig(missing_rate_range=(0.5, 0.2))
        with pytest.raises(ValueError):
            WeatherConfig(condition_bias=1.5)


class TestStockGenerator:
    def test_structure(self):
        generated = generate_stock_dataset(StockConfig(
            n_symbols=20, n_days=5, n_sources=15, seed=1,
        ))
        dataset = generated.dataset
        assert dataset.n_sources == 15
        assert dataset.n_objects == 100
        assert len(dataset.schema.continuous_indices) == 3
        assert len(dataset.schema.categorical_indices) == 13
        assert validate_dataset(
            dataset, require_all_sources_active=False
        ).ok

    def test_heavy_tailed_continuous(self):
        generated = generate_stock_dataset(seed=2)
        caps = generated.truth.column("market_cap")
        labeled = caps[~np.isnan(caps)]
        assert labeled.max() / np.median(labeled) > 10

    def test_partial_ground_truth(self):
        config = StockConfig(n_symbols=50, n_days=5, seed=3)
        generated = generate_stock_dataset(config)
        n_entries = generated.dataset.n_entries()
        assert generated.truth.n_truths() < n_entries * 0.2

    def test_deterministic(self):
        a = generate_stock_dataset(seed=4)
        b = generate_stock_dataset(seed=4)
        np.testing.assert_array_equal(
            a.dataset.property_observations("volume").values,
            b.dataset.property_observations("volume").values,
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StockConfig(n_feeds=1)
        with pytest.raises(ValueError):
            StockConfig(official_fraction=0.0)



def _encode_per_value(codec, values):
    """The reference encoding: one ``_fmt`` + ``encode`` per value."""
    return np.fromiter(
        (codec.encode(stock_module._fmt(v)) for v in np.ravel(values)),
        dtype=np.int32, count=np.size(values),
    ).reshape(np.shape(values))


class TestStockEncoding:
    """Encoding each distinct value once matches the per-value loop."""

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_generated_dataset_bit_identical(self, seed, monkeypatch):
        config = StockConfig(n_symbols=30, n_days=6, seed=seed)
        fast = generate_stock_dataset(config)
        monkeypatch.setattr(stock_module, "_encode_formatted",
                            _encode_per_value)
        reference = generate_stock_dataset(config)
        for got, want in zip(fast.dataset.properties,
                             reference.dataset.properties):
            assert got.values.dtype == want.values.dtype
            np.testing.assert_array_equal(got.values, want.values)
            if want.codec is not None:
                assert got.codec.labels == want.codec.labels
        for got, want in zip(fast.truth.columns, reference.truth.columns):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 0.0, -0.0],
        [-0.001, 0.0, -0.0, 0.001],         # all but 0.001 -> "-0.00"
        [np.nan, 1.0, np.nan, -np.nan],
        [1.001, 1.004, 1.0, 0.996, 1.001],  # distinct floats, one label
        [[2.5, -0.0], [0.0, 2.5], [np.inf, -np.inf]],
        [],
    ])
    def test_edge_values_match_per_value_encoding(self, values):
        values = np.asarray(values, dtype=np.float64)
        fast = CategoricalCodec(["1.00"])
        reference = CategoricalCodec(["1.00"])
        got = stock_module._encode_formatted(fast, values)
        want = _encode_per_value(reference, values)
        assert got.dtype == np.int32 and got.shape == values.shape
        np.testing.assert_array_equal(got, want)
        assert fast.labels == reference.labels

    def test_negative_zero_is_its_own_label(self):
        codec = CategoricalCodec()
        codes = stock_module._encode_formatted(
            codec, np.array([0.0, -0.0, -0.001]))
        assert codec.labels == ("0.00", "-0.00")
        assert codes.tolist() == [0, 1, 1]

class TestFlightGenerator:
    def test_structure(self):
        generated = generate_flight_dataset(FlightConfig(
            n_flights=30, n_days=5, seed=1,
        ))
        dataset = generated.dataset
        assert dataset.n_sources == 38
        assert len(dataset.schema.continuous_indices) == 4
        assert len(dataset.schema.categorical_indices) == 2

    def test_actual_times_carry_delays(self):
        generated = generate_flight_dataset(seed=2)
        sched = generated.truth.column("scheduled_departure")
        actual = generated.truth.column("actual_departure")
        labeled = ~np.isnan(sched)
        delays = actual[labeled] - sched[labeled]
        assert delays.max() > 20          # heavy late tail exists
        assert np.median(np.abs(delays)) < 30

    def test_stale_sources_marked_unreliable(self):
        generated = generate_flight_dataset(seed=3)
        # error scale >= 30 marks the stale sources
        assert (generated.source_error_scale >= 30).sum() == \
            round(0.35 * 38)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlightConfig(stale_fraction=1.5)
        with pytest.raises(ValueError):
            FlightConfig(gate_change_rate=-0.1)


class TestUCIGenerators:
    def test_adult_schema_shape(self):
        truth = generate_adult_truth(200, seed=0)
        assert len(truth.schema) == 14
        kinds = [p.kind for p in truth.schema]
        assert kinds.count(PropertyKind.CONTINUOUS) == 6
        assert kinds.count(PropertyKind.CATEGORICAL) == 8
        assert truth.n_truths() == 200 * 14

    def test_bank_schema_shape(self):
        truth = generate_bank_truth(200, seed=0)
        assert len(truth.schema) == 16
        kinds = [p.kind for p in truth.schema]
        assert kinds.count(PropertyKind.CONTINUOUS) == 7
        assert kinds.count(PropertyKind.CATEGORICAL) == 9

    def test_adult_marginals_plausible(self):
        truth = generate_adult_truth(5_000, seed=1)
        age = truth.column("age")
        assert 17 <= age.min() and age.max() <= 90
        hours = truth.column("hours_per_week")
        assert 35 <= np.median(hours) <= 45
        gain = truth.column("capital_gain")
        assert (gain == 0).mean() > 0.8     # most people: no capital gain

    def test_full_scale_entry_arithmetic(self):
        """Table 3: 32,561 x 14 = 455,854 entries at full scale."""
        from repro.datasets import ADULT_FULL_OBJECTS, BANK_FULL_OBJECTS
        assert ADULT_FULL_OBJECTS * 14 == 455_854
        assert BANK_FULL_OBJECTS * 16 == 723_376

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_adult_truth(0)
        with pytest.raises(ValueError):
            generate_bank_truth(-5)


class TestSimulateSources:
    def test_shapes_and_alignment(self):
        truth = generate_adult_truth(300, seed=5)
        dataset = simulate_sources(truth, PAPER_GAMMAS,
                                   np.random.default_rng(5),
                                   rounding=ADULT_ROUNDING)
        assert dataset.n_sources == 8
        assert dataset.n_objects == 300
        assert validate_truth_alignment(dataset, truth).ok
        assert dataset.n_observations() == 300 * 14 * 8

    def test_reliable_source_perfect_on_categorical(self):
        truth = generate_adult_truth(300, seed=5)
        dataset = simulate_sources(truth, [0.1, 2.0],
                                   np.random.default_rng(5))
        for m in dataset.schema.categorical_indices:
            obs = dataset.properties[m].values
            np.testing.assert_array_equal(obs[0], truth.columns[m])

    def test_missing_rate_applied(self):
        truth = generate_adult_truth(500, seed=6)
        dataset = simulate_sources(truth, PAPER_GAMMAS,
                                   np.random.default_rng(6),
                                   missing_rate=0.3)
        total = 500 * 14 * 8
        observed = dataset.n_observations()
        assert observed == pytest.approx(total * 0.7, rel=0.05)

    def test_reliability_ordering_recovered(self):
        truth = generate_adult_truth(800, seed=7)
        dataset = simulate_sources(truth, PAPER_GAMMAS,
                                   np.random.default_rng(7),
                                   rounding=ADULT_ROUNDING)
        actual = true_source_reliability(dataset, truth)
        assert (np.diff(actual) <= 1e-9).all()   # gammas are increasing

    def test_input_validation(self):
        truth = generate_adult_truth(10, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least one"):
            simulate_sources(truth, [], rng)
        with pytest.raises(ValueError, match="missing_rate"):
            simulate_sources(truth, [1.0], rng, missing_rate=1.0)
        with pytest.raises(ValueError, match="source ids"):
            simulate_sources(truth, [1.0, 2.0], rng, source_ids=["only"])


class TestReliableUnreliableMix:
    def test_composition(self):
        gammas = reliable_unreliable_mix(3)
        assert gammas == [0.1] * 3 + [2.0] * 5

    def test_bounds(self):
        assert reliable_unreliable_mix(0) == [2.0] * 8
        assert reliable_unreliable_mix(8) == [0.1] * 8
        with pytest.raises(ValueError):
            reliable_unreliable_mix(9)
