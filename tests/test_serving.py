"""Tests for the layered truth-serving engine (store, planner, service).

The two load-bearing guarantees are fuzzed here:

* **replay equivalence** — ingesting a timestamped dataset claim by
  claim through :class:`TruthService` and flushing produces weights and
  truths bit-identical to the batch :func:`icrh` oracle;
* **dirty-set recompute** — re-resolving only dirty objects matches the
  full-recompute oracle on every touched object, and late claims never
  rewrite sealed weight history.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.data.records import EntryId, Record
from repro.datasets import WeatherConfig, generate_weather_dataset
from repro.observability import MemoryTracer
from repro.streaming import (
    Claim,
    ClaimStore,
    GrowableArray,
    ICRHConfig,
    RecomputePlanner,
    TruthService,
    TruthState,
    as_claim,
    icrh,
    iter_dataset_claims,
)
from repro.streaming.service import SNAPSHOT_FILES


def replay(dataset, window=1, batch=64, **kwargs) -> TruthService:
    """Ingest ``dataset`` claim by claim and flush the tail."""
    service = TruthService(dataset.schema, window=window,
                           codecs=dataset.codecs(), **kwargs)
    claims = list(iter_dataset_claims(dataset))
    for start in range(0, len(claims), batch):
        service.ingest(claims[start:start + batch])
    service.flush()
    return service


def weather(seed: int, n_cities: int = 4, n_days: int = 8):
    return generate_weather_dataset(
        WeatherConfig(n_cities=n_cities, n_days=n_days, seed=seed)
    ).dataset


class TestGrowableArray:
    def test_append_returns_index_and_preserves_values(self):
        arr = GrowableArray(np.float64, np.nan, capacity=2)
        assert [arr.append(float(i)) for i in range(5)] == [0, 1, 2, 3, 4]
        np.testing.assert_array_equal(arr.data, np.arange(5.0))

    def test_growth_is_logarithmic(self):
        arr = GrowableArray(np.int64, 0)
        for i in range(10_000):
            arr.append(i)
        assert len(arr) == 10_000
        # doubling from capacity 16: ceil(log2(10000 / 16)) = 10
        assert arr.growth_events <= 10

    def test_extend_and_resize(self):
        arr = GrowableArray(np.float64, np.nan)
        arr.extend(np.arange(3.0))
        arr.resize_to(5)
        assert len(arr) == 5
        assert np.isnan(arr.data[3:]).all()
        with pytest.raises(ValueError, match="shrink"):
            arr.resize_to(2)


class TestClaimStore:
    def test_first_appearance_registration(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        store.add(Claim("o2", "temp", "b", 1.0, 0.0))
        store.add(Claim("o1", "temp", "a", 2.0, 0.0))
        store.add(Claim("o2", "humidity", "a", 0.5, 0.0))
        assert store.object_ids == ("o2", "o1")
        assert store.source_ids == ("b", "a")
        assert store.object_position("o1") == 1
        with pytest.raises(KeyError):
            store.object_position("o9")

    def test_dirty_set_tracks_touched_objects(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        obj, created = store.add(Claim("o1", "temp", "a", 2.0, 0.0))
        assert created and store.dirty == {obj}
        store.dirty.clear()
        again, created = store.add(Claim("o1", "temp", "b", 3.0, 1.0))
        assert again == obj and not created
        assert store.dirty == {obj}

    def test_duplicate_cell_keeps_latest(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        store.add(Claim("o1", "temp", "a", 2.0, 0.0))
        store.add(Claim("o1", "temp", "a", 9.0, 1.0))
        chunk = store.dataset_for([0])
        view = chunk.properties[0].claim_view()
        np.testing.assert_array_equal(view.values, [9.0])

    def test_dataset_for_preserves_ingestion_order(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        # Two sources claim the same object, worst source first.
        store.add(Claim("o1", "temp", "z", 1.0, 0.0))
        store.add(Claim("o1", "temp", "a", 2.0, 0.0))
        view = store.dataset_for([0]).properties[0].claim_view()
        # Arrival order survives (z before a), not source-sorted order.
        np.testing.assert_array_equal(view.values, [1.0, 2.0])
        np.testing.assert_array_equal(view.source_idx, [0, 1])

    def test_object_timestamp_is_first_claims(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        store.add(Claim("o1", "temp", "a", 2.0, 3.0))
        store.add(Claim("o1", "temp", "b", 4.0, 9.0))
        np.testing.assert_array_equal(store.object_timestamps, [3.0])

    def test_codec_seeding_and_encoding(self, mixed_schema, tiny_dataset):
        store = ClaimStore(mixed_schema, codecs=tiny_dataset.codecs())
        store.add(Claim("o1", "condition", "a", "rain", 0.0))
        chunk = store.dataset_for([0])
        table_codec = chunk.codecs()["condition"]
        assert table_codec.labels[:3] == \
            tiny_dataset.codecs()["condition"].labels[:3]

    def test_round_trip_through_claims_matrix(self, small_weather):
        dataset = small_weather.dataset
        store = ClaimStore(dataset.schema, codecs=dataset.codecs())
        for claim in iter_dataset_claims(dataset):
            store.add(claim)
        rebuilt = ClaimStore.from_claims_matrix(store.to_claims_matrix())
        assert rebuilt.object_ids == store.object_ids
        assert rebuilt.source_ids == store.source_ids
        assert rebuilt.n_claims() == store.n_claims()
        np.testing.assert_array_equal(rebuilt.object_timestamps,
                                      store.object_timestamps)

    def test_unknown_property_rejected(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        with pytest.raises(ValueError, match="unknown property"):
            store.add(Claim("o1", "nope", "a", 1.0, 0.0))


class TestTruthState:
    def test_registration_is_amortized(self):
        state = TruthState()
        state.register([f"s{k}" for k in range(5_000)])
        assert state.n_sources == 5_000
        assert state.growth_events <= 3 * 9  # 3 arrays, log2(5000/16)

    def test_register_is_idempotent(self):
        state = TruthState()
        first = state.register(["a", "b"])
        second = state.register(["b", "a", "c"])
        np.testing.assert_array_equal(first, [0, 1])
        np.testing.assert_array_equal(second, [1, 0, 2])
        assert state.source_ids == ("a", "b", "c")


class TestRecomputePlanner:
    def test_empty_dirty_set_plans_nothing(self):
        plan = RecomputePlanner().plan(set(), 100)
        assert plan.scope == "none" and plan.n_objects == 0

    def test_small_dirty_set_plans_dirty_scope(self):
        plan = RecomputePlanner().plan({3, 7}, 100)
        assert plan.scope == "dirty"
        np.testing.assert_array_equal(plan.object_indices, [3, 7])

    def test_large_dirty_set_escalates_to_full(self):
        plan = RecomputePlanner(full_fraction=0.5).plan(set(range(60)), 100)
        assert plan.scope == "full" and plan.n_objects == 100

    def test_invalid_fraction(self):
        with pytest.raises(ValueError, match="full_fraction"):
            RecomputePlanner(full_fraction=0.0)


def assert_same_serving_state(service, oracle_result, dataset):
    """Weights (by source id) and truths bit-identical to the oracle."""
    oracle_weights = dict(zip(dataset.source_ids, oracle_result.weights))
    served = service.weights_by_source()
    assert set(served) == set(oracle_weights)
    for source_id, weight in oracle_weights.items():
        assert served[source_id] == weight, source_id
    table = service.get_truth(list(dataset.object_ids))
    for col_served, col_oracle in zip(table.columns,
                                      oracle_result.truths.columns):
        np.testing.assert_array_equal(col_served, col_oracle)


class TestReplayEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_window1_bit_identical_to_batch_icrh(self, seed):
        dataset = weather(seed)
        service = replay(dataset, window=1)
        oracle = icrh(dataset, window=1)
        assert_same_serving_state(service, oracle, dataset)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_multi_timestamp_window_matches_time_sorted_oracle(self, seed):
        dataset = weather(seed)
        order = np.argsort(dataset.object_timestamps, kind="stable")
        sorted_view = dataset.select_objects(order)
        service = replay(dataset, window=3)
        oracle = icrh(sorted_view, window=3)
        assert_same_serving_state(service, oracle, sorted_view)

    def test_batch_size_does_not_matter(self):
        dataset = weather(1)
        one = replay(dataset, window=2, batch=1)
        big = replay(dataset, window=2, batch=10_000)
        np.testing.assert_array_equal(one.get_weights(),
                                      big.get_weights())
        for col_a, col_b in zip(
                one.get_truth(list(dataset.object_ids)).columns,
                big.get_truth(list(dataset.object_ids)).columns):
            np.testing.assert_array_equal(col_a, col_b)

    def test_nondefault_config_replays_identically(self):
        dataset = weather(2)
        config = ICRHConfig(decay=0.3, normalize_by_counts=False)
        service = replay(dataset, window=1, config=config)
        oracle = icrh(dataset, window=1, config=config)
        assert_same_serving_state(service, oracle, dataset)


class TestDirtyRecompute:
    def test_late_claim_dirties_without_sealing(self, small_weather):
        dataset = small_weather.dataset
        service = replay(dataset, window=2)
        history_before = service.model.weight_history.copy()
        weights_before = service.get_weights().copy()
        object_id = dataset.object_ids[0]
        report = service.ingest([
            Claim(object_id, "high_temp", dataset.source_ids[0],
                  99.0, 0.0),
        ])
        assert report.windows_sealed == 0
        assert report.new_objects == 0
        assert report.recomputed_objects >= 1
        # Sealed weight history is never rewritten by late arrivals.
        np.testing.assert_array_equal(service.model.weight_history,
                                      history_before)
        np.testing.assert_array_equal(service.get_weights(),
                                      weights_before)

    def test_dirty_recompute_matches_full_oracle(self, small_weather):
        """On the touched object, re-resolving just the dirty segment
        equals a full recompute — the truth step is separable per
        object.  (Untouched objects deliberately keep their chunk-final
        truths, so only the dirty object is compared.)"""
        dataset = small_weather.dataset
        served = replay(dataset, window=2)
        oracle = replay(dataset, window=2)
        touched = dataset.object_ids[0]
        late = Claim(touched, "high_temp", dataset.source_ids[0],
                     99.0, 0.0)
        served.ingest([late])   # dirty-set path
        oracle.ingest([late])
        oracle.recompute_all()  # full-recompute oracle
        for col_a, col_b in zip(served.get_truth([touched]).columns,
                                oracle.get_truth([touched]).columns):
            np.testing.assert_array_equal(col_a, col_b)

    def test_read_resolves_dirty_on_demand(self, small_weather):
        dataset = small_weather.dataset
        service = replay(dataset, window=2,
                         planner=RecomputePlanner(full_fraction=1.0))
        # Bypass ingest's recompute by marking dirty manually.
        idx = service.store.object_position(dataset.object_ids[3])
        service.store.dirty.add(idx)
        table = service.get_truth([dataset.object_ids[3]])
        assert service.dirty_objects == 0
        assert np.isfinite(table.columns[0]).all()


class TestSnapshotRestore:
    def test_round_trip_reads_identically(self, small_weather, tmp_path):
        dataset = small_weather.dataset
        service = replay(dataset, window=2)
        service.snapshot(tmp_path / "snap")
        restored = TruthService.restore(tmp_path / "snap")
        assert restored.object_ids == service.object_ids
        assert restored.source_ids == service.source_ids
        np.testing.assert_array_equal(restored.get_weights(),
                                      service.get_weights())
        np.testing.assert_array_equal(restored.model.weight_history,
                                      service.model.weight_history)
        ids = list(dataset.object_ids)
        for col_a, col_b in zip(service.get_truth(ids).columns,
                                restored.get_truth(ids).columns):
            np.testing.assert_array_equal(col_a, col_b)

    def test_restored_service_keeps_ingesting(self, small_weather,
                                              tmp_path):
        dataset = small_weather.dataset
        original = replay(dataset, window=2)
        original.snapshot(tmp_path / "snap")
        restored = TruthService.restore(tmp_path / "snap")
        horizon = float(dataset.object_timestamps.max())
        fresh = [
            Claim("new-object", "high_temp", dataset.source_ids[0],
                  50.0, horizon + 1.0),
            Claim("new-object", "high_temp", dataset.source_ids[1],
                  54.0, horizon + 1.0),
        ]
        for service in (original, restored):
            service.ingest(fresh)
            service.flush()
        np.testing.assert_array_equal(original.get_weights(),
                                      restored.get_weights())
        for col_a, col_b in zip(
                original.get_truth(["new-object"]).columns,
                restored.get_truth(["new-object"]).columns):
            np.testing.assert_array_equal(col_a, col_b)

    def test_snapshot_rejects_custom_scheme(self, small_weather,
                                            tmp_path):
        class Custom:
            def weights(self, per_source):
                return per_source

        dataset = small_weather.dataset
        service = TruthService(dataset.schema,
                               config=ICRHConfig(weight_scheme=Custom()),
                               codecs=dataset.codecs())
        service.ingest(iter_dataset_claims(dataset))
        service.flush()
        with pytest.raises(ValueError, match="weight scheme"):
            service.snapshot(tmp_path / "snap")


class _WriterKilled(Exception):
    """Stands in for the snapshot writer's process dying."""


def _kill_writer_after(monkeypatch, n_writes: int) -> None:
    """Let ``n_writes`` file writes finish, then kill the writer at the
    next one (``write_text``, ``np.savez`` and ``os.replace`` each count
    as one write)."""
    done = [0]

    def wrap(write):
        def killed_or_written(*args, **kwargs):
            if done[0] == n_writes:
                raise _WriterKilled
            result = write(*args, **kwargs)
            done[0] += 1
            return result
        return killed_or_written

    monkeypatch.setattr(Path, "write_text", wrap(Path.write_text))
    monkeypatch.setattr(np, "savez", wrap(np.savez))
    monkeypatch.setattr(os, "replace", wrap(os.replace))


def _served(service) -> dict:
    """Everything a restored service answers with."""
    return {
        "object_ids": service.object_ids,
        "source_ids": service.source_ids,
        "weights": service.get_weights().tolist(),
        "columns": [column.tolist() for column in
                    service.get_truth(service.object_ids).columns],
        "metrics": service.metrics(),
    }


class TestTornSnapshot:
    """A snapshot written over an older one restores whole or not at
    all, wherever its writer dies."""

    def test_killed_writer_never_mixes_two_snapshots(self, monkeypatch,
                                                     tmp_path):
        dataset = weather(seed=3)
        claims = list(iter_dataset_claims(dataset))
        older = TruthService(dataset.schema, window=2,
                             codecs=dataset.codecs())
        older.ingest(claims[:len(claims) // 3])
        older.flush()
        newer = replay(dataset, window=2)
        completed = False
        n_writes = 0
        while not completed:
            directory = tmp_path / f"snap{n_writes}"
            older.snapshot(directory)
            with monkeypatch.context() as patch:
                _kill_writer_after(patch, n_writes)
                try:
                    newer.snapshot(directory)
                    completed = True
                except _WriterKilled:
                    pass
            if completed:
                assert _served(TruthService.restore(directory)) == \
                    _served(newer)
            else:
                with pytest.raises(ValueError, match=r"\.(json|npz)"):
                    TruthService.restore(directory)
            n_writes += 1
        assert n_writes > len(SNAPSHOT_FILES)

    @pytest.mark.parametrize("name", SNAPSHOT_FILES)
    def test_damaged_file_is_named(self, small_weather, tmp_path, name):
        service = replay(small_weather.dataset, window=2)
        service.snapshot(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match=name):
            TruthService.restore(tmp_path)
        path.unlink()
        with pytest.raises(ValueError, match=f"{name} is missing"):
            TruthService.restore(tmp_path)

    def test_directory_without_service_json_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="service.json is missing"):
            TruthService.restore(tmp_path)


class TestObservability:
    def test_ingest_and_read_records_emitted(self, small_weather):
        dataset = small_weather.dataset
        tracer = MemoryTracer()
        service = TruthService(dataset.schema, window=2,
                               codecs=dataset.codecs(), tracer=tracer)
        service.ingest(iter_dataset_claims(dataset))
        service.flush()
        service.get_truth(list(dataset.object_ids[:5]))
        events = [r["event"] for r in tracer.records]
        assert "ingest" in events and "read" in events
        ingest = next(r for r in tracer.records if r["event"] == "ingest")
        assert ingest["ingested_claims"] == dataset.n_observations()
        assert ingest["new_objects"] == dataset.n_objects
        assert ingest["new_sources"] == dataset.n_sources
        read = next(r for r in tracer.records if r["event"] == "read")
        assert read["read_objects"] == 5
        assert read["cache_hits"] + read["cache_misses"] == 5
        assert 0.0 <= read["cache_hit_rate"] <= 1.0

    def test_second_read_is_a_warm_hit(self, small_weather):
        dataset = small_weather.dataset
        tracer = MemoryTracer()
        service = TruthService(dataset.schema, window=2,
                               codecs=dataset.codecs(), tracer=tracer)
        service.ingest(iter_dataset_claims(dataset))
        service.flush()
        object_id = dataset.object_ids[0]
        service.get_truth([object_id])
        service.get_truth([object_id])
        reads = [r for r in tracer.records if r["event"] == "read"]
        assert reads[-1]["cache_hits"] == 1
        assert reads[-1]["cache_hit_rate"] == 1.0

    def test_metrics_counters(self, small_weather):
        dataset = small_weather.dataset
        service = replay(dataset, window=2)
        service.get_truth(list(dataset.object_ids))
        metrics = service.metrics()
        assert metrics["n_objects"] == dataset.n_objects
        assert metrics["n_sources"] == dataset.n_sources
        assert metrics["ingested_claims"] == dataset.n_observations()
        assert metrics["dirty_objects"] == 0
        assert metrics["cached_objects"] == dataset.n_objects
        assert metrics["windows_sealed"] >= 1
        assert 0.0 <= metrics["cache_hit_rate"] <= 1.0


class TestServiceSurface:
    def test_as_claim_accepts_tuples_and_records(self):
        claim = as_claim(("o1", "temp", "a", 2.0, 3.0))
        assert claim == Claim("o1", "temp", "a", 2.0, 3.0)
        record = Record(entry=EntryId("o1", "temp"), value=2.0,
                        source_id="a", timestamp=3)
        assert as_claim(record) == Claim("o1", "temp", "a", 2.0, 3)
        assert as_claim(claim) is claim
        with pytest.raises(TypeError):
            as_claim(42)

    def test_claims_need_timestamps(self, mixed_schema):
        service = TruthService(mixed_schema)
        with pytest.raises(ValueError, match="timestamp"):
            service.ingest([Claim("o1", "temp", "a", 2.0, None)])

    def test_unknown_object_read_raises(self, mixed_schema):
        service = TruthService(mixed_schema)
        with pytest.raises(KeyError):
            service.get_truth(["never-seen"])

    def test_empty_ingest_and_empty_read(self, mixed_schema):
        service = TruthService(mixed_schema)
        report = service.ingest([])
        assert report.ingested_claims == 0
        table = service.get_truth([])
        assert len(table.object_ids) == 0

    def test_invalid_window(self, mixed_schema):
        with pytest.raises(ValueError, match="window"):
            TruthService(mixed_schema, window=0)


class TestMissingValues:
    """A claim without a value is dropped exactly like a batch missing
    cell: it never registers a source or object and never votes."""

    @pytest.fixture()
    def weather_schema(self):
        from repro.data import DatasetSchema
        from repro.data.schema import categorical, continuous
        return DatasetSchema.of(
            continuous("temp"),
            categorical("condition", ["sunny", "rain", "snow"]),
        )

    def _o2_claims(self):
        claims = [Claim("o1", "condition", s, v, 0.0) for s, v in
                  zip("abcde", ["sunny", "sunny", "rain", "sunny",
                                "sunny"])]
        claims += [Claim("o1", "temp", s, v, 0.0) for s, v in
                   zip("abcde", [70.0, 71.0, 60.0, 70.5, 70.0])]
        claims += [Claim("o2", "condition", s, v, 0.0) for s, v in
                   zip("abc", ["rain", "rain", "snow"])]
        return claims

    def _serve(self, schema, claims):
        service = TruthService(schema)
        service.ingest(claims)
        service.flush()
        return service

    def test_none_claims_do_not_flip_the_served_truth(self, weather_schema):
        # Stored as MISSING_CODE, the two None claims used to vote for
        # the last category ("snow") and win o2 from "rain".
        clean = self._serve(weather_schema, self._o2_claims())
        dirty = self._serve(weather_schema, self._o2_claims() + [
            Claim("o2", "condition", "d", None, 0.0),
            Claim("o2", "condition", "e", float("nan"), 0.0),
        ])
        table = dirty.get_truth(["o1", "o2"])
        codec = table.codecs["condition"]
        assert codec.decode_many(table.columns[1]) == ["sunny", "rain"]
        assert dirty.weights_by_source() == clean.weights_by_source()
        for got, want in zip(table.columns,
                             clean.get_truth(["o1", "o2"]).columns):
            np.testing.assert_array_equal(got, want)
        assert dirty.metrics()["missing_claims"] == 2
        assert dirty.metrics()["ingested_claims"] == \
            clean.metrics()["ingested_claims"]

    def test_store_drops_missing_values_untouched(self, mixed_schema):
        store = ClaimStore(mixed_schema)
        for value, prop in ((None, "temp"), (float("nan"), "temp"),
                            (np.nan, "condition"), (None, "condition")):
            assert store.add(Claim("o1", prop, "a", value, 0.0)) == \
                (-1, False)
        assert store.n_claims() == 0
        assert store.n_objects == 0 and store.n_sources == 0
        assert not store.dirty

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_continuous_inf_raises_before_storing(self, mixed_schema,
                                                  value):
        store = ClaimStore(mixed_schema)
        with pytest.raises(ValueError, match="non-finite"):
            store.add(Claim("o1", "temp", "a", value, 0.0))
        assert store.n_objects == 0 and store.n_sources == 0
        assert store.n_claims() == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_replay_with_injected_missing_equals_batch(self, seed):
        dataset = weather(seed)
        claims = list(iter_dataset_claims(dataset))
        # The clean replay's ingest batches, each with missing-valued
        # claims mixed in: the batch boundaries stay those of replay().
        batches = [claims[start:start + 64]
                   for start in range(0, len(claims), 64)]
        rng = np.random.default_rng(seed)
        sources = list(dataset.source_ids) + ["ghost"]
        objects = list(dataset.object_ids) + ["ghost-object"]
        for _ in range(60):
            batch = batches[int(rng.integers(len(batches)))]
            position = int(rng.integers(len(batch) + 1))
            prop = dataset.schema[int(rng.integers(len(dataset.schema)))]
            batch.insert(position, Claim(
                objects[int(rng.integers(len(objects)))], prop.name,
                sources[int(rng.integers(len(sources)))],
                None if rng.random() < 0.5 else float("nan"),
                batch[min(position, len(batch) - 1)].timestamp,
            ))
        service = TruthService(dataset.schema, window=1,
                               codecs=dataset.codecs())
        for batch in batches:
            service.ingest(batch)
        service.flush()
        assert_same_serving_state(service, icrh(dataset, window=1),
                                  dataset)
        assert service.metrics()["missing_claims"] == 60
        assert service.metrics()["ingested_claims"] == len(claims)
