"""Unit tests for CSV/JSON persistence."""

import numpy as np
import pytest

from repro.data import TruthTable, validate_dataset
from repro.data.io import (
    load_dataset,
    read_records_csv,
    read_truth_csv,
    save_dataset,
    schema_from_json,
    schema_to_json,
    write_records_csv,
    write_truth_csv,
)


class TestRecordsCSV:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "records.csv"
        rows = write_records_csv(tiny_dataset, path)
        assert rows == tiny_dataset.n_observations()
        loaded = read_records_csv(path, tiny_dataset.schema)
        assert loaded.n_observations() == tiny_dataset.n_observations()
        assert set(loaded.source_ids) == set(tiny_dataset.source_ids)
        # Float precision survives repr round-trip.
        temp = loaded.property_observations("temp")
        i = loaded.object_index("o1")
        k = loaded.source_index("c")
        assert temp.values[k, i] == 55.0

    def test_missing_column_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("object_id,source_id,value\na,b,1\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_records_csv(path, tiny_dataset.schema)

    def test_timestamps_roundtrip(self, small_weather, tmp_path):
        dataset = small_weather.dataset
        path = tmp_path / "weather.csv"
        write_records_csv(dataset, path)
        loaded = read_records_csv(path, dataset.schema)
        assert loaded.object_timestamps is not None
        original = dict(zip(dataset.object_ids,
                            dataset.object_timestamps.tolist()))
        for object_id, timestamp in zip(loaded.object_ids,
                                        loaded.object_timestamps.tolist()):
            assert original[object_id] == timestamp


class TestTruthCSV:
    def test_roundtrip(self, tiny_truth, tiny_dataset, tmp_path):
        path = tmp_path / "truth.csv"
        count = write_truth_csv(tiny_truth, path)
        assert count == tiny_truth.n_objects
        loaded = read_truth_csv(path, tiny_truth.schema,
                                codecs=tiny_dataset.codecs())
        assert loaded.n_truths() == tiny_truth.n_truths()
        assert loaded.value("o3", "condition") == "sunny"
        assert loaded.value("o3", "temp") == pytest.approx(79.5)

    def test_partial_truth_roundtrip(self, mixed_schema, tmp_path):
        truth = TruthTable.from_labels(
            mixed_schema, ["o1", "o2"],
            {
                "temp": [70.0, float("nan")],
                "humidity": [0.5, 0.6],
                "condition": ["sunny", None],
            },
        )
        path = tmp_path / "partial.csv"
        write_truth_csv(truth, path)
        loaded = read_truth_csv(path, mixed_schema)
        assert loaded.value("o2", "temp") is None
        assert loaded.value("o2", "condition") is None
        assert loaded.n_truths() == 4

    def test_missing_column_rejected(self, mixed_schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("object_id,temp\no1,1.0\n")
        with pytest.raises(ValueError, match="missing column"):
            read_truth_csv(path, mixed_schema)


class TestSchemaJSON:
    def test_roundtrip(self, mixed_schema):
        loaded = schema_from_json(schema_to_json(mixed_schema))
        assert loaded == mixed_schema

    def test_units_preserved(self, mixed_schema):
        loaded = schema_from_json(schema_to_json(mixed_schema))
        assert loaded["temp"].unit == "F"


class TestDatasetDirectory:
    def test_save_load(self, tiny_dataset, tmp_path):
        directory = tmp_path / "bundle"
        save_dataset(tiny_dataset, directory)
        loaded = load_dataset(directory)
        assert loaded.schema == tiny_dataset.schema
        assert loaded.n_observations() == tiny_dataset.n_observations()
        assert validate_dataset(loaded).ok


class TestSparseIO:
    """Sparse-native persistence: no densification on either direction."""

    def _claims(self, dataset):
        from repro.data import ClaimsMatrix

        return ClaimsMatrix.from_dense(dataset)

    def test_claims_matrix_save_load_roundtrip(self, small_weather,
                                               tmp_path):
        from repro.data import ClaimsMatrix

        claims = self._claims(small_weather.dataset)
        directory = tmp_path / "sparse-bundle"
        save_dataset(claims, directory)
        assert (directory / "claims.npz").exists()
        assert (directory / "dataset.json").exists()
        assert not (directory / "records.csv").exists()
        loaded = load_dataset(directory)
        assert isinstance(loaded, ClaimsMatrix)
        assert loaded.schema == claims.schema
        assert loaded.source_ids == claims.source_ids
        assert loaded.object_ids == claims.object_ids
        for mine, theirs in zip(claims.properties, loaded.properties):
            a, b = mine.claim_view(), theirs.claim_view()
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.source_idx, b.source_idx)
            assert np.array_equal(a.object_idx, b.object_idx)
            assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(claims.object_timestamps,
                              loaded.object_timestamps)
        for name, codec in claims.codecs().items():
            assert loaded.codecs()[name].labels == codec.labels
        # and the loaded matrix still densifies to the original table
        dense = loaded.to_dense()
        for mine, theirs in zip(small_weather.dataset.properties,
                                dense.properties):
            assert np.array_equal(mine.values, theirs.values,
                                  equal_nan=True)

    def test_sparse_csv_ingestion_matches_dense_path(self, small_weather,
                                                     tmp_path):
        from repro.data import ClaimsMatrix

        dataset = small_weather.dataset
        path = tmp_path / "records.csv"
        write_records_csv(dataset, path)
        sparse = read_records_csv(path, dataset.schema, sparse=True)
        assert isinstance(sparse, ClaimsMatrix)
        reference = ClaimsMatrix.from_dense(
            read_records_csv(path, dataset.schema)
        )
        assert sparse.source_ids == reference.source_ids
        assert sparse.object_ids == reference.object_ids
        for mine, theirs in zip(sparse.properties, reference.properties):
            a, b = mine.claim_view(), theirs.claim_view()
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.source_idx, b.source_idx)
            assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(sparse.object_timestamps,
                              reference.object_timestamps)

    def test_sparse_csv_keeps_last_duplicate(self, tmp_path):
        from repro.data import DatasetSchema, continuous

        schema = DatasetSchema.of(continuous("x"))
        path = tmp_path / "dup.csv"
        path.write_text(
            "object_id,source_id,property,value,timestamp\n"
            "o1,s1,x,1.0,\n"
            "o1,s1,x,2.5,\n"
        )
        sparse = read_records_csv(path, schema, sparse=True)
        view = sparse.properties[0].claim_view()
        assert view.values.tolist() == [2.5]

    def test_nan_cells_read_the_same_dense_and_sparse(self, tmp_path):
        """A NaN cell is the missing cell for both readers: dropped as
        if its row were absent, so a source or object seen only in NaN
        rows is never registered."""
        from repro.data import ClaimsMatrix, DatasetSchema, categorical, \
            continuous

        schema = DatasetSchema.of(continuous("temp"), categorical("sky"))
        path = tmp_path / "nan.csv"
        path.write_text(
            "object_id,source_id,property,value,timestamp\n"
            "o0,s0,temp,1.0,0\n"
            "o0,s1,temp,nan,0\n"
            "o0,s2,temp,1.5,0\n"
            "o1,s0,temp,2.0,1\n"
            "o1,s1,temp,2.5,1\n"
            "o1,s1,sky,nan,1\n"
            "o2,s3,temp,NaN,2\n"
            "o1,s2,sky,rain,1\n"
        )
        dense = ClaimsMatrix.from_dense(read_records_csv(path, schema))
        sparse = read_records_csv(path, schema, sparse=True)
        # s1's first row is a NaN, so s2 registers before it
        assert list(sparse.source_ids) == list(dense.source_ids) == \
            ["s0", "s2", "s1"]
        assert list(sparse.object_ids) == list(dense.object_ids) == \
            ["o0", "o1"]
        assert sparse.n_claims() == dense.n_claims() == 6
        for mine, theirs in zip(sparse.properties, dense.properties):
            a, b = mine.claim_view(), theirs.claim_view()
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.source_idx, b.source_idx)
            assert np.array_equal(a.indptr, b.indptr)
        assert sparse.codecs()["sky"].labels == ("nan", "rain")

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_infinite_cells_raise_the_same_error(self, tmp_path, cell):
        from repro.data import DatasetSchema, continuous

        schema = DatasetSchema.of(continuous("temp"))
        path = tmp_path / "inf.csv"
        path.write_text(
            "object_id,source_id,property,value\n"
            "o0,s0,temp,1.0\n"
            f"o0,s1,temp,{cell}\n"
        )
        messages = []
        for sparse in (False, True):
            with pytest.raises(ValueError, match="non-finite") as excinfo:
                read_records_csv(path, schema, sparse=sparse)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert str(path) in messages[0]
        assert "line 3" in messages[0] and "'temp'" in messages[0]

    def test_sparse_csv_rejects_text_schema(self, tmp_path):
        from repro.data import DatasetSchema
        from repro.data.schema import text

        schema = DatasetSchema.of(text("notes"))
        path = tmp_path / "text.csv"
        path.write_text(
            "object_id,source_id,property,value\no1,s1,notes,hello\n"
        )
        with pytest.raises(ValueError, match="text"):
            read_records_csv(path, schema, sparse=True)

    def test_sparse_csv_text_rejection_names_property(self, tmp_path):
        """Regression: the error must say *which* property is text, not
        just that one exists — mixed schemas made the bare message
        unactionable."""
        from repro.data import DatasetSchema, continuous
        from repro.data.schema import text

        schema = DatasetSchema.of(
            continuous("temp"), text("notes"), text("remarks")
        )
        path = tmp_path / "mixed.csv"
        path.write_text(
            "object_id,source_id,property,value\no1,s1,temp,1.0\n"
        )
        with pytest.raises(ValueError, match="'notes'") as excinfo:
            read_records_csv(path, schema, sparse=True)
        message = str(excinfo.value)
        assert "'remarks'" in message
        assert "'temp'" not in message
        assert "sparse=False" in message

    def test_compressed_save_roundtrips_eagerly(self, small_weather,
                                                tmp_path):
        from repro.data import ClaimsMatrix

        claims = ClaimsMatrix.from_dense(small_weather.dataset)
        directory = tmp_path / "compressed-bundle"
        save_dataset(claims, directory, compressed=True)
        loaded = load_dataset(directory)
        for mine, theirs in zip(claims.properties, loaded.properties):
            a, b = mine.claim_view(), theirs.claim_view()
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.source_idx, b.source_idx)
            assert np.array_equal(a.indptr, b.indptr)
