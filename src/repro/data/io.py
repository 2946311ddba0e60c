"""Persistence for multi-source datasets and truth tables.

Two interchange formats are supported:

* **Record CSV** — one ``(object_id, source_id, property, value)`` row per
  observation, optionally with a ``timestamp`` column.  This mirrors the
  ``(eID, v, sID)`` tuples of Section 2.7.1 and is the format the original
  stock/flight corpora are distributed in.
* **Truth CSV** — one row per object with one column per property, for
  ground-truth tables.

Both round-trip losslessly through the dense in-memory representation
(categorical labels are written as text; continuous values as ``repr``
floats so no precision is lost).

Sparse datasets stay sparse end to end:
:class:`~repro.data.claims_matrix.ClaimsMatrix` inputs to
:func:`save_dataset` are written as ``claims.npz`` (per-property claim
triples) plus ``dataset.json`` (ids and codec labels) — never densified
— and :func:`load_dataset` rebuilds them through
:func:`~repro.data.claims_matrix.claims_from_arrays`; record CSVs
ingest sparse-natively via ``read_records_csv(..., sparse=True)``.
Cheap sparse loading is what makes handing claim arrays to the
shared-memory process backend an O(claims) copy.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from .encoding import CategoricalCodec, value_is_missing
from .schema import DatasetSchema, PropertyKind, PropertySchema
from .table import DatasetBuilder, MultiSourceDataset, TruthTable

_RECORD_FIELDS = ("object_id", "source_id", "property", "value", "timestamp")


def write_records_csv(dataset: MultiSourceDataset, path: str | Path) -> int:
    """Write a dataset as record CSV; returns the number of rows written."""
    from .records import dataset_to_records

    path = Path(path)
    rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_FIELDS)
        for record in dataset_to_records(dataset):
            value = record.value
            if isinstance(value, float):
                value = repr(value)
            writer.writerow([
                record.entry.object_id,
                record.source_id,
                record.entry.property_name,
                value,
                "" if record.timestamp is None else record.timestamp,
            ])
            rows += 1
    return rows


def read_records_csv(path: str | Path, schema: DatasetSchema, *,
                     sparse: bool = False):
    """Read a record CSV written by :func:`write_records_csv`.

    With ``sparse=True`` the rows stream straight into per-property
    claim arrays and build a
    :class:`~repro.data.claims_matrix.ClaimsMatrix` through
    :func:`~repro.data.claims_matrix.claims_from_arrays` — no dense
    ``(K, N)`` matrix is ever allocated, and duplicate ``(source,
    object)`` claims keep the last row, matching the dense builder's
    overwrite semantics.

    Both readers apply the serving layer's missing-value rule: a NaN
    cell is dropped as if its row were absent, and a continuous
    ``±inf`` raises ``ValueError`` naming the file, line and property.
    """
    path = Path(path)
    if sparse:
        return _read_records_sparse(path, schema)
    builder = DatasetBuilder(schema)
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        _check_record_columns(path, reader)
        for row in reader:
            name = row["property"]
            prop = schema[name]
            raw = row["value"]
            value: object = float(raw) if prop.is_continuous else raw
            if _cell_is_missing(path, reader, name, value, prop.uses_codec):
                continue
            ts_text = row.get("timestamp") or ""
            timestamp = int(ts_text) if ts_text else None
            builder.add(row["object_id"], row["source_id"], name, value,
                        timestamp=timestamp)
    return builder.build()


def _check_record_columns(path: Path, reader: csv.DictReader) -> None:
    missing = set(_RECORD_FIELDS[:4]) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(
            f"{path}: record CSV missing columns {sorted(missing)}"
        )


def _cell_is_missing(path: Path, reader: csv.DictReader, name: str,
                     value, uses_codec: bool) -> bool:
    """:func:`~repro.data.encoding.value_is_missing` for one CSV row,
    with the row's file, line and property in the error."""
    try:
        return value_is_missing(value, uses_codec)
    except ValueError as error:
        raise ValueError(f"{path}, line {reader.line_num}: {error} for "
                         f"property {name!r}") from None


def _read_records_sparse(path: Path, schema: DatasetSchema):
    """Stream a record CSV into a ClaimsMatrix via claims_from_arrays."""
    from .claims_matrix import claims_from_arrays

    text = [p.name for p in schema if p.kind is PropertyKind.TEXT]
    if text:
        raise ValueError(
            f"sparse record ingestion supports categorical/continuous "
            f"properties only, but {'properties' if len(text) > 1 else 'property'} "
            f"{', '.join(repr(n) for n in text)} "
            f"{'are' if len(text) > 1 else 'is'} text (the claims matrix "
            f"has no text storage; use read_records_csv(sparse=False))"
        )
    codecs: dict[str, CategoricalCodec] = {}
    for prop in schema:
        if prop.uses_codec:
            codecs[prop.name] = (
                CategoricalCodec.from_domain(prop.categories)
                if prop.categories is not None else CategoricalCodec()
            )
    sources: list = []
    source_index: dict = {}
    objects: list = []
    object_index: dict = {}
    # property name -> (values, source indices, object indices)
    cells: dict[str, tuple[list, list, list]] = {
        p.name: ([], [], []) for p in schema
    }
    timestamps: dict[int, int] = {}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        _check_record_columns(path, reader)
        for row in reader:
            name = row["property"]
            prop = schema[name]
            raw = row["value"]
            value = raw if prop.uses_codec else float(raw)
            if _cell_is_missing(path, reader, name, value, prop.uses_codec):
                continue
            object_id = row["object_id"]
            i = object_index.get(object_id)
            if i is None:
                i = object_index[object_id] = len(objects)
                objects.append(object_id)
            source_id = row["source_id"]
            k = source_index.get(source_id)
            if k is None:
                k = source_index[source_id] = len(sources)
                sources.append(source_id)
            values, srcs, objs = cells[name]
            values.append(codecs[name].encode(value) if prop.uses_codec
                          else value)
            srcs.append(k)
            objs.append(i)
            ts_text = row.get("timestamp") or ""
            if ts_text:
                timestamps[i] = int(ts_text)
    if not objects:
        raise ValueError(f"{path}: no records")
    n_sources = len(sources)
    columns = {}
    for prop in schema:
        values, srcs, objs = cells[prop.name]
        dtype = np.int32 if prop.uses_codec else np.float64
        val = np.asarray(values, dtype=dtype)
        src = np.asarray(srcs, dtype=np.int32)
        obj = np.asarray(objs, dtype=np.int32)
        if val.size:
            # keep only the LAST claim per (source, object) cell,
            # matching DatasetBuilder's dense overwrite semantics
            order = np.lexsort((np.arange(val.size), src, obj))
            src, obj, val = src[order], obj[order], val[order]
            cell_key = obj.astype(np.int64) * n_sources + src
            last = np.ones(val.size, dtype=bool)
            last[:-1] = cell_key[1:] != cell_key[:-1]
            src, obj, val = src[last], obj[last], val[last]
        columns[prop.name] = (val, src, obj)
    object_timestamps = None
    if timestamps:
        object_timestamps = np.zeros(len(objects), dtype=np.int64)
        for i, stamp in timestamps.items():
            object_timestamps[i] = stamp
    return claims_from_arrays(
        schema, sources, objects, columns, codecs=codecs,
        object_timestamps=object_timestamps,
    )


def write_truth_csv(truth: TruthTable, path: str | Path) -> int:
    """Write a truth table as one-row-per-object CSV; empty cell = unlabeled."""
    path = Path(path)
    labels = truth.to_labels()
    names = truth.schema.names()
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("object_id",) + names)
        for i, object_id in enumerate(truth.object_ids):
            row: list[object] = [object_id]
            for name in names:
                value = labels[name][i]
                if value is None:
                    row.append("")
                elif isinstance(value, float):
                    row.append(repr(value))
                else:
                    row.append(value)
            writer.writerow(row)
    return truth.n_objects


def read_truth_csv(
    path: str | Path,
    schema: DatasetSchema,
    codecs: Mapping[str, CategoricalCodec] | None = None,
) -> TruthTable:
    """Read a truth CSV; pass the dataset's codecs so codes stay aligned."""
    path = Path(path)
    object_ids: list[str] = []
    values: dict[str, list] = {p.name: [] for p in schema}
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        for prop in schema:
            if reader.fieldnames is None or prop.name not in reader.fieldnames:
                raise ValueError(
                    f"{path}: truth CSV missing column {prop.name!r}"
                )
        for row in reader:
            object_ids.append(row["object_id"])
            for prop in schema:
                raw = row[prop.name]
                if raw == "":
                    values[prop.name].append(
                        None if prop.uses_codec else float("nan")
                    )
                elif prop.is_continuous:
                    values[prop.name].append(float(raw))
                else:
                    values[prop.name].append(raw)
    return TruthTable.from_labels(schema, object_ids, values, codecs=codecs)


def schema_to_json(schema: DatasetSchema) -> str:
    """Serialize a schema to a JSON string."""
    payload = [
        {
            "name": p.name,
            "kind": p.kind.value,
            "categories": list(p.categories) if p.categories else None,
            "unit": p.unit,
        }
        for p in schema
    ]
    return json.dumps(payload, indent=2)


def schema_from_json(text: str) -> DatasetSchema:
    """Parse a schema serialized by :func:`schema_to_json`."""
    payload = json.loads(text)
    props = []
    for item in payload:
        props.append(
            PropertySchema(
                name=item["name"],
                kind=PropertyKind(item["kind"]),
                categories=(tuple(item["categories"])
                            if item.get("categories") else None),
                unit=item.get("unit"),
            )
        )
    return DatasetSchema(properties=tuple(props))


def _plain(value):
    """JSON-safe scalar: numpy scalars become their Python equivalents."""
    return value.item() if isinstance(value, np.generic) else value


def save_dataset(dataset, directory: str | Path, *,
                 compressed: bool = False) -> None:
    """Save a dataset under ``directory``.

    Dense :class:`~repro.data.table.MultiSourceDataset` inputs write
    ``schema.json`` + ``records.csv`` (the record interchange format).
    Sparse :class:`~repro.data.claims_matrix.ClaimsMatrix` inputs are
    saved sparse-natively — ``schema.json`` + ``claims.npz`` (the
    per-property claim triples) + ``dataset.json`` (source/object ids,
    codec labels, timestamps presence) — so saving is O(claims) in time
    and space and never materializes a ``(K, N)`` matrix.

    ``claims.npz`` is written *uncompressed* by default: stored (not
    deflated) zip members can be opened as NumPy memmaps, which is what
    ``load_dataset(..., mmap=True)`` and the out-of-core ``"mmap"``
    backend rely on.  Pass ``compressed=True`` to trade mmap-ability
    for a smaller file (such archives always load eagerly).
    """
    from .claims_matrix import ClaimsMatrix

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.json").write_text(schema_to_json(dataset.schema))
    if not isinstance(dataset, ClaimsMatrix):
        write_records_csv(dataset, directory / "records.csv")
        return
    arrays: dict[str, np.ndarray] = {}
    for index, prop in enumerate(dataset.properties):
        view = prop.claim_view()
        arrays[f"p{index}_values"] = view.values
        arrays[f"p{index}_source_idx"] = view.source_idx
        arrays[f"p{index}_object_idx"] = view.object_idx
    if dataset.object_timestamps is not None:
        arrays["object_timestamps"] = dataset.object_timestamps
    saver = np.savez_compressed if compressed else np.savez
    saver(directory / "claims.npz", **arrays)
    meta = {
        "source_ids": [_plain(s) for s in dataset.source_ids],
        "object_ids": [_plain(o) for o in dataset.object_ids],
        "codecs": {
            name: [_plain(label) for label in codec.labels]
            for name, codec in dataset.codecs().items()
        },
    }
    (directory / "dataset.json").write_text(json.dumps(meta, indent=2))


def npz_member_memmaps(path: str | Path) -> dict[str, np.ndarray]:
    """Open every array of an *uncompressed* ``.npz`` as a ``np.memmap``.

    ``np.savez`` stores each array as a ``ZIP_STORED`` (not deflated)
    ``.npy`` member, so the raw array bytes sit contiguously in the
    file at a computable offset: zip local header (30 bytes + name +
    extra field) followed by the npy header (magic, version, header
    text).  This function parses both headers and maps each member
    read-only at its data offset — no array is ever materialized.

    Raises ``ValueError`` when the archive cannot be mapped: a
    compressed (``savez_compressed``/legacy) member, a truncated or
    corrupt file, or an npy member whose dtype needs pickling.  The
    message names the offending member so fault reports are actionable.
    """
    import struct
    import zipfile

    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    file_size = path.stat().st_size
    try:
        with zipfile.ZipFile(path) as archive, path.open("rb") as handle:
            for info in archive.infolist():
                member = info.filename
                name = member[:-4] if member.endswith(".npy") else member
                if info.compress_type != zipfile.ZIP_STORED:
                    raise ValueError(
                        f"{path.name}: member {member!r} is compressed "
                        f"(deflated); only uncompressed archives "
                        f"(np.savez / save_dataset(compressed=False)) "
                        f"can be memory-mapped"
                    )
                # The local header's name/extra lengths can differ from
                # the central directory's, so read them from the file.
                handle.seek(info.header_offset)
                local = handle.read(30)
                if len(local) != 30 or local[:4] != b"PK\x03\x04":
                    raise ValueError(
                        f"{path.name}: member {member!r} has a corrupt "
                        f"local file header"
                    )
                name_len, extra_len = struct.unpack("<HH", local[26:30])
                handle.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_2_0(handle)
                else:
                    raise ValueError(
                        f"{path.name}: member {member!r} uses npy format "
                        f"{version}, which this reader does not map"
                    )
                if dtype.hasobject:
                    raise ValueError(
                        f"{path.name}: member {member!r} holds python "
                        f"objects and cannot be memory-mapped"
                    )
                offset = handle.tell()
                nbytes = int(dtype.itemsize
                             * int(np.prod(shape, dtype=np.int64)))
                if offset + nbytes > file_size:
                    raise ValueError(
                        f"{path.name}: member {member!r} is truncated "
                        f"({nbytes} data bytes claimed at offset "
                        f"{offset}, file is {file_size} bytes)"
                    )
                arrays[name] = np.memmap(
                    path, dtype=dtype, mode="r", offset=offset,
                    shape=shape, order="F" if fortran else "C",
                )
    except (zipfile.BadZipFile, struct.error, OSError, EOFError,
            KeyError) as error:
        raise ValueError(
            f"{path.name}: corrupt or unreadable npz archive: {error}"
        ) from error
    return arrays


def _claims_columns(schema: DatasetSchema, bundle, files) -> tuple:
    """Per-property claim triples (+ timestamps) out of an npz mapping."""
    columns = {}
    for index, prop in enumerate(schema):
        key = f"p{index}_values"
        if key not in files:
            raise ValueError(
                f"claims.npz lacks member {key!r} for property "
                f"{prop.name!r} (schema/archive mismatch)"
            )
        columns[prop.name] = (
            bundle[key],
            bundle[f"p{index}_source_idx"],
            bundle[f"p{index}_object_idx"],
        )
    object_timestamps = (bundle["object_timestamps"]
                         if "object_timestamps" in files else None)
    return columns, object_timestamps


def load_dataset(directory: str | Path, *, mmap: bool = False):
    """Load a dataset saved by :func:`save_dataset`.

    Directories holding ``claims.npz`` load back as a
    :class:`~repro.data.claims_matrix.ClaimsMatrix` (through
    :func:`~repro.data.claims_matrix.claims_from_arrays`, without any
    dense allocation); record-CSV directories load as a dense
    :class:`~repro.data.table.MultiSourceDataset` as before.

    With ``mmap=True`` the claim arrays are opened as read-only NumPy
    memmaps over the npz members (:func:`npz_member_memmaps`) instead
    of being read into RAM — the entry point of the out-of-core
    ``"mmap"`` backend, which streams them chunk-at-a-time.  Saved
    claim arrays are already in canonical object-major order (they come
    from ``claim_view()``), so no sort — and no O(claims) allocation —
    happens; only the O(n_objects) CSR row pointer is built.  When the
    archive cannot be mapped (a legacy ``savez_compressed`` file) but
    still loads eagerly, the returned matrix carries the cause in
    ``mmap_fallback_reason`` and the mmap backend degrades to inline
    sparse execution with that reason traced; archives that cannot be
    read at all raise the mapper's ``ValueError``.
    """
    from .claims_matrix import claims_from_arrays

    directory = Path(directory)
    schema = schema_from_json((directory / "schema.json").read_text())
    claims_path = directory / "claims.npz"
    if not claims_path.exists():
        return read_records_csv(directory / "records.csv", schema)
    meta = json.loads((directory / "dataset.json").read_text())
    codecs = {
        name: CategoricalCodec(
            labels, frozen=schema[name].categories is not None
        )
        for name, labels in meta.get("codecs", {}).items()
    }
    fallback_reason: str | None = None
    if mmap:
        try:
            mapped = npz_member_memmaps(claims_path)
            columns, object_timestamps = _claims_columns(
                schema, mapped, frozenset(mapped)
            )
        except ValueError as error:
            fallback_reason = str(error)
        else:
            matrix = claims_from_arrays(
                schema, meta["source_ids"], meta["object_ids"], columns,
                codecs=codecs, object_timestamps=object_timestamps,
                assume_canonical=True,
            )
            matrix.mmap_fallback_reason = None
            return matrix
    try:
        with np.load(claims_path) as bundle:
            columns, object_timestamps = _claims_columns(
                schema, bundle, frozenset(bundle.files)
            )
            if object_timestamps is not None:
                object_timestamps = np.asarray(object_timestamps)
    except Exception as error:
        if fallback_reason is not None:
            # Neither mappable nor eagerly loadable: surface the
            # mapper's diagnosis (it names the offending member).
            raise ValueError(fallback_reason) from error
        raise
    matrix = claims_from_arrays(
        schema, meta["source_ids"], meta["object_ids"], columns,
        codecs=codecs, object_timestamps=object_timestamps,
    )
    if mmap:
        matrix.mmap_fallback_reason = fallback_reason
    return matrix
