"""Streaming truth state: per-source accumulators and the truth cache.

Two state layers back the serving stack:

* :class:`TruthState` — Algorithm 2's per-source sufficient statistics
  (decayed accumulated distances, decayed observation counts, current
  weights) in amortized-growth arrays, plus the per-chunk weight
  history.  :class:`~repro.streaming.icrh.IncrementalCRH` is a thin
  adapter over this class; the O(K^2) ``np.append``-per-source
  registration it replaces lived in ``IncrementalCRH._positions_for``.
* :class:`TruthCache` — a warm per-object truth cache with versioned
  entries.  Each entry records the weight epoch it was resolved under;
  ``-1`` marks never-resolved objects.  Cached truths are *chunk-final*
  (the I-CRH stitching semantics): sealing a window writes that chunk's
  truths, and only new claims (the dirty set) invalidate them — later
  weight updates deliberately do not.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from ..data.encoding import MISSING_CODE
from ..data.schema import DatasetSchema
from .store import GrowableArray


class TruthState:
    """Decayed per-source accumulators, counts, weights and history.

    Sources register in first-appearance order and keep their index for
    the lifetime of the state.  A new source starts with zero
    accumulated distance and weight 1 — exactly Algorithm 2's line-1
    initialization — so registration order never changes any source's
    weight value.
    """

    def __init__(self) -> None:
        self._ids: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self._accumulated = GrowableArray(np.float64, 0.0)
        self._counts = GrowableArray(np.float64, 0.0)
        self._weights = GrowableArray(np.float64, 1.0)
        self._history: list[np.ndarray] = []
        #: completed weight refreshes (chunks absorbed)
        self.epoch = 0

    # ------------------------------------------------------------------
    @property
    def n_sources(self) -> int:
        """Number of registered sources."""
        return len(self._ids)

    @property
    def source_ids(self) -> tuple:
        """Registered sources, in first-appearance order."""
        return tuple(self._ids)

    @property
    def accumulated(self) -> np.ndarray:
        """Decayed accumulated distances ``a_k`` (live view)."""
        return self._accumulated.data

    @property
    def counts(self) -> np.ndarray:
        """Decayed observation counts (live view)."""
        return self._counts.data

    @property
    def weights(self) -> np.ndarray:
        """Current per-source weights (live view)."""
        return self._weights.data

    @property
    def growth_events(self) -> int:
        """Buffer reallocations across the three accumulator arrays —
        O(log K) for K sources (the regression guard for the old
        O(K^2) ``np.append`` registration)."""
        return (self._accumulated.growth_events
                + self._counts.growth_events
                + self._weights.growth_events)

    # ------------------------------------------------------------------
    def register(self, source_ids: Sequence[Hashable]) -> np.ndarray:
        """Positions of ``source_ids``, registering first-timers.

        New sources append with ``a_k = 0``, count 0 and weight 1;
        existing sources keep their index.  Amortized O(1) per source.
        """
        positions = np.empty(len(source_ids), dtype=np.int64)
        for i, source_id in enumerate(source_ids):
            index = self._index.get(source_id)
            if index is None:
                index = len(self._ids)
                self._ids.append(source_id)
                self._index[source_id] = index
                self._accumulated.append(0.0)
                self._counts.append(0.0)
                self._weights.append(1.0)
            positions[i] = index
        return positions

    def decay(self, alpha: float) -> None:
        """Decay accumulated distances and counts by ``alpha``
        (Algorithm 2 line 4's historical discount)."""
        self._accumulated.data[:] *= alpha
        self._counts.data[:] *= alpha

    def add_deviations(self, positions: np.ndarray, deviations: np.ndarray,
                       counts: np.ndarray) -> None:
        """Scatter-add a chunk's per-source deviation totals and counts
        into the accumulators at ``positions``."""
        np.add.at(self._accumulated.data, positions, deviations)
        np.add.at(self._counts.data, positions, counts)

    def refresh_weights(self, scheme, normalize_by_counts: bool) -> float:
        """Recompute weights from the accumulators (Algorithm 2 line 5).

        Returns the max absolute per-source weight change.  Sources with
        no surviving observations keep the line-1 weight of 1 rather
        than the best-in-class weight a zero deviation would imply.
        """
        accumulated = self._accumulated.data
        counts = self._counts.data
        previous = self._weights.data.copy()
        if normalize_by_counts:
            with np.errstate(invalid="ignore", divide="ignore"):
                normalized = accumulated / counts
            per_source = np.where(counts > 0, normalized, 0.0)
        else:
            per_source = accumulated
        weights = scheme.weights(per_source)
        unseen = counts <= 1e-12
        if unseen.any():
            weights = np.where(unseen, 1.0, weights)
        self._weights.data[:] = weights
        self.epoch += 1
        return float(np.abs(self._weights.data - previous).max())

    def record_history(self) -> None:
        """Append the current weights to the per-chunk history."""
        self._history.append(self._weights.data.copy())

    @property
    def history_length(self) -> int:
        """Number of recorded history rows (chunks seen)."""
        return len(self._history)

    def weight_history(self) -> np.ndarray:
        """``(T, K)`` weights after each chunk, NaN-padded for sources
        that joined after chunk ``t`` (Fig. 4a semantics)."""
        if not self._history:
            raise ValueError("no chunk processed yet")
        k = len(self._ids)
        padded = np.full((len(self._history), k), np.nan)
        for t, row in enumerate(self._history):
            padded[t, :row.size] = row
        return padded

    def load(self, source_ids: Sequence[Hashable],
             accumulated: np.ndarray, counts: np.ndarray,
             weights: np.ndarray, history: Sequence[np.ndarray],
             epoch: int) -> None:
        """Restore the state from snapshot arrays (see
        :meth:`repro.streaming.service.TruthService.snapshot`)."""
        if self._ids:
            raise ValueError("cannot load into a non-empty TruthState")
        self.register(source_ids)
        self._accumulated.data[:] = accumulated
        self._counts.data[:] = counts
        self._weights.data[:] = weights
        self._history = [np.asarray(row, dtype=np.float64).copy()
                         for row in history]
        self.epoch = int(epoch)


class TruthCache:
    """Warm per-object truth columns with versioned entries.

    One growable column per schema property (``NaN`` / missing-code
    fill) plus an ``int64`` version vector: ``version[i]`` is the
    weight epoch object ``i`` was last resolved under, ``-1`` if never.
    """

    def __init__(self, schema: DatasetSchema) -> None:
        self.schema = schema
        self._columns: list[GrowableArray] = []
        for prop in schema:
            if prop.uses_codec:
                self._columns.append(
                    GrowableArray(np.int32, MISSING_CODE))
            else:
                self._columns.append(GrowableArray(np.float64, np.nan))
        self._versions = GrowableArray(np.int64, -1)

    @property
    def n_objects(self) -> int:
        """Number of object slots the cache covers."""
        return len(self._versions)

    def n_cached(self) -> int:
        """Objects holding a resolved (version >= 0) entry."""
        return int((self._versions.data >= 0).sum())

    def ensure(self, n_objects: int) -> None:
        """Grow to cover ``n_objects`` slots (new slots unresolved)."""
        if n_objects > len(self._versions):
            self._versions.resize_to(n_objects)
            for column in self._columns:
                column.resize_to(n_objects)

    def versions(self, object_indices: np.ndarray) -> np.ndarray:
        """Resolution epochs of the objects at ``object_indices``."""
        return self._versions.data[np.asarray(object_indices)]

    def store(self, object_indices: np.ndarray,
              columns: Sequence[np.ndarray], version: int) -> None:
        """Write resolved truth values for ``object_indices`` at
        weight epoch ``version``."""
        indices = np.asarray(object_indices)
        for cache_col, values in zip(self._columns, columns):
            cache_col.data[indices] = values
        self._versions.data[indices] = int(version)

    def columns_at(self, object_indices: np.ndarray) -> list[np.ndarray]:
        """Cached truth columns for ``object_indices`` (copies)."""
        indices = np.asarray(object_indices)
        return [column.data[indices] for column in self._columns]

    def full_columns(self) -> list[np.ndarray]:
        """All cached columns (copies), for snapshotting."""
        return [column.data.copy() for column in self._columns]

    def load(self, columns: Sequence[np.ndarray],
             versions: np.ndarray) -> None:
        """Bulk-restore cached columns and versions from a snapshot."""
        versions = np.asarray(versions, dtype=np.int64)
        self.ensure(int(versions.size))
        self._versions.data[:versions.size] = versions
        for cache_col, values in zip(self._columns, columns):
            cache_col.data[:len(values)] = values

    def all_versions(self) -> np.ndarray:
        """The whole version vector (copy), for snapshotting."""
        return self._versions.data.copy()
