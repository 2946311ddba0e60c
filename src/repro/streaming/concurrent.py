"""Concurrent truth serving: sharded router plus async ingest front.

``TruthService`` is single-threaded by design; this module scales it
across cores without giving up the replay-equivalence contract the
serving stack is tested against.  Three pieces compose:

* :class:`ShardedTruthService` — a router that partitions object keys
  across N :class:`~repro.streaming.service.TruthService` shards
  (policies in :data:`SHARD_POLICIES`), each guarded by its own lock so
  ingest on one shard never blocks reads on another.
* an **async ingest front** — per-worker bounded FIFO queues drained by
  a thread pool, with block/reject backpressure, drain/flush semantics
  and retry-on-shard-busy lock acquisition.
* **snapshot-isolated reads** — every shard publishes copy-on-write
  :class:`~repro.streaming.service.TruthSnapshot` views, so
  :meth:`ShardedTruthService.read_truth` is lock-free and can never
  observe a torn truth state.

Shared weight plane, sharded data plane
---------------------------------------
The paper's MapReduce formulation (Section 2.7) partitions *claims* but
keeps one global weight estimate; the router does the same.  Shards
hold claims, caches and dirty sets; the router owns the single
Algorithm-2 model, the global window clock (pending timestamps, sealed
high-water mark, the late-claim rule) and the global source registry.
A window seal replays the window's buffered claims through a scratch
:class:`~repro.streaming.store.ClaimStore` seeded with the global
source registry and the shared codecs — the *identical* code path the
unsharded service runs — so sealed truths and weight trajectories are
bit-identical to a single ``TruthService`` regardless of shard count,
and regardless of sync vs. threaded ingest once the queues are drained
(the equivalence oracle ``tests/test_concurrent_serving.py`` fuzzes).

What is and is not linearizable is documented in
``docs/ARCHITECTURE.md`` ("Concurrent serving"); the short version:
:meth:`ShardedTruthService.get_truth` is read-your-writes per shard
under the shard lock, :meth:`ShardedTruthService.read_truth` serves the
latest *published* snapshot (bounded staleness, never torn), and
cross-shard reads are per-shard consistent but not a global snapshot.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, Hashable, Iterable

import numpy as np

from ..data.encoding import CategoricalCodec
from ..data.schema import DatasetSchema
from ..data.table import TruthTable
from ..observability import flush_record, ingest_record, read_record
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import Tracer
from .icrh import ICRHConfig, IncrementalCRH
from .planner import RecomputePlanner
from .service import (
    SNAPSHOT_SCHEMA,
    IngestReport,
    TruthService,
    _config_from_dict,
    _config_to_dict,
    as_claim,
)
from .store import Claim, ClaimStore, claim_value_is_missing

#: objects per contiguous block of the ``range`` policy — the streaming
#: analogue of :func:`repro.mapreduce.partitioner.range_partition`'s
#: contiguous row ranges (arrival-order blocks cycle across shards).
RANGE_BLOCK = 64


def _hash_policy(object_id: Hashable, global_index: int,
                 n_shards: int) -> int:
    """Stable content hash of the object id (crc32 of its ``str``).

    ``zlib.crc32`` rather than ``hash()``: Python's builtin hash is
    salted per process, which would misroute every object after a
    snapshot/restore into a fresh interpreter.
    """
    return zlib.crc32(str(object_id).encode("utf-8")) % n_shards


def _mod_policy(object_id: Hashable, global_index: int,
                n_shards: int) -> int:
    """Round-robin by global first-appearance order (perfect balance)."""
    return global_index % n_shards


def _range_policy(object_id: Hashable, global_index: int,
                  n_shards: int) -> int:
    """Contiguous arrival-order blocks of :data:`RANGE_BLOCK` objects,
    cycling across shards — locality-preserving contiguous ranges, the
    streaming analogue of
    :func:`~repro.mapreduce.partitioner.range_partition`."""
    return (global_index // RANGE_BLOCK) % n_shards


#: shard-policy registry: name -> ``(object_id, global_index, n_shards)
#: -> shard``.  All policies are deterministic functions of the id and
#: its global first-appearance index, so routing survives
#: snapshot/restore.
SHARD_POLICIES: dict[str, Callable[[Hashable, int, int], int]] = {
    "hash": _hash_policy,
    "mod": _mod_policy,
    "range": _range_policy,
}


def shard_policy_by_name(name: str) -> Callable[[Hashable, int, int], int]:
    """Look up a shard policy; unknown names list the valid ones.

    Mirrors :func:`repro.baselines.resolver_by_name`'s error hygiene:
    the exception names every accepted policy so a typo is
    self-correcting.
    """
    policy = SHARD_POLICIES.get(name)
    if policy is None:
        known = ", ".join(sorted(SHARD_POLICIES))
        raise ValueError(
            f"unknown shard policy {name!r}; valid policies: {known}"
        )
    return policy


def _json_default(value):
    """JSON fallback for numpy scalars inside buffered claims."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


class BackpressureError(RuntimeError):
    """Raised by reject-mode ingest when a worker queue is full.

    The whole batch is rejected atomically *before* any routing
    bookkeeping, so a rejected batch leaves the service exactly as it
    was — resubmit the same batch later.
    """


class IngestWorkerError(RuntimeError):
    """An ingest worker task failed; ``__cause__`` is the original
    exception.  Raised at the next ``ingest``/``drain``/``flush``/
    ``close`` call after the failure (workers keep draining their
    queue so the service stays shutdown-able)."""


class _ServingStateHolder:
    """One shard's last-delivered global serving state.

    ``current`` is an immutable ``(source_ids, weights, epoch)`` triple
    swapped atomically by seal/drain/state tasks, so shard-local
    resolution always runs under a consistent copy of the router's
    global Algorithm-2 weights — never a mid-update view.
    """

    __slots__ = ("current",)

    def __init__(self) -> None:
        self.current: tuple = ((), np.ones(0), 0)


def _shard_state_hook(shard: TruthService,
                      holder: _ServingStateHolder) -> Callable:
    """Build the ``_external_state`` hook projecting the holder's
    global weights onto the shard store's source positions (sources the
    global model has not seen carry the Algorithm-2 line-1 weight 1)."""
    def state() -> tuple[np.ndarray, int]:
        ids, weights, epoch = holder.current
        by_id = dict(zip(ids, weights))
        projected = np.fromiter(
            (by_id.get(sid, 1.0) for sid in shard.store.source_ids),
            dtype=np.float64, count=shard.store.n_sources,
        )
        return projected, epoch
    return state


class _IngestWorker(threading.Thread):
    """One ingest worker: a bounded FIFO queue plus the drain loop.

    Each shard is statically assigned to exactly one worker
    (``shard % n_workers``), so per-shard task order is the enqueue
    order — the property that makes drained async ingest bit-identical
    to synchronous ingest.
    """

    def __init__(self, router: "ShardedTruthService", index: int,
                 queue_size: int) -> None:
        super().__init__(name=f"truth-ingest-{index}", daemon=True)
        self.queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._router = router

    def run(self) -> None:
        """Drain tasks until the ``None`` sentinel arrives.

        Task exceptions are recorded on the router (surfaced as
        :class:`IngestWorkerError` at the next API call) and the loop
        continues, so a poisoned task never wedges the queue.
        """
        while True:
            task = self.queue.get()
            try:
                if task is None:
                    return
                self._router._execute(task)
            except BaseException as error:  # noqa: BLE001 - surfaced later
                self._router._record_worker_error(error, task)
            finally:
                self.queue.task_done()


class MergedRegistryView:
    """Registry facade that re-merges router + shard metrics per call.

    Exposes the read surface exporters use (``snapshot()``,
    ``to_prometheus()``, ``enabled``) while delegating each call to a
    fresh :meth:`ShardedTruthService.merged_registry`, so a long-lived
    exporter always renders the shards' *current* counters.
    """

    def __init__(self, service: "ShardedTruthService") -> None:
        self._service = service

    @property
    def enabled(self) -> bool:
        """Whether the underlying router registry records metrics."""
        return self._service.registry.enabled

    def snapshot(self) -> dict:
        """A fresh merged snapshot of router + shard registries."""
        return self._service.merged_registry().snapshot()

    def to_prometheus(self) -> str:
        """The merged registry in Prometheus text exposition format."""
        return self._service.merged_registry().to_prometheus()


class ShardedTruthService:
    """Hash/range-partitioned truth serving over N ``TruthService``
    shards with one global Algorithm-2 weight plane.

    >>> service = ShardedTruthService(schema, n_shards=4, window=2,
    ...                               codecs=dataset.codecs())
    >>> service.ingest(iter_dataset_claims(dataset))
    >>> service.flush()
    >>> truths = service.get_truth(dataset.object_ids[:10])

    ``ingest_threads=0`` (the default) routes and applies everything on
    the calling thread; ``ingest_threads=T`` starts T workers with
    bounded FIFO queues — ``backpressure`` picks what a full queue does
    (``"block"`` the producer, or ``"reject"`` the whole batch with
    :class:`BackpressureError`).  Results are invariant to shard count,
    policy, and ingest mode (after :meth:`drain`): each equals a single
    unsharded ``TruthService`` fed the same claims, bit for bit.

    One router call at a time: ``ingest``/``flush``/``snapshot`` are
    serialized by an internal producer lock (concurrent *reads* run
    freely against the shard locks / published snapshots).
    """

    def __init__(self, schema: DatasetSchema, *, n_shards: int = 2,
                 window: int = 1, config: ICRHConfig | None = None,
                 codecs=None, policy: str = "hash",
                 ingest_threads: int = 0, queue_size: int = 256,
                 backpressure: str = "block",
                 lock_timeout: float = 0.05,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if ingest_threads < 0:
            raise ValueError(
                f"ingest_threads must be >= 0, got {ingest_threads}")
        if backpressure not in ("block", "reject"):
            raise ValueError(
                f"backpressure must be 'block' or 'reject', "
                f"got {backpressure!r}"
            )
        self.schema = schema
        self.n_shards = int(n_shards)
        self.window = int(window)
        self.config = config or ICRHConfig()
        self.policy_name = policy
        self._policy = shard_policy_by_name(policy)
        self.backpressure = backpressure
        self.tracer = tracer
        self._lock_timeout = float(lock_timeout)
        self.registry = metrics if metrics is not None else MetricsRegistry()
        enabled = self.registry.enabled
        # One shared codec object per categorical property: shards and
        # the seal-time scratch store all encode through the same
        # first-seen label order, so codes are global.
        self._codecs: dict[str, CategoricalCodec] = {}
        seed = dict(codecs or {})
        for prop in schema:
            if prop.uses_codec:
                prior = seed.get(prop.name)
                labels = prior.labels if prior is not None else ()
                self._codecs[prop.name] = CategoricalCodec(labels)
        self._prop_names = {prop.name for prop in schema}
        # Shards: window bookkeeping disabled (the router seals), own
        # registries (merged with shard=<i> labels), planner escalation
        # off (the router mirrors the global planner's decision).
        self._shards: list[TruthService] = []
        self._holders: list[_ServingStateHolder] = []
        self._locks = [threading.RLock() for _ in range(self.n_shards)]
        for _ in range(self.n_shards):
            shard = TruthService(
                schema, window=self.window, config=self.config,
                metrics=MetricsRegistry(enabled=enabled),
                planner=RecomputePlanner(full_fraction=1.0),
            )
            shard._store._codecs = self._codecs
            holder = _ServingStateHolder()
            shard._external_state = _shard_state_hook(shard, holder)
            self._shards.append(shard)
            self._holders.append(holder)
        # Global weight plane (the one Algorithm-2 model) and planner.
        serving_config = (self.config if self.config.backend == "sparse"
                          else replace(self.config, backend="sparse"))
        self._model = IncrementalCRH(serving_config)
        self._planner = RecomputePlanner()
        # Global registries the routing producer owns.
        self._source_ids: list[Hashable] = []
        self._source_index: dict[Hashable, int] = {}
        self._object_ids: list[Hashable] = []
        self._object_index: dict[Hashable, int] = {}
        #: gidx -> (shard, shard-local object index), mirrored at route
        #: time so seals can address shard stores before workers absorb
        self._locations: list[tuple[int, int]] = []
        self._shard_sizes = [0] * self.n_shards
        self._shard_claims = [0] * self.n_shards
        self._pending: dict[float, list[int]] = {}
        self._window_claims: dict[int, list[Claim]] = {}
        self._sealed_high: float | None = None
        self._dirty: set[int] = set()
        self._ingest_lock = threading.Lock()
        self._errors: list[IngestWorkerError] = []
        self._closed = False
        registry = self.registry
        self._c_submitted = registry.counter("submitted_claims")
        self._c_rejected = registry.counter("rejected_claims")
        self._c_missing = registry.counter("missing_claims")
        self._c_retries = registry.counter("shard_busy_retries")
        self._c_sealed = registry.counter("windows_sealed")
        self._g_queue_depth = registry.gauge("queue_depth")
        self._g_imbalance = registry.gauge("shard_imbalance")
        self._h_lock_wait = [
            registry.histogram("lock_wait_seconds", shard=str(s))
            for s in range(self.n_shards)
        ]
        self.ingest_mode = "threads" if ingest_threads else "sync"
        self._workers: list[_IngestWorker] = []
        for index in range(ingest_threads):
            worker = _IngestWorker(self, index, queue_size)
            worker.start()
            self._workers.append(worker)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> tuple[TruthService, ...]:
        """The underlying per-shard services (read-mostly introspection)."""
        return tuple(self._shards)

    @property
    def source_ids(self) -> tuple:
        """Sources seen so far, in global first-appearance order."""
        return tuple(self._source_ids)

    @property
    def object_ids(self) -> tuple:
        """Objects seen so far, in global first-appearance order."""
        return tuple(self._object_ids)

    @property
    def n_objects(self) -> int:
        """Objects seen so far across all shards."""
        return len(self._object_ids)

    @property
    def n_sources(self) -> int:
        """Sources seen so far across all shards."""
        return len(self._source_ids)

    def shard_of(self, object_id: Hashable) -> int:
        """Which shard serves ``object_id`` (KeyError if never claimed)."""
        return self._locations[self._object_index[object_id]][0]

    def _tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    # ------------------------------------------------------------------
    # locks, workers, dispatch
    # ------------------------------------------------------------------
    @contextmanager
    def _acquire(self, shard_index: int):
        """Acquire a shard lock with retry-on-busy accounting.

        Each timed-out acquisition attempt increments
        ``shard_busy_retries`` and retries in place (re-queuing would
        reorder the shard's FIFO); the total wait lands in the
        per-shard ``lock_wait_seconds`` histogram.
        """
        lock = self._locks[shard_index]
        started = time.perf_counter()
        while not lock.acquire(timeout=self._lock_timeout):
            self._c_retries.inc()
        self._h_lock_wait[shard_index].observe(
            time.perf_counter() - started)
        try:
            yield
        finally:
            lock.release()

    def _record_worker_error(self, error: BaseException, task) -> None:
        """Capture a worker task failure for the next API call."""
        kind = task[0] if isinstance(task, tuple) and task else "?"
        wrapped = IngestWorkerError(
            f"ingest worker failed on a {kind!r} task: {error!r}"
        )
        wrapped.__cause__ = error
        self._errors.append(wrapped)

    def _raise_worker_errors(self) -> None:
        """Raise the first recorded worker failure, if any."""
        if self._errors:
            raise self._errors[0]

    def _worker_for(self, shard_index: int) -> _IngestWorker:
        return self._workers[shard_index % len(self._workers)]

    def _dispatch(self, task) -> None:
        """Run a shard task: enqueue to its worker, or execute inline."""
        if self._workers:
            self._worker_for(task[1]).queue.put(task)
        else:
            self._execute(task)

    def _execute(self, task) -> None:
        """Execute one shard task under that shard's lock.

        Tasks (``shard`` is the shard index everywhere):

        * ``("absorb", shard, claims)`` — append claims to the shard
          store (dirty-marking only; no sealing).
        * ``("seal", shard, local_indices, columns, state)`` — install
          router-computed sealed truths and deliver the post-seal
          global serving state.
        * ``("state", shard, state)`` — deliver the serving state only
          (shards untouched by a seal still see the new weights).
        * ``("drain", shard, scope, state)`` — recompute under the
          delivered state: the shard's dirty set (``scope="dirty"``) or
          every object (``scope="full"``, mirroring the global
          planner's escalation).
        """
        kind = task[0]
        shard_index = task[1]
        shard = self._shards[shard_index]
        holder = self._holders[shard_index]
        with self._acquire(shard_index):
            if kind == "absorb":
                shard.absorb(task[2])
            elif kind == "seal":
                _, _, local_indices, columns, state = task
                holder.current = state
                shard.apply_seal(local_indices, columns,
                                 version=state[2])
            elif kind == "state":
                holder.current = task[2]
            elif kind == "drain":
                _, _, scope, state = task
                holder.current = state
                if scope == "full":
                    shard.recompute_all()
                else:
                    shard.drain_dirty()
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown ingest task kind {kind!r}")

    def _captured_state(self) -> tuple:
        """An immutable copy of the global serving state, for tasks."""
        state = self._model.state
        return (tuple(state.source_ids), state.weights.copy(),
                state.epoch)

    def _queue_depth(self) -> int:
        return sum(w.queue.qsize() for w in self._workers)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, claims: Iterable) -> IngestReport:
        """Route a batch of claims across the shards.

        Mirrors :meth:`TruthService.ingest` exactly: the router runs
        the same per-claim window bookkeeping (pending stamps, mid-
        batch sealing, the late-claim rule), seals windows through the
        shared global model, and dispatches a dirty recompute after the
        batch.  With worker threads the shard-side work is enqueued and
        the call returns once routing is done — ``recomputed_objects``
        counts the objects *scheduled* for recomputation (the work
        completes asynchronously; :meth:`drain` waits for it).  In
        reject backpressure mode a
        full worker queue rejects the *whole batch* up front with
        :class:`BackpressureError`.
        """
        with self._ingest_lock:
            self._raise_worker_errors()
            if self._closed:
                raise RuntimeError("service is closed")
            batch = [as_claim(item) for item in claims]
            if (self.backpressure == "reject" and self._workers
                    and any(w.queue.full() for w in self._workers)):
                self._c_rejected.inc(len(batch))
                raise BackpressureError(
                    f"ingest queue full ({len(batch)} claims rejected); "
                    f"drain or retry later"
                )
            started = time.perf_counter()
            k_before = len(self._source_ids)
            buffers: list[list[Claim]] = [[] for _ in self._shards]
            absorbed = 0
            new_objects = 0
            sealed = 0
            for claim in batch:
                if claim.timestamp is None:
                    raise ValueError(
                        "claims need timestamps to drive window "
                        "sealing; got None for object "
                        f"{claim.object_id!r}"
                    )
                if claim.property_name not in self._prop_names:
                    raise ValueError(
                        f"unknown property {claim.property_name!r}; "
                        f"schema has {sorted(self._prop_names)}"
                    )
                if claim_value_is_missing(claim,
                                          claim.property_name in self._codecs):
                    # Dropped here, before any routing, exactly as a
                    # shard's store would drop it.
                    self._c_missing.inc()
                    continue
                if claim.source_id not in self._source_index:
                    self._source_index[claim.source_id] = len(
                        self._source_ids)
                    self._source_ids.append(claim.source_id)
                codec = self._codecs.get(claim.property_name)
                if codec is not None:
                    codec.encode(claim.value)
                gidx = self._object_index.get(claim.object_id)
                created = gidx is None
                pended = False
                if created:
                    gidx = len(self._object_ids)
                    self._object_ids.append(claim.object_id)
                    self._object_index[claim.object_id] = gidx
                    shard_index = self._policy(
                        claim.object_id, gidx, self.n_shards) % \
                        self.n_shards
                    self._locations.append(
                        (shard_index, self._shard_sizes[shard_index]))
                    self._shard_sizes[shard_index] += 1
                    new_objects += 1
                    stamp = float(claim.timestamp)
                    if (self._sealed_high is not None
                            and stamp <= self._sealed_high):
                        pass  # late object: dirty-only, never pends
                    else:
                        self._pending.setdefault(stamp, []).append(gidx)
                        self._window_claims[gidx] = []
                        pended = True
                shard_index = self._locations[gidx][0]
                if gidx in self._window_claims:
                    self._window_claims[gidx].append(claim)
                buffers[shard_index].append(claim)
                self._shard_claims[shard_index] += 1
                self._dirty.add(gidx)
                absorbed += 1
                if pended:
                    while len(self._pending) > self.window:
                        self._flush_buffers(buffers)
                        self._seal_global(
                            sorted(self._pending)[:self.window])
                        sealed += 1
            self._flush_buffers(buffers)
            dirty_after = len(self._dirty)
            recomputed = self._dispatch_drains()
            elapsed = time.perf_counter() - started
            self._c_submitted.inc(absorbed)
            self._update_gauges()
            report = IngestReport(
                ingested_claims=absorbed,
                new_objects=new_objects,
                new_sources=len(self._source_ids) - k_before,
                windows_sealed=sealed,
                dirty_objects=dirty_after,
                recomputed_objects=recomputed,
                elapsed_seconds=elapsed,
            )
            if self._tracing():
                self.tracer.emit(ingest_record(
                    ingested_claims=report.ingested_claims,
                    new_objects=report.new_objects,
                    new_sources=report.new_sources,
                    windows_sealed=report.windows_sealed,
                    dirty_objects=report.dirty_objects,
                    recomputed_objects=report.recomputed_objects,
                    elapsed_seconds=elapsed,
                    n_shards=self.n_shards,
                    ingest_mode=self.ingest_mode,
                ))
            return report

    def _flush_buffers(self, buffers: list[list[Claim]]) -> None:
        """Dispatch the accumulated per-shard claim runs as absorb
        tasks (always *before* any seal, so FIFO order guarantees the
        shard store holds every window claim when the seal applies)."""
        for shard_index, run in enumerate(buffers):
            if run:
                self._dispatch(("absorb", shard_index, run))
                buffers[shard_index] = []

    def _seal_global(self, window_ts) -> None:
        """Seal one window through the shared global model.

        Replays the window objects' buffered claims into a scratch
        :class:`~repro.streaming.store.ClaimStore` that is seeded with
        the shared codecs and the *global* source registry (so source
        positions and categorical codes match the unsharded store),
        runs ``partial_fit`` on the resulting chunk — the identical
        Algorithm-2 step a single ``TruthService`` would run — and
        scatters the chunk-final truths back to the owning shards.
        """
        objects: list[int] = []
        for stamp in sorted(window_ts):
            objects.extend(self._pending.pop(stamp))
        scratch = ClaimStore(self.schema)
        scratch._codecs = self._codecs
        for source_id in self._source_ids:
            scratch.source_position(source_id)
        for gidx in objects:
            for claim in self._window_claims.pop(gidx):
                scratch.add(claim)
        indices = np.arange(len(objects), dtype=np.int64)
        chunk = scratch.dataset_for(indices)
        truths = self._model.partial_fit(chunk)
        state = self._captured_state()
        rows_by_shard: dict[int, tuple[list[int], list[int]]] = {}
        for row, gidx in enumerate(objects):
            shard_index, local = self._locations[gidx]
            rows, locals_ = rows_by_shard.setdefault(
                shard_index, ([], []))
            rows.append(row)
            locals_.append(local)
        for shard_index in range(self.n_shards):
            entry = rows_by_shard.get(shard_index)
            if entry is None:
                self._dispatch(("state", shard_index, state))
                continue
            rows, locals_ = entry
            take = np.asarray(rows, dtype=np.int64)
            columns = [np.asarray(col)[take] for col in truths.columns]
            self._dispatch((
                "seal", shard_index,
                np.asarray(locals_, dtype=np.int64), columns, state,
            ))
        self._dirty.difference_update(objects)
        high = float(max(window_ts))
        self._sealed_high = (high if self._sealed_high is None
                             else max(self._sealed_high, high))
        self._c_sealed.inc()

    def _dispatch_drains(self) -> int:
        """Plan the post-batch recompute globally and dispatch it.

        Uses the same :class:`RecomputePlanner` decision a single
        ``TruthService`` would make over the union dirty set: ``full``
        escalation recomputes every shard entirely, ``dirty`` drains
        each shard's own dirty objects.  Returns the number of objects
        scheduled (synchronously recomputed when there are no
        workers).
        """
        if not self._dirty:
            return 0
        plan = self._planner.plan(self._dirty, len(self._object_ids))
        if plan.scope == "none":
            return 0
        state = self._captured_state()
        if plan.scope == "full":
            targets = range(self.n_shards)
            scheduled = len(self._object_ids)
        else:
            targets = sorted({self._locations[gidx][0]
                              for gidx in self._dirty})
            scheduled = plan.n_objects
        for shard_index in targets:
            self._dispatch(("drain", shard_index, plan.scope, state))
        self._dirty.clear()
        return scheduled

    def drain(self) -> None:
        """Block until every queued ingest task has been applied.

        After ``drain`` returns, shard stores, caches and published
        snapshots reflect every prior :meth:`ingest` call — the point
        at which threaded ingest is bit-identical to sync ingest.
        Raises :class:`IngestWorkerError` if any task failed.
        """
        for worker in self._workers:
            worker.queue.join()
        self._update_gauges()
        self._raise_worker_errors()

    def flush(self) -> int:
        """Drain, then seal every pending window (end of stream).

        Mirrors :meth:`TruthService.flush`: repeatedly seals the
        oldest ``window`` pending timestamps through the global model.
        Returns how many windows were sealed, and emits one ``flush``
        trace record carrying them when tracing.
        """
        with self._ingest_lock:
            started = time.perf_counter()
            self.drain()
            sealed = 0
            while self._pending:
                self._seal_global(sorted(self._pending)[:self.window])
                sealed += 1
            self.drain()
            self._update_gauges()
            if self._tracing():
                self.tracer.emit(flush_record(
                    windows_sealed=sealed,
                    elapsed_seconds=time.perf_counter() - started,
                    n_shards=self.n_shards,
                    ingest_mode=self.ingest_mode,
                ))
            return sealed

    def recompute_all(self) -> int:
        """Re-resolve every object on every shard under the current
        global weights; returns how many objects were resolved."""
        with self._ingest_lock:
            self.drain()
            state = self._captured_state()
            for shard_index in range(self.n_shards):
                self._dispatch(("drain", shard_index, "full", state))
            self._dirty.clear()
            self.drain()
            return len(self._object_ids)

    def close(self) -> None:
        """Drain outstanding work and stop the worker threads.

        Idempotent; raises :class:`IngestWorkerError` if any queued
        task failed.  Further ``ingest`` calls raise.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.queue.join()
        for worker in self._workers:
            worker.queue.put(None)
        for worker in self._workers:
            worker.join()
        self._raise_worker_errors()

    def __enter__(self) -> "ShardedTruthService":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the worker pool."""
        self.close()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _group_by_shard(self, ids: list) -> dict[int, list[int]]:
        """Input positions grouped by owning shard (KeyError on
        unknown ids, matching the unsharded service)."""
        groups: dict[int, list[int]] = {}
        for position, object_id in enumerate(ids):
            gidx = self._object_index.get(object_id)
            if gidx is None:
                raise KeyError(object_id)
            groups.setdefault(self._locations[gidx][0],
                              []).append(position)
        return groups

    def _assemble(self, ids: list,
                  per_shard: dict[int, tuple[list[int], TruthTable]],
                  ) -> TruthTable:
        """Merge per-shard truth tables back into input order."""
        columns: list[np.ndarray] = []
        for m, prop in enumerate(self.schema):
            if prop.uses_codec:
                column = np.full(len(ids), -1, dtype=np.int32)
            else:
                column = np.full(len(ids), np.nan, dtype=np.float64)
            for positions, table in per_shard.values():
                column[np.asarray(positions, dtype=np.int64)] = \
                    table.columns[m]
            columns.append(column)
        return TruthTable(
            schema=self.schema,
            object_ids=ids,
            columns=columns,
            codecs=dict(self._codecs),
        )

    def get_truth(self, object_ids: Iterable) -> TruthTable:
        """Fresh truths for ``object_ids`` (read-your-writes per shard).

        Groups the ids by owning shard and serves each group through
        its shard's :meth:`TruthService.get_truth` under that shard's
        lock — dirty objects are resolved on demand under the shard's
        last-delivered global weights.  With threaded ingest, claims
        still queued are not yet visible; call :meth:`drain` first for
        a fully up-to-date read.
        """
        started = time.perf_counter()
        ids = list(object_ids)
        groups = self._group_by_shard(ids)
        per_shard: dict[int, tuple[list[int], TruthTable]] = {}
        for shard_index, positions in groups.items():
            wanted = [ids[p] for p in positions]
            with self._acquire(shard_index):
                table = self._shards[shard_index].get_truth(wanted)
            per_shard[shard_index] = (positions, table)
        result = self._assemble(ids, per_shard)
        if self._tracing():
            self.tracer.emit(read_record(
                read_objects=len(ids),
                elapsed_seconds=time.perf_counter() - started,
                n_shards=self.n_shards,
                ingest_mode=self.ingest_mode,
            ))
        return result

    def read_truth(self, object_ids: Iterable) -> TruthTable:
        """Snapshot-isolated truths for ``object_ids`` — lock-free.

        Serves each shard's latest *published*
        :class:`~repro.streaming.service.TruthSnapshot`: no lock is
        taken, no resolution runs, and a concurrent seal or recompute
        can never tear a value.  Ids routed to a shard but not yet in
        its published snapshot raise ``KeyError`` (bounded staleness —
        ingest publishes at batch boundaries).
        """
        ids = list(object_ids)
        groups = self._group_by_shard(ids)
        per_shard = {
            shard_index: (positions,
                          self._shards[shard_index].read_truth(
                              [ids[p] for p in positions]))
            for shard_index, positions in groups.items()
        }
        return self._assemble(ids, per_shard)

    def get_weights(self) -> np.ndarray:
        """Global per-source weights, aligned with :attr:`source_ids`.

        Sources not yet covered by a sealed window carry the
        Algorithm-2 line-1 weight of 1 — identical to
        :meth:`TruthService.get_weights` on an unsharded service fed
        the same stream.
        """
        weights = np.ones(len(self._source_ids))
        k = self._model.state.n_sources
        if k:
            weights[:k] = self._model.state.weights
        return weights

    def weights_by_source(self) -> dict:
        """Weights keyed by source id (convenience for reporting)."""
        return dict(zip(self._source_ids, self.get_weights()))

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _update_gauges(self) -> None:
        """Refresh the router's queue/imbalance/SLO gauges."""
        registry = self.registry
        if not registry.enabled:
            return
        self._g_queue_depth.set(self._queue_depth())
        claims = self._shard_claims
        mean = sum(claims) / len(claims)
        self._g_imbalance.set(max(claims) / mean if mean else 0.0)
        # Router-level copies of the serving SLO gauges, so health
        # rules written for an unsharded service keep evaluating.
        registry.gauge("dirty_objects").set(len(self._dirty))
        registry.gauge("pending_timestamps").set(len(self._pending))
        registry.gauge("truth_version").set(self._model.state.epoch)
        drift = self._model.last_weight_delta
        registry.gauge("weight_drift").set(0.0 if drift is None
                                           else drift)

    def registry_view(self) -> "MergedRegistryView":
        """A live exporter-facing view over :meth:`merged_registry`.

        :class:`~repro.observability.export.MetricsExporter` and the
        serve-sim HTTP endpoint hold one registry object and snapshot
        it repeatedly; this view re-merges the router and shard
        registries on every ``snapshot()``/``to_prometheus()`` call so
        exports stay current without re-wiring the exporter.
        """
        return MergedRegistryView(self)

    def merged_registry(self) -> MetricsRegistry:
        """One registry view over the router and every shard.

        Router instruments merge unlabeled; each shard's instruments
        merge with a ``shard=<i>`` label — the same per-source-series
        pattern the process backend uses for ``worker=<pid>``
        partials.  Built fresh per call (shard registries keep
        updating concurrently).
        """
        merged = MetricsRegistry(enabled=self.registry.enabled)
        merged.merge_snapshot(self.registry.snapshot())
        for shard_index, shard in enumerate(self._shards):
            merged.merge_snapshot(
                shard.registry.snapshot(),
                extra_labels={"shard": str(shard_index)},
            )
        return merged

    def metrics(self) -> dict:
        """Aggregated serving counters across the router and shards.

        Every key is a ``docs/OBSERVABILITY.md`` glossary name; the
        per-shard split is available via :meth:`merged_registry`.
        """
        def total(name: str) -> int:
            return int(sum(shard.registry.value(name)
                           for shard in self._shards))

        hits = total("cache_hits")
        misses = total("cache_misses")
        reads = hits + misses
        return {
            "n_shards": self.n_shards,
            "ingest_mode": self.ingest_mode,
            "n_sources": len(self._source_ids),
            "n_objects": len(self._object_ids),
            "n_claims": sum(self._shard_claims),
            "submitted_claims": int(self._c_submitted.value),
            "ingested_claims": total("ingested_claims"),
            "rejected_claims": int(self._c_rejected.value),
            "missing_claims": int(self._c_missing.value),
            "shard_busy_retries": int(self._c_retries.value),
            "windows_sealed": int(self._c_sealed.value),
            "pending_timestamps": len(self._pending),
            "dirty_objects": len(self._dirty),
            "cached_objects": sum(
                shard._cache.n_cached() for shard in self._shards),
            "recomputed_objects": total("recomputed_objects"),
            "read_objects": total("read_objects"),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / reads if reads else 1.0,
            "snapshot_reads": total("snapshot_reads"),
            "queue_depth": self._queue_depth(),
            "shard_imbalance": float(self._g_imbalance.value),
        }

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def snapshot(self, directory) -> None:
        """Persist the full sharded state under ``directory``.

        Safe under concurrent load: drains the ingest queues, then
        holds every shard lock while writing, so the snapshot is a
        consistent cut.  Layout: one
        :meth:`TruthService.snapshot` directory per shard
        (``shard<i>/``) plus ``router.json`` / ``router_state.npz``
        (global model, window clock, registries, buffered window
        claims).
        """
        with self._ingest_lock:
            self.drain()
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            for lock in self._locks:
                lock.acquire()
            try:
                for shard_index, shard in enumerate(self._shards):
                    shard.snapshot(directory / f"shard{shard_index}")
                state = self._model.state
                history = (state.weight_history()
                           if state.history_length
                           else np.zeros((0, state.n_sources)))
                np.savez(
                    directory / "router_state.npz",
                    accumulated=state.accumulated.copy(),
                    counts=state.counts.copy(),
                    weights=state.weights.copy(),
                    weight_history=history,
                )
                meta = {
                    "snapshot_schema": SNAPSHOT_SCHEMA,
                    "n_shards": self.n_shards,
                    "policy": self.policy_name,
                    "window": self.window,
                    "config": _config_to_dict(self.config),
                    "codec_labels": {
                        name: list(codec.labels)
                        for name, codec in self._codecs.items()
                    },
                    "sources": list(self._source_ids),
                    "objects": list(self._object_ids),
                    "locations": [list(loc) for loc in self._locations],
                    "shard_claims": list(self._shard_claims),
                    "n_state_sources": state.n_sources,
                    "epoch": state.epoch,
                    "chunks_seen": self._model.chunks_seen,
                    "window_advances": self._model.window_advances,
                    "decay_applications": self._model.decay_applications,
                    "sealed_high": self._sealed_high,
                    "pending": [[stamp, objs]
                                for stamp, objs in self._pending.items()],
                    "window_claims": {
                        str(gidx): [list(claim) for claim in claims]
                        for gidx, claims in self._window_claims.items()
                    },
                    "dirty": sorted(int(i) for i in self._dirty),
                    "totals": {
                        "submitted_claims": int(self._c_submitted.value),
                        "rejected_claims": int(self._c_rejected.value),
                        "missing_claims": int(self._c_missing.value),
                        "shard_busy_retries": int(self._c_retries.value),
                        "windows_sealed": int(self._c_sealed.value),
                    },
                }
                (directory / "router.json").write_text(
                    json.dumps(meta, indent=2, default=_json_default))
            finally:
                for lock in self._locks:
                    lock.release()

    @classmethod
    def restore(cls, directory, *, ingest_threads: int = 0,
                tracer: Tracer | None = None,
                metrics: MetricsRegistry | None = None,
                ) -> "ShardedTruthService":
        """Rebuild a sharded service from a :meth:`snapshot` directory.

        ``ingest_threads`` configures the restored async front (the
        snapshot itself is mode-independent — drained state is
        identical either way).
        """
        directory = Path(directory)
        meta = json.loads((directory / "router.json").read_text())
        if meta.get("snapshot_schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported snapshot_schema "
                f"{meta.get('snapshot_schema')!r} in {directory}"
            )
        shards = [
            TruthService.restore(directory / f"shard{i}")
            for i in range(int(meta["n_shards"]))
        ]
        service = cls(
            shards[0].schema,
            n_shards=int(meta["n_shards"]),
            window=int(meta["window"]),
            config=_config_from_dict(meta["config"]),
            policy=meta["policy"],
            ingest_threads=ingest_threads,
            tracer=tracer,
            metrics=metrics,
        )
        # Re-seed the shared codecs with the snapshot's label order and
        # swap the restored shards in (rewiring codecs, planner and the
        # global-state hook the plain restore path does not know about).
        for name, labels in meta.get("codec_labels", {}).items():
            codec = service._codecs.get(name)
            if codec is not None:
                codec._labels = list(labels)
                codec._codes = {
                    label: i for i, label in enumerate(labels)}
        for shard_index, shard in enumerate(shards):
            shard._store._codecs = service._codecs
            shard._planner = RecomputePlanner(full_fraction=1.0)
            holder = service._holders[shard_index]
            shard._external_state = _shard_state_hook(shard, holder)
            service._shards[shard_index] = shard
        bundle = np.load(directory / "router_state.npz")
        k = int(meta["n_state_sources"])
        if k:
            padded = bundle["weight_history"]
            history = []
            for row in padded:
                observed = np.flatnonzero(~np.isnan(row))
                length = int(observed[-1]) + 1 if observed.size else 0
                history.append(row[:length])
            service._model.state.load(
                tuple(meta["sources"])[:k],
                bundle["accumulated"], bundle["counts"],
                bundle["weights"], history, epoch=int(meta["epoch"]),
            )
        service._model._chunks_seen = int(meta["chunks_seen"])
        service._model.window_advances = int(meta["window_advances"])
        service._model.decay_applications = int(
            meta["decay_applications"])
        service._source_ids = list(meta["sources"])
        service._source_index = {
            s: i for i, s in enumerate(service._source_ids)}
        service._object_ids = list(meta["objects"])
        service._object_index = {
            o: i for i, o in enumerate(service._object_ids)}
        service._locations = [
            (int(s), int(local)) for s, local in meta["locations"]]
        service._shard_sizes = [0] * service.n_shards
        for shard_index, _ in service._locations:
            service._shard_sizes[shard_index] += 1
        service._shard_claims = [int(c) for c in meta["shard_claims"]]
        sealed_high = meta.get("sealed_high")
        service._sealed_high = (None if sealed_high is None
                                else float(sealed_high))
        service._pending = {
            float(stamp): [int(i) for i in objs]
            for stamp, objs in meta.get("pending", [])
        }
        service._window_claims = {
            int(gidx): [Claim(*fields) for fields in claims]
            for gidx, claims in meta.get("window_claims", {}).items()
        }
        service._dirty = {int(i) for i in meta.get("dirty", [])}
        for name, value in meta.get("totals", {}).items():
            service.registry.counter(name).inc(float(value))
        state = service._captured_state()
        for holder in service._holders:
            holder.current = state
        for shard in service._shards:
            shard._publish()  # re-publish under the global epoch
        service._update_gauges()
        return service
