"""The benchmark's four workloads, driven through the public API only.

Each workload builds its inputs from a seed (set-up), runs one timed
body per iteration, and checks every iteration's output outside the
timed window.  Calls into the program go through
:meth:`harness.Meter.call`, which counts the operation, times it, and
records a span named ``<layer>.<call>`` after the module it enters.

Sizes scale with ``scale`` (1 is the benchmark; the tests use a tiny
scale).  Module import brings in NumPy and ``repro``, so importing this
module is part of every workload's set-up time.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

from repro import crh
from repro.baselines import PAPER_METHOD_ORDER, resolver_by_name
from repro.core import dispatch
from repro.data import (
    CategoricalCodec,
    DatasetSchema,
    categorical,
    claims_from_arrays,
    continuous,
)
from repro.data.schema import PropertyKind
from repro.datasets import (
    ADULT_ROUNDING,
    PAPER_GAMMAS,
    StockConfig,
    WeatherConfig,
    generate_adult_truth,
    generate_stock_dataset,
    generate_weather_dataset,
    simulate_sources,
)
from repro.metrics import error_rate, mnad
from repro.parallel import ParallelCRHConfig, parallel_crh
from repro.streaming import ICRHConfig, TruthService, icrh, \
    iter_dataset_claims

HERE = Path(__file__).resolve().parent
#: stored Table-2 scores of ``stock-table`` at scale 1, keyed by seed
EXPECTED_STOCK = HERE / "expected" / "stock_table.json"
#: relative tolerance on a stored MNAD (last-digit libm differences
#: between machines); error rates must match exactly
MNAD_REL_TOL = 1e-9
#: CRH runs exactly this many iterations (``tol=0`` with that patience
#: never stops it early), so the work in a run does not depend on how
#: fast one seed's data happens to converge
FIXED_CRH = {"max_iterations": 10, "tol": 0.0, "patience": 10}
#: single-object ``get_truth`` reads after every ``ingest`` (serve-stream)
READS_PER_INGEST = 3
#: single-object truth-row reads from each batch solver call's result:
#: enough that a run holds >= 1,000 reads, so its p99 has >= 10 beyond it
READS_PER_FIT = 200


def kernel_tier() -> str:
    """The kernel tier ``kernel_tier="auto"`` resolves to here."""
    return dispatch.resolve_kernel_tier("auto")[0]


def _max_categories(dataset) -> int:
    codecs = dataset.codecs()
    return max((len(codec) for codec in codecs.values()), default=0)


def _sizes(dataset) -> dict:
    return {
        "claims": int(dataset.n_observations()),
        "objects": int(dataset.n_objects),
        "sources": int(dataset.n_sources),
        "max_categories": _max_categories(dataset),
    }


def _read_rows(meter, table, object_ids) -> None:
    """Read each object's truth row from a fitted result's table."""
    if table is None:
        return
    names = table.schema.names()
    for object_id in object_ids:
        meter.call("read", "data.read_truth",
                   lambda o=object_id: [table.value(o, n) for n in names],
                   latency="read")


def _same_arrays(label: str, got, want) -> str | None:
    """``None`` when ``got`` equals ``want`` bit for bit, else why not."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return f"{label}: shape {got.shape} != {want.shape}"
    if got.dtype.kind == "f":
        same = np.array_equal(got, want, equal_nan=True)
    else:
        same = np.array_equal(got, want)
    return None if same else f"{label}: values differ"


def _same_result(label: str, got, want) -> str | None:
    """Truth columns and weights bit-identical between two results."""
    if len(got["columns"]) != len(want["columns"]):
        return f"{label}: column counts differ"
    problem = _same_arrays(f"{label} weights", got["weights"],
                           want["weights"])
    for m, (a, b) in enumerate(zip(got["columns"], want["columns"])):
        problem = problem or _same_arrays(f"{label} column {m}", a, b)
    return problem


def _fingerprint(result) -> dict | None:
    """The parts of a result the checks compare."""
    if result is None:
        return None
    return {"weights": np.array(result.weights, copy=True),
            "columns": [np.array(c, copy=True)
                        for c in result.truths.columns]}


def _read_targets(object_ids, n_calls: int, seed: int) -> list:
    """Objects to read after each of ``n_calls`` batch solver calls."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(object_ids), (n_calls, READS_PER_FIT))
    return [[object_ids[i] for i in row] for row in picks]


class Workload:
    """Defaults shared by the workloads.

    A workload builds its inputs once (``build``), may prepare per-
    iteration state outside the timed window (``prepare``), runs the
    timed ``body``, post-processes each iteration's output outside the
    timed window (``finish_iteration``), and checks all outputs at the
    end (``verify``).
    """

    name = ""
    #: whether the ``repro.datasets`` generators run in set-up (True) or
    #: inside the timed body (False)
    generation_is_setup = True

    def prepare(self, inputs: dict, tracer):
        """Per-iteration state made before the timer starts."""
        return None

    def finish_iteration(self, inputs: dict, out: dict) -> None:
        """Post-process one iteration's output, outside the timer."""

    def sizes(self, inputs: dict, outputs: list[dict]) -> dict:
        """Input sizes: claims, objects, sources, maximum categories."""
        for out in outputs:
            if out.get("sizes"):
                return out["sizes"]
        return inputs.get("sizes", {})


# ---------------------------------------------------------------------
# stock-table
# ---------------------------------------------------------------------

#: generator seeds the stock scores are stored for; a run's iterations
#: walk through consecutive seeds from ``--seed``, wrapping at this count
STOCK_SEEDS = 64


class StockTable(Workload):
    """The Stock column of Tables 2 and 5: generate, fit all, score.

    Iteration ``i`` of a run generates the dataset of generator seed
    ``(seed + i) % 64``.  The cost of one dataset follows its category
    counts, which differ from seed to seed by +-15%; walking through
    several datasets per run keeps that out of the run's median.
    """

    name = "stock-table"
    generation_is_setup = False

    def build(self, seed: int, scale: float, meter) -> dict:
        n_symbols = max(2, round(100 * scale))
        ids = [f"SYM{s:04d}/{d:02d}" for s in range(n_symbols)
               for d in range(10)]
        n_calls = len(PAPER_METHOD_ORDER) + 1
        return {"seed": seed, "scale": scale, "n_symbols": n_symbols,
                "iteration": 0,
                "targets": _read_targets(ids, n_calls, seed)}

    def config(self, inputs: dict, iteration: int) -> StockConfig:
        """The generator config of one iteration of the run."""
        return StockConfig(seed=(inputs["seed"] + iteration) % STOCK_SEEDS,
                           n_symbols=inputs["n_symbols"], n_days=10)

    def prepare(self, inputs: dict, tracer) -> StockConfig:
        config = self.config(inputs, inputs["iteration"])
        inputs["iteration"] += 1
        return config

    def body(self, inputs: dict, meter, tracer, config) -> dict:
        out = {"dataset_seed": config.seed, "scores": None}
        generated = meter.call("generate", "datasets.generate",
                               generate_stock_dataset, config)
        if generated is None:
            return out
        dataset = generated.dataset
        targets = iter(inputs["targets"])
        results = {}
        result = meter.call("crh", "core.crh", crh, dataset, tracer=tracer,
                            latency="write", **FIXED_CRH)
        results["CRH"] = result
        _read_rows(meter, result and result.truths, next(targets))
        for method in PAPER_METHOD_ORDER[1:]:
            result = meter.call(
                "fit", f"baselines.fit.{method}",
                lambda m=method: resolver_by_name(m).fit(dataset),
                latency="write")
            results[method] = result
            _read_rows(meter, result and result.truths, next(targets))
        stream = meter.call("icrh", "streaming.icrh", icrh, dataset,
                            window=1, tracer=tracer, latency="write")
        results["I-CRH"] = stream
        _read_rows(meter, stream and stream.truths, next(targets))
        out["scores"] = meter.call("score", "metrics.score", _score_all,
                                   results, generated.truth)
        crh_result = results["CRH"]
        out.update(
            sizes=_sizes(dataset),
            backend=crh_result.backend if crh_result else None,
            crh_iterations=crh_result.iterations if crh_result else 0,
        )
        return out

    def refit_scores(self, config: StockConfig) -> dict:
        """Scores with every method refitted on the ``sparse`` backend,
        which the program guarantees bit-identical to ``auto``."""
        generated = generate_stock_dataset(config)
        dataset = generated.dataset
        results = {"CRH": crh(dataset, backend="sparse", **FIXED_CRH)}
        for method in PAPER_METHOD_ORDER[1:]:
            results[method] = resolver_by_name(
                method, backend="sparse").fit(dataset)
        results["I-CRH"] = icrh(dataset, window=1,
                                config=ICRHConfig(backend="sparse"))
        return _score_all(results, generated.truth)

    def reference(self, inputs: dict, dataset_seed: int) -> dict:
        """The stored scores of a generator seed, else a sparse refit.

        Scores at scale 1 are stored with the workload
        (``record_expected.py``); other sizes are checked against
        :meth:`refit_scores`.
        """
        if inputs["scale"] == 1 and EXPECTED_STOCK.is_file():
            stored = json.loads(EXPECTED_STOCK.read_text())
            entry = stored["seeds"].get(str(dataset_seed))
            if entry is not None:
                return {"source": "stored", "scores": entry}
        config = StockConfig(seed=dataset_seed,
                             n_symbols=inputs["n_symbols"], n_days=10)
        return {"source": "sparse-refit",
                "scores": self.refit_scores(config)}

    def verify(self, inputs, outputs, meter, traced, layer) -> None:
        references = {}
        for i, out in enumerate(outputs):
            seed = out["dataset_seed"]
            if seed not in references:
                references[seed] = meter.call(
                    "fit", "check.reference", self.reference, inputs, seed)
            reference = references[seed]
            if reference is None:
                meter.check(f"scores[{i}]", lambda: "no reference scores")
                continue
            layer["expected_source"] = reference["source"]
            tolerance = (MNAD_REL_TOL if reference["source"] == "stored"
                         else 0)
            meter.check(f"scores[{i}]", lambda o=out, r=reference:
                        compare_scores(o["scores"], r["scores"], tolerance))


def _score_all(results: dict, truth) -> dict:
    """Error rate and MNAD per method, for the kinds it resolves."""
    scores = {}
    for method, result in results.items():
        if result is None:
            scores[method] = None
            continue
        if method in ("CRH", "I-CRH"):
            kinds = {PropertyKind.CATEGORICAL, PropertyKind.CONTINUOUS}
        else:
            resolver = resolver_by_name(method)
            kinds = {k for k in (PropertyKind.CATEGORICAL,
                                 PropertyKind.CONTINUOUS)
                     if resolver.handles_kind(k)}
        scores[method] = [
            error_rate(result.truths, truth)
            if PropertyKind.CATEGORICAL in kinds else None,
            mnad(result.truths, truth)
            if PropertyKind.CONTINUOUS in kinds else None,
        ]
    return scores


def compare_scores(got, want, tolerance: float) -> str | None:
    if got is None:
        return "no scores (an operation failed)"
    if set(got) != set(want):
        return f"methods {sorted(got)} != {sorted(want)}"
    for method, expected in want.items():
        actual = got[method]
        if actual is None:
            return f"{method}: no result"
        for label, a, b in zip(("error rate", "MNAD"), actual, expected):
            if a is None or b is None:
                if a is not b:
                    return f"{method} {label}: {a} != {b}"
                continue
            rel = tolerance if label == "MNAD" else 0
            if a != b and abs(a - b) > rel * abs(b):
                return f"{method} {label}: {a!r} != {b!r}"
    return None


# ---------------------------------------------------------------------
# adult-scale
# ---------------------------------------------------------------------

ADULT_PROPERTIES = 14
ADULT_SOURCES = 8
#: the Fig. 7 cluster shape, run for 5 fixed rounds
PARALLEL_CONFIG = ParallelCRHConfig(n_mappers=4, n_reducers=10,
                                    max_iterations=5, tol=0.0)


def _pinned_runs(dataset, meter, traced: bool, layer: dict,
                 auto_seconds: float) -> dict | None:
    """CRH pinned to the sparse (and, traced, process) backend.

    The sparse run is the bit-identity reference for ``auto``; the
    timings feed ``engine.sparse_s``, ``engine.process_s`` and
    ``engine.auto_over_best``.
    """
    started = time.perf_counter()
    sparse = _fingerprint(meter.call("crh", "engine.sparse", crh, dataset,
                                     backend="sparse", **FIXED_CRH))
    layer["engine.sparse_s"] = time.perf_counter() - started
    best = layer["engine.sparse_s"]
    if traced:
        started = time.perf_counter()
        process = _fingerprint(meter.call("crh", "engine.process", crh,
                                          dataset, backend="process",
                                          **FIXED_CRH))
        layer["engine.process_s"] = time.perf_counter() - started
        best = min(best, layer["engine.process_s"])
        if sparse is not None:
            meter.check("process == sparse", lambda: (
                "process run failed" if process is None
                else _same_result("process", process, sparse)))
    layer["engine.auto_over_best"] = auto_seconds / best
    return sparse


class AdultScale(Workload):
    """One Fig. 7 point: CRH (auto) then 5 fixed MapReduce rounds."""

    name = "adult-scale"

    def build(self, seed: int, scale: float, meter) -> dict:
        n_observations = max(ADULT_PROPERTIES * ADULT_SOURCES,
                             round(1_000_000 * scale))
        n_objects = max(1, round(n_observations
                                 / (ADULT_PROPERTIES * ADULT_SOURCES)))
        gammas = [PAPER_GAMMAS[i % len(PAPER_GAMMAS)]
                  for i in range(ADULT_SOURCES)]
        with meter.recorder.span("datasets.generate"):
            truth = generate_adult_truth(n_objects, seed)
            dataset = simulate_sources(
                truth, gammas, np.random.default_rng(seed + 77),
                rounding=ADULT_ROUNDING,
            )
        return {"dataset": dataset, "sizes": _sizes(dataset),
                "targets": _read_targets(dataset.object_ids, 2, seed)}

    def body(self, inputs: dict, meter, tracer, prepared) -> dict:
        dataset = inputs["dataset"]
        result = meter.call("crh", "core.crh", crh, dataset, tracer=tracer,
                            latency="write", **FIXED_CRH)
        _read_rows(meter, result and result.truths, inputs["targets"][0])
        parallel = meter.call("parallel_crh", "parallel.crh", parallel_crh,
                              dataset, PARALLEL_CONFIG, tracer=tracer,
                              latency="write")
        _read_rows(meter, parallel and parallel.truths,
                   inputs["targets"][1])
        out = {"crh": _fingerprint(result),
               "parallel": _fingerprint(parallel),
               "sizes": inputs["sizes"],
               "backend": result.backend if result else None,
               "crh_iterations": result.iterations if result else 0}
        if parallel is not None:
            out["mapreduce.simulated_s"] = parallel.simulated_seconds
            out["mapreduce.shuffled_records"] = sum(
                job.shuffled_records for job in parallel.job_log)
        return out

    def verify(self, inputs, outputs, meter, traced, layer) -> None:
        sparse = _pinned_runs(inputs["dataset"], meter, traced, layer,
                              layer["auto_crh_s"])
        first = outputs[0]["parallel"]
        for i, out in enumerate(outputs):
            meter.check(f"crh == sparse[{i}]", lambda o=out: (
                "no result" if o["crh"] is None or sparse is None
                else _same_result("crh", o["crh"], sparse)))
            meter.check(f"parallel_crh repeatable[{i}]", lambda o=out: (
                "no result" if o["parallel"] is None or first is None
                else _same_result("parallel_crh", o["parallel"], first)
                or (None if np.isfinite(o["parallel"]["weights"]).all()
                    else "non-finite weights")))


# ---------------------------------------------------------------------
# sparse-claims
# ---------------------------------------------------------------------

SPARSE_SOURCES = 50
SPARSE_DENSITY = 0.05
SPARSE_LABELS = 5


def build_sparse_claims(seed: int, n_objects: int):
    """K=50 sources claiming 5% of (source, object) cells per property.

    Two continuous properties (truth plus per-source Gaussian noise) and
    one categorical property with 5 labels (truth, or a uniform label
    with a per-source flip rate), assembled straight into CSR claims.
    """
    rng = np.random.default_rng(seed)
    k, n = SPARSE_SOURCES, n_objects
    schema = DatasetSchema.of(continuous("c0"), continuous("c1"),
                              categorical("label"))
    codec = CategoricalCodec()
    for label in range(SPARSE_LABELS):
        codec.encode(f"L{label}")
    sigma = rng.uniform(0.5, 4.0, k)
    flip = rng.uniform(0.05, 0.6, k)
    truths = {"c0": rng.normal(50.0, 10.0, n),
              "c1": rng.lognormal(3.0, 1.0, n),
              "label": rng.integers(0, SPARSE_LABELS, n)}
    target = max(1, int(k * n * SPARSE_DENSITY))
    columns = {}
    for name in schema.names():
        cells = np.unique(rng.integers(0, k * n, target, dtype=np.int64))
        source = (cells // n).astype(np.int32)
        obj = (cells % n).astype(np.int32)
        truth = truths[name][obj]
        if name == "label":
            flipped = rng.random(cells.size) < flip[source]
            other = rng.integers(0, SPARSE_LABELS, cells.size)
            values = np.where(flipped, other, truth).astype(np.int32)
        else:
            values = truth + rng.normal(0.0, 1.0, cells.size) * sigma[source]
        columns[name] = (values, source, obj)
    return claims_from_arrays(
        schema,
        source_ids=[f"src-{i:02d}" for i in range(k)],
        object_ids=np.arange(n),
        columns=columns,
        codecs={"label": codec},
    )


class SparseClaims(Workload):
    """CSR claims at 5% density: ``crh()`` on whatever ``auto`` picks."""

    name = "sparse-claims"

    def build(self, seed: int, scale: float, meter) -> dict:
        n_objects = max(20, round(100_000 * scale))
        with meter.recorder.span("data.claims_from_arrays"):
            matrix = build_sparse_claims(seed, n_objects)
        return {"dataset": matrix, "sizes": _sizes(matrix),
                "targets": _read_targets(matrix.object_ids, 1, seed)}

    def body(self, inputs: dict, meter, tracer, prepared) -> dict:
        result = meter.call("crh", "core.crh", crh, inputs["dataset"],
                            tracer=tracer, latency="write", **FIXED_CRH)
        _read_rows(meter, result and result.truths, inputs["targets"][0])
        return {"crh": _fingerprint(result), "sizes": inputs["sizes"],
                "backend": result.backend if result else None,
                "crh_iterations": result.iterations if result else 0}

    def verify(self, inputs, outputs, meter, traced, layer) -> None:
        sparse = _pinned_runs(inputs["dataset"], meter, traced, layer,
                              layer["auto_crh_s"])
        for i, out in enumerate(outputs):
            meter.check(f"crh == sparse[{i}]", lambda o=out: (
                "no result" if o["crh"] is None or sparse is None
                else _same_result("crh", o["crh"], sparse)))


# ---------------------------------------------------------------------
# serve-stream
# ---------------------------------------------------------------------

SERVE_WINDOW = 2
SERVE_BATCH = 100


class ServeStream(Workload):
    """One caller replaying the weather stream into a ``TruthService``.

    A closed loop: each ``ingest`` of 100 claims is followed by 3
    single-object ``get_truth`` reads of objects already seen, and the
    session ends with ``flush``.
    """

    name = "serve-stream"

    def build(self, seed: int, scale: float, meter) -> dict:
        config = WeatherConfig(n_cities=max(2, round(20 * scale)),
                               n_days=max(4, round(250 * scale)),
                               seed=seed)
        with meter.recorder.span("datasets.generate"):
            dataset = generate_weather_dataset(config).dataset
        with meter.recorder.span("streaming.replay_claims"):
            claims = list(iter_dataset_claims(dataset))
        batches = [claims[i:i + SERVE_BATCH]
                   for i in range(0, len(claims), SERVE_BATCH)]
        rng = np.random.default_rng(seed)
        seen: list = []
        known: set = set()
        targets = []
        for batch in batches:
            for claim in batch:
                if claim.object_id not in known:
                    known.add(claim.object_id)
                    seen.append(claim.object_id)
            picks = rng.integers(0, len(seen), READS_PER_INGEST)
            targets.append([seen[i] for i in picks])
        order = np.argsort(dataset.object_timestamps, kind="stable")
        return {"dataset": dataset, "batches": batches, "targets": targets,
                "sorted_ids": [dataset.object_ids[i] for i in order],
                "order": order, "sizes": _sizes(dataset)}

    def prepare(self, inputs: dict, tracer) -> TruthService:
        dataset = inputs["dataset"]
        return TruthService(dataset.schema, window=SERVE_WINDOW,
                            codecs=dataset.codecs(), tracer=tracer)

    def body(self, inputs: dict, meter, tracer, service) -> dict:
        write = 0.0
        for batch, targets in zip(inputs["batches"], inputs["targets"]):
            started = time.perf_counter()
            meter.call("ingest", "streaming.ingest", service.ingest, batch,
                       latency="write")
            write += time.perf_counter() - started
            for object_id in targets:
                meter.call("read", "streaming.read", service.get_truth,
                           [object_id], latency="read")
        started = time.perf_counter()
        meter.call("flush", "streaming.flush", service.flush)
        write += time.perf_counter() - started
        return {"service": service, "write_s": write,
                "sizes": inputs["sizes"], "backend": "sparse"}

    def finish_iteration(self, inputs: dict, out: dict) -> None:
        """Capture the session's counters, then its final state.

        Counters are read before the full-table read the check needs;
        only the latest session is kept alive, for the snapshot check.
        """
        service = out.pop("service")
        metrics = service.metrics()
        out["streaming.windows_sealed"] = metrics["windows_sealed"]
        out["streaming.recomputed_objects"] = metrics["recomputed_objects"]
        out["streaming.cache_hit_rate"] = metrics["cache_hit_rate"]
        out["streaming.store_growth_events"] = service.store.growth_events
        out["state"] = _serving_state(service, inputs["sorted_ids"])
        inputs["last_service"] = service

    def verify(self, inputs, outputs, meter, traced, layer) -> None:
        sorted_view = inputs["dataset"].select_objects(inputs["order"])
        started = time.perf_counter()
        oracle = meter.call("icrh", "streaming.batch_icrh", icrh,
                            sorted_view, window=SERVE_WINDOW)
        layer["streaming.batch_icrh_s"] = time.perf_counter() - started
        expected = None
        if oracle is not None:
            expected = {
                "weights": dict(zip(sorted_view.source_ids,
                                    oracle.weights)),
                "columns": oracle.truths.columns,
            }
        for i, out in enumerate(outputs):
            meter.check(f"service == icrh[{i}]", lambda o=out: (
                "no oracle" if expected is None
                else _compare_serving(o["state"], expected)))
        service = inputs.pop("last_service", None)
        if service is not None and expected is not None:
            self._snapshot_round_trip(service, inputs["sorted_ids"],
                                      expected, meter, layer)

    def _snapshot_round_trip(self, service, ids, expected, meter,
                             layer) -> None:
        directory = HERE / "out" / f"snapshot-{time.time_ns()}"
        try:
            started = time.perf_counter()
            meter.call("snapshot", "streaming.snapshot", service.snapshot,
                       directory)
            layer["streaming.snapshot_s"] = time.perf_counter() - started
            if not (directory / "service.json").is_file():
                meter.check("snapshot written", lambda: "snapshot failed")
                return
            layer["streaming.snapshot_bytes"] = sum(
                p.stat().st_size for p in directory.rglob("*")
                if p.is_file())
            started = time.perf_counter()
            restored = meter.call("restore", "streaming.restore",
                                  TruthService.restore, directory)
            layer["streaming.restore_s"] = time.perf_counter() - started
            meter.check("restore serves the same truths", lambda: (
                "restore failed" if restored is None
                else _compare_serving(_serving_state(restored, ids),
                                      expected)))
        finally:
            shutil.rmtree(directory, ignore_errors=True)


def _serving_state(service, ids) -> dict:
    """A session's served weights (by source id) and full truth table."""
    return {"weights": service.weights_by_source(),
            "columns": service.get_truth(ids).columns}


def _compare_serving(state, expected) -> str | None:
    """``None`` when a served state is bit-identical to the oracle's."""
    if set(state["weights"]) != set(expected["weights"]):
        return "served sources differ from the oracle's"
    for source_id, weight in expected["weights"].items():
        if state["weights"][source_id] != weight:
            return (f"weight of {source_id!r}: "
                    f"{state['weights'][source_id]!r} != {weight!r}")
    for m, (got, want) in enumerate(zip(state["columns"],
                                        expected["columns"])):
        problem = _same_arrays(f"truth column {m}", got, want)
        if problem:
            return problem
    return None


WORKLOADS = {w.name: w for w in (StockTable(), AdultScale(),
                                 SparseClaims(), ServeStream())}
