"""Run one workload: set-up, timed iterations, checks, metrics.

Only the standard library is imported at module level: the workload
module (which imports NumPy and ``repro``) is imported inside
:func:`run_workload`, under the set-up timer.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spans
import stats

HERE = Path(__file__).resolve().parent
#: extra set-up measurements made in fresh interpreters per run
SETUP_PROBES = 2
#: errors kept verbatim in the report (the count is always exact)
MAX_ERRORS = 20


class Meter:
    """Counts, times and traces every operation a workload performs.

    An operation that raises is counted as failed, its traceback is
    kept, and the workload carries on with ``None`` as the result.
    """

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: list[str] = []
        self.log: dict | None = None

    def start_iteration(self) -> dict:
        """Open a fresh latency log for one timed iteration."""
        self.log = {"write": [], "read": [], "by_name": {}}
        return self.log

    def _fail(self, kind: str, message: str) -> None:
        self.failed[kind] += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def call(self, kind: str, span: str, fn, *args, latency=None,
             **kwargs):
        """Run ``fn(*args, **kwargs)`` as one operation of ``kind``.

        ``span`` names the trace span; ``latency`` (``"write"`` or
        ``"read"``) files the call's wall time with that class of
        operation in the current iteration's log.
        """
        self.attempted[kind] += 1
        started = time.perf_counter()
        try:
            with self.recorder.span(span):
                result = fn(*args, **kwargs)
        except Exception:
            self._fail(kind, f"{span}: {traceback.format_exc(limit=4)}")
            return None
        elapsed = time.perf_counter() - started
        if self.log is not None:
            if latency is not None:
                self.log[latency].append(elapsed)
            self.log["by_name"].setdefault(span, []).append(elapsed)
        return result

    def check(self, name: str, problem_of) -> None:
        """Run one output check; ``problem_of()`` returns ``None`` if ok."""
        self.attempted["check"] += 1
        try:
            problem = problem_of()
        except Exception:
            problem = traceback.format_exc(limit=4)
        if problem is not None:
            self._fail("check", f"check {name}: {problem}")


def _peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def _source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (the checkout may not
    be a git repository, so this identifies the code either way)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def build_inputs(name: str, seed: int, scale: float, meter):
    """Import the workload module and build inputs; returns
    ``(module, workload, inputs, seconds)``.  This is the set-up."""
    started = time.perf_counter()
    module = importlib.import_module("workloads")
    workload = module.WORKLOADS[name]
    with meter.recorder.span("setup"):
        inputs = workload.build(seed, scale, meter)
    return module, workload, inputs, time.perf_counter() - started


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in this (fresh) interpreter."""
    meter = Meter(spans.NullRecorder())
    return build_inputs(name, seed, 1.0, meter)[3]


def _setup_probes(name: str, seed: int, root: Path, meter) -> list[float]:
    """Set-up times from fresh interpreters running ``--probe-setup``."""
    times = []
    for _ in range(SETUP_PROBES):
        meter.attempted["setup"] += 1
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--probe-setup"],
                cwd=root, capture_output=True, text=True, timeout=150)
            times.append(json.loads(done.stdout.strip().splitlines()[-1])
                         ["setup_s"])
        except (OSError, subprocess.SubprocessError, ValueError,
                IndexError, KeyError):
            meter._fail("setup", f"setup probe: "
                        f"{traceback.format_exc(limit=2)}")
    return times


def stop_children() -> int:
    """Stop and reap every process the run started; returns how many
    worker processes were still alive.

    The program closes the worker pools it starts; any worker still
    alive here is terminated.  Shared memory also starts the
    ``multiprocessing`` resource tracker, which would otherwise outlive
    this interpreter, so it is stopped and waited for as well.
    """
    leftover = multiprocessing.active_children()
    for child in leftover:
        child.terminate()
    for child in leftover:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    return len(leftover)


def _median_or_zero(values) -> float:
    values = [v for v in values if v is not None]
    return stats.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 scale: float = 1.0, root: Path | None = None,
                 probes: bool = True, out_dir: Path | None = None) -> dict:
    """Run one workload and return its report.

    The report holds ``result`` (the benchmark's one-line verdict:
    ``correct``, ``attempted``, ``failed``, ``metrics``) and ``detail``
    (provenance, sample counts, summaries, errors).  Untraced iterations
    give the end-to-end metrics; with ``trace`` the iterations alternate
    untraced/traced and the traced ones give the per-layer metrics.
    """
    root = root or Path.cwd()
    recorder = spans.SpanRecorder() if trace else spans.NullRecorder()
    meter = Meter(recorder)
    recorder.run_id = "setup"
    module, workload, inputs, setup_s = build_inputs(name, seed, scale,
                                                     meter)
    from repro.observability import MemoryTracer
    null = spans.NullRecorder()
    outputs: list[dict] = []
    iterations: list[dict] = []
    began = time.perf_counter()
    while True:
        index = len(iterations)
        traced = trace and index % 2 == 1
        tracer = MemoryTracer() if traced else None
        meter.recorder = recorder if traced else null
        recorder.run_id = f"{name}-{seed}-{index}"
        gc.collect()  # start every iteration from the same heap state
        prepared = workload.prepare(inputs, tracer)
        log = meter.start_iteration()
        started = time.perf_counter()
        with meter.recorder.span("run"):
            out = workload.body(inputs, meter, tracer, prepared)
        run_s = time.perf_counter() - started
        meter.log = None
        workload.finish_iteration(inputs, out)
        outputs.append(out)
        iterations.append({"traced": traced, "run_s": run_s, "log": log,
                           "run_id": recorder.run_id})
        # Stop before an iteration that would end past ``seconds``.
        if (time.perf_counter() - began + run_s > seconds
                and len(iterations) >= (2 if trace else 1)):
            break
    peak_rss = _peak_rss_mib()
    meter.recorder = null

    plain = [i for i in iterations if not i["traced"]]
    plain_out = [o for o, i in zip(outputs, iterations) if not i["traced"]]
    layer: dict = {"auto_crh_s": _median_or_zero(
        t for i in plain for t in i["log"]["by_name"].get("core.crh", ()))}
    setup_samples = [setup_s]
    if probes and not trace:
        setup_samples += _setup_probes(name, seed, root, meter)
    workload.verify(inputs, outputs, meter, trace, layer)

    leftover = stop_children()
    sizes = workload.sizes(inputs, outputs)
    if trace:
        metrics = _layer_metrics(workload, recorder, iterations, outputs,
                                 layer)
    else:
        metrics = _end_to_end_metrics(plain, plain_out, sizes,
                                      setup_samples, peak_rss)
    attempted = sum(meter.attempted.values())
    failed = sum(meter.failed.values())
    detail = _detail(name, seed, seconds, trace, scale, root, module,
                     outputs, plain, setup_samples, meter, sizes)
    detail["leftover_children"] = leftover
    detail["stock_reference"] = layer.get("expected_source")
    if trace:
        summary = spans.summarize(recorder.spans)
        detail["self_time_by_name"] = {
            run_id: run["by_name"] for run_id, run in summary["runs"].items()
        }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(
            {"detail": detail, "metrics": metrics}, indent=1,
            default=str))
        if trace:
            recorder.write_jsonl(out_dir / f"{stem}.spans.jsonl")
    malformed = [key for key, metric in metrics.items()
                 if not (stats.valid_metric_name(key)
                         and stats.valid_unit(metric["unit"]))]
    if malformed:
        raise ValueError(f"malformed metric names or units: {malformed}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"result": result, "detail": detail}


def _detail(name, seed, seconds, trace, scale, root, module, outputs,
            plain, setup_samples, meter, sizes) -> dict:
    """Provenance, sample counts, summaries and failures of one run."""
    writes = [t for i in plain for t in i["log"]["write"]]
    reads = [t for i in plain for t in i["log"]["read"]]
    return {
        "provenance": {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "seconds": seconds,
            "scale": scale,
            "git_sha": _git_sha(root),
            "source_sha256": _source_digest(root),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": module.np.__version__,
            "kernel_tier": module.kernel_tier(),
            "engine_backend": next((o.get("backend") for o in outputs
                                    if o.get("backend")), None),
            "sizes": sizes,
        },
        "samples": {
            "iterations": len(plain),
            "traced_iterations": len(outputs) - len(plain),
            "setup": len(setup_samples),
            "write_ops": len(writes),
            "read_ops": len(reads),
        },
        "summaries": {
            "setup_s": stats.summarize(setup_samples),
            "run_s": stats.summarize(i["run_s"] for i in plain),
            "write_s": stats.summarize(writes) if writes else None,
            "read_s": stats.summarize(reads) if reads else None,
        },
        "ops": {"attempted": dict(meter.attempted),
                "failed": dict(meter.failed)},
        "errors": meter.errors,
    }


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _end_to_end_metrics(plain, outputs, sizes, setup_samples,
                        peak_rss) -> dict:
    throughput = [
        out.get("sizes", sizes).get("claims", 0)
        / out.get("write_s", it["run_s"])
        for it, out in zip(plain, outputs)
    ]
    writes = [t * 1000 for i in plain for t in i["log"]["write"]]
    reads = [t * 1000 for i in plain for t in i["log"]["read"]]

    def pct(values, q):
        return stats.percentile(values, q) if values else 0.0

    return {
        "setup_s": _metric(stats.median(setup_samples), "s"),
        "run_s": _metric(stats.median(i["run_s"] for i in plain), "s"),
        "peak_rss_mib": _metric(peak_rss, "MiB"),
        "ingest_claims_per_s": _metric(_median_or_zero(throughput),
                                       "claims/s"),
        "ingest_p50_ms": _metric(pct(writes, 50), "ms"),
        "ingest_p99_ms": _metric(pct(writes, 99), "ms"),
        # A read takes tens of microseconds, so each one runs wholly in
        # one of the host's speed regimes (about 1.7x apart on a shared
        # 2-CPU VM, each lasting seconds).  The reads then form two
        # narrow modes and their p50 jumps from one to the other between
        # runs (interquartile spread 0.56 over six seeds of adult-scale).
        # The mean moves smoothly with the share of time spent in each
        # regime (0.24).  The p99 did not repeat within a tenth (spreads
        # 0.12-0.49); the p90 sits inside the slow mode and did.
        "read_mean_ms": _metric(sum(reads) / len(reads) if reads else 0.0,
                                "ms"),
        "read_p90_ms": _metric(pct(reads, 90), "ms"),
    }


def _layer_metrics(workload, recorder, iterations, outputs,
                   layer) -> dict:
    from repro.engine import BACKEND_NAMES

    summary = spans.summarize(recorder.spans, root="run")
    traced = [(i, o) for i, o in zip(iterations, outputs) if i["traced"]]
    plain = [(i, o) for i, o in zip(iterations, outputs) if not i["traced"]]
    runs = [summary["runs"].get(i["run_id"], {"by_name": {},
                                               "by_layer": {}})
            for i, _ in traced]

    def by_name(span_name):
        return _median_or_zero(r["by_name"].get(span_name, 0.0)
                               for r in runs)

    def by_layer(layer_name):
        return _median_or_zero(r["by_layer"].get(layer_name, 0.0)
                               for r in runs)

    def counted(key):
        return _median_or_zero(o.get(key, 0) for _, o in traced)

    if workload.generation_is_setup:
        setup = spans.summarize(recorder.spans, root="setup")["runs"]
        generate = sum(r["by_layer"].get("datasets", 0.0)
                       for r in setup.values())
    else:
        generate = by_layer("datasets")
    backend = next((o.get("backend") for _, o in traced
                    if o.get("backend")), None)
    backend_code = (BACKEND_NAMES.index(backend)
                    if backend in BACKEND_NAMES else -1)
    session_write = _median_or_zero(o.get("write_s") for _, o in plain)
    batch_icrh = layer.get("streaming.batch_icrh_s", 0.0)
    plain_run = _median_or_zero(i["run_s"] for i, _ in plain)
    traced_run = _median_or_zero(i["run_s"] for i, _ in traced)
    s, count, ratio = "s", "count", "ratio"
    return {
        "datasets.generate_s": _metric(generate, s),
        "core.crh_s": _metric(by_name("core.crh"), s),
        "core.crh_iterations": _metric(counted("crh_iterations"), count),
        "baselines.fit_s": _metric(by_layer("baselines"), s),
        "metrics.score_s": _metric(by_layer("metrics"), s),
        "streaming.icrh_s": _metric(by_name("streaming.icrh"), s),
        "parallel.crh_s": _metric(by_name("parallel.crh"), s),
        "mapreduce.simulated_s": _metric(counted("mapreduce.simulated_s"),
                                         s),
        "mapreduce.shuffled_records": _metric(
            counted("mapreduce.shuffled_records"), count),
        "engine.backend": _metric(backend_code, "index"),
        "engine.sparse_s": _metric(layer.get("engine.sparse_s", 0.0), s),
        "engine.process_s": _metric(layer.get("engine.process_s", 0.0), s),
        "engine.auto_over_best": _metric(
            layer.get("engine.auto_over_best", 0.0), ratio),
        "streaming.ingest_s": _metric(by_name("streaming.ingest"), s),
        "streaming.flush_s": _metric(by_name("streaming.flush"), s),
        "streaming.windows_sealed": _metric(
            counted("streaming.windows_sealed"), count),
        "streaming.recomputed_objects": _metric(
            counted("streaming.recomputed_objects"), count),
        "streaming.store_growth_events": _metric(
            counted("streaming.store_growth_events"), count),
        "streaming.read_s": _metric(by_name("streaming.read"), s),
        "streaming.cache_hit_rate": _metric(
            counted("streaming.cache_hit_rate"), ratio),
        "streaming.batch_icrh_s": _metric(batch_icrh, s),
        "streaming.replay_over_batch": _metric(
            session_write / batch_icrh if batch_icrh else 0.0, ratio),
        "streaming.snapshot_s": _metric(
            layer.get("streaming.snapshot_s", 0.0), s),
        "streaming.restore_s": _metric(
            layer.get("streaming.restore_s", 0.0), s),
        "streaming.snapshot_bytes": _metric(
            layer.get("streaming.snapshot_bytes", 0), "bytes"),
        "observability.trace_overhead": _metric(
            traced_run / plain_run if plain_run else 0.0, ratio),
        "trace.coverage": _metric(summary["coverage"], ratio),
    }
