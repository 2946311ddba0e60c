"""Span recording and the self-time / coverage arithmetic."""

import json

import pytest

import spans


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)
    recorder.run_id = "r0"
    with recorder.span("run"):
        clock.now = 1.0
        with recorder.span("core.crh"):
            clock.now = 4.0
            with recorder.span("engine.sparse"):
                clock.now = 6.0
            clock.now = 7.0
        with recorder.span("metrics.score"):
            clock.now = 9.0
        clock.now = 10.0
    assert [s.parent for s in recorder.spans] == [None, 0, 1, 0]
    assert spans.self_times(recorder.spans) == [2.0, 4.0, 2.0, 2.0]
    summary = spans.summarize(recorder.spans)
    run = summary["runs"]["r0"]
    assert run["wall_s"] == 10.0
    assert run["by_layer"] == {"core": 4.0, "engine": 2.0, "metrics": 2.0}
    assert summary["coverage"] == pytest.approx(0.8)


def test_self_time_counts_overlapping_children_once():
    overlapping = [
        spans.Span("run", 0.0, 10.0, None, "r"),
        spans.Span("a.x", 1.0, 5.0, 0, "r"),
        spans.Span("b.y", 3.0, 8.0, 0, "r"),
    ]
    assert spans.self_times(overlapping)[0] == pytest.approx(3.0)


def test_summary_groups_runs_and_ignores_other_roots():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)
    for run_id in ("a", "b"):
        recorder.run_id = run_id
        with recorder.span("run"):
            with recorder.span("baselines.fit.GTM"):
                clock.now += 2.0
            clock.now += 1.0
    recorder.run_id = "setup"
    with recorder.span("setup"):
        with recorder.span("datasets.generate"):
            clock.now += 5.0
    summary = spans.summarize(recorder.spans)
    assert set(summary["runs"]) == {"a", "b"}
    assert summary["runs"]["a"]["by_name"] == {"baselines.fit.GTM": 2.0}
    assert summary["coverage"] == pytest.approx(2 / 3)
    setup = spans.summarize(recorder.spans, root="setup")
    assert setup["runs"]["setup"]["by_layer"] == {"datasets": 5.0}


def test_span_closes_when_the_body_raises():
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.span("run"):
            raise RuntimeError("boom")
    assert recorder.spans[0].end is not None
    with recorder.span("next"):
        pass
    assert recorder.spans[1].parent is None


def test_layer_of():
    assert spans.layer_of("baselines.fit.3-Estimates") == "baselines"
    assert spans.layer_of("run") == "run"


def test_write_jsonl_keeps_every_field(tmp_path):
    recorder = spans.SpanRecorder()
    recorder.run_id = "r"
    with recorder.span("run"):
        with recorder.span("core.crh"):
            pass
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["run", "core.crh"]
    assert rows[1]["parent"] == 0 and rows[1]["run_id"] == "r"
    assert set(rows[0]) == {"id", "name", "start", "end", "parent",
                            "run_id"}
