"""In-memory span recorder and its per-layer self-time summary.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the
index of the enclosing span (``None`` for a root) and ``run_id`` groups
the spans of one timed iteration.  Spans are kept in a list while the
benchmark runs and written out as JSON lines when it ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  A layer is the first dotted component of a span
name (``baselines.fit.GTM`` belongs to ``baselines``), so summing self
time by layer splits a root's wall time across the layers with nothing
counted twice.  *Coverage* is the share of the roots' wall time that
their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    """One recorded interval; ``end`` is ``None`` while it is open."""

    name: str
    start: float
    end: float | None
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        """Seconds from start to end."""
        return self.end - self.start


class SpanRecorder:
    """Records nested spans on one thread, in memory."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock
        self.run_id = ""

    @contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body, nested in the open one."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, self._clock(), None, parent,
                               self.run_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self._clock()

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "run_id": s.run_id,
                }) + "\n")


class NullRecorder:
    """The untraced stand-in: every span is a no-op."""

    enabled = False
    run_id = ""

    @contextmanager
    def span(self, name: str):
        """Run the ``with`` body without recording anything."""
        yield


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered(children.get(index, ()))
        for index, s in enumerate(spans)
    ]


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first dotted component."""
    return name.split(".", 1)[0]


def summarize(spans: list[Span], root: str = "run") -> dict:
    """Per-run self time by span name and by layer, plus coverage.

    Only spans under roots named ``root`` are counted.  Returns
    ``{"runs": {run_id: {"wall_s", "by_name", "by_layer"}},
    "coverage"}`` where ``coverage`` is the share of the roots' summed
    wall time that their children cover.
    """
    selfs = self_times(spans)
    root_of: list[int | None] = []
    for s in spans:
        if s.parent is None:
            root_of.append(None if s.name != root else len(root_of))
        else:
            root_of.append(root_of[s.parent])
    runs: dict[str, dict] = {}
    wall = 0.0
    uncovered = 0.0
    for index, s in enumerate(spans):
        top = root_of[index]
        if top is None:
            continue
        run = runs.setdefault(s.run_id, {"wall_s": 0.0, "by_name": {},
                                         "by_layer": {}})
        if top == index:
            run["wall_s"] += s.duration
            wall += s.duration
            uncovered += selfs[index]
            continue
        run["by_name"][s.name] = run["by_name"].get(s.name, 0.0) \
            + selfs[index]
        layer = layer_of(s.name)
        run["by_layer"][layer] = run["by_layer"].get(layer, 0.0) \
            + selfs[index]
    coverage = (wall - uncovered) / wall if wall > 0 else 0.0
    return {"runs": runs, "coverage": coverage}
