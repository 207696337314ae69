"""Spans around the public functions of `tabrc`, recorded from outside.

The traced run patches module attributes under the names their callers look
them up by, runs the CLI's `main` in this process, and restores the
originals. Spans (name, start, end, parent, count) are kept in memory and
written out when the run ends; self times are derived from them. A wrapped
name that no longer exists, or a layer that recorded no call, is an error
rather than an empty layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


class TraceError(RuntimeError):
    pass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    count: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             count: Callable[[object], int] | None = None):
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=self._open[-1] if self._open else None))
        self._open.append(index)
        span = self.spans[index]
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if count is not None:
            span.count = count(result)
        return result

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def busy(self, name: str) -> float:
        return sum((span.seconds for span in self.named(name)), 0.0)

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_seconds(self, name: str) -> float:
        """Duration of the named spans minus the time their direct children
        cover. Children of one span run one after another in this thread."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.seconds
        return sum(span.seconds - children.get(i, 0.0)
                   for i, span in enumerate(self.spans) if span.name == name)

    def children_of(self, name: str) -> dict[str, float]:
        """Busy seconds per child span name, over the direct children of the
        named spans."""
        parents = {i for i, span in enumerate(self.spans) if span.name == name}
        out: dict[str, float] = {}
        for span in self.spans:
            if span.parent in parents:
                out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": span.name, "start": span.start,
                                      "end": span.end, "parent": span.parent,
                                      "count": span.count}) + "\n")


@dataclass(frozen=True)
class Target:
    """One function to wrap: `module.attr`, recorded under `span`. A span
    name ending in `.` is completed by the `.value` of the second argument
    (the generator kind)."""

    module: str
    attr: str
    span: str
    counts_result: bool = False


def _wrapper(tracer: Tracer, target: Target, original: Callable) -> Callable:
    count = len if target.counts_result else None

    @functools.wraps(original)
    def traced(*args, **kwargs):
        name = target.span + args[1].value if target.span.endswith(".") else target.span
        return tracer.call(name, original, args, kwargs, count)

    return traced


@contextmanager
def installed(tracer: Tracer, targets: list[Target]) -> Iterator[None]:
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            if not hasattr(module, target.attr):
                raise TraceError(f"{target.module}.{target.attr} no longer exists; "
                                 f"update the targets in bench/tracing.py")
            original = getattr(module, target.attr)
            saved.append((module, target.attr, original))
            setattr(module, target.attr, _wrapper(tracer, target, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def require_calls(tracer: Tracer, names: list[str]) -> None:
    missing = [name for name in names if tracer.calls(name) == 0]
    if missing:
        raise TraceError(f"traced run recorded no call to {', '.join(missing)}; "
                         f"the program no longer calls them under the wrapped names")


# The CLI's own imports are the root spans; the layers under them are
# wrapped under the names pipeline, simulation and sampling call them by.
TARGETS = [
    Target("tabrc.cli", "generate_corpus", "pipeline.generate_corpus"),
    Target("tabrc.cli", "corpus_stats", "pipeline.corpus_stats"),
    Target("tabrc.cli", "two_task_report", "simulation.two_task_report"),
    Target("tabrc.cli", "run_simulation", "simulation.run_simulation"),
    Target("tabrc.cli", "read_accuracy_feed", "sampling.read_accuracy_feed"),
    Target("tabrc.cli", "replay_feed", "sampling.replay_feed"),
    Target("tabrc.pipeline", "ingest", "tables.ingest"),
    Target("tabrc.pipeline", "generate", "generators.", counts_result=True),
    Target("tabrc.pipeline", "build_context", "facts.build_context"),
    Target("tabrc.pipeline", "build_record", "pipeline.build_record"),
    Target("tabrc.simulation", "run_simulation", "simulation.run_simulation"),
    Target("tabrc.simulation", "compose_batch", "sampling.compose_batch"),
    Target("tabrc.simulation", "on_checkpoint", "sampling.on_checkpoint"),
    Target("tabrc.sampling", "on_checkpoint", "sampling.on_checkpoint"),
]
