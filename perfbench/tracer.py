"""In-memory span recorder that wraps functions from outside the program.

A span is (span_id, parent_id, run_id, name, start, end), times from
``time.perf_counter``. Parent 0 means the span has no traced caller. The
recorder patches module attributes only while ``installed`` is active, so
untraced iterations in the same process run the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent: int
    run_id: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Target(NamedTuple):
    """Wrap ``module.attribute`` and record its calls as spans named ``span``."""

    module: str
    attribute: str
    span: str


class Tracer:
    """Records spans and per-call observations for the current run id."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.observations: list[tuple[int, str, dict]] = []
        self.run_id = 0
        self._next_id = 0
        self._stack: list[int] = []

    def wrap(
        self,
        function: Callable,
        name: str,
        observe: Callable[[Any], dict] | None = None,
    ) -> Callable:
        """Return a wrapper that records one span per call of ``function``.

        ``observe`` maps the return value to a small dict of numbers; it must
        cost O(1), because it runs inside the caller's span.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.run_id, name, start, end))
            if observe is not None:
                self.observations.append((self.run_id, name, observe(result)))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(
        self,
        targets: Iterable[Target],
        observers: dict[str, Callable[[Any], dict]] | None = None,
    ):
        """Patch every target for the duration of the block, then restore.

        A target whose attribute no longer exists is skipped with a warning
        on stderr, so a renamed function shows up as a zero metric.
        """
        observers = observers or {}
        saved = []
        try:
            for target in targets:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attribute, None)
                if original is None:
                    print(
                        f"perfbench: trace target {target.module}.{target.attribute} "
                        "not found; its span is not recorded",
                        file=sys.stderr,
                    )
                    continue
                saved.append((module, target.attribute, original))
                wrapped = self.wrap(original, target.span, observers.get(target.span))
                setattr(module, target.attribute, wrapped)
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def take(self) -> tuple[list[Span], list[tuple[int, str, dict]]]:
        """Return and clear the recorded spans and observations."""
        spans = [Span(*record) for record in self.spans]
        observations = list(self.observations)
        self.spans.clear()
        self.observations.clear()
        return spans, observations


def covered_length(interval: tuple[float, float], parts: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    low, high = interval
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in parts if end > low and start < high
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus what its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration - covered_length((span.start, span.end), children[span.span_id])
        for span in spans
    }


def layer_self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Sum of span self times per layer (the span name's first component)."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += own[span.span_id]
    return dict(totals)


SPAN_CSV_HEADER = "run_id,span_id,parent,name,start,end\n"


def write_spans(spans: Iterable[Span], handle) -> None:
    """Append spans as CSV rows (see SPAN_CSV_HEADER) to a text handle."""
    for span in spans:
        handle.write(
            f"{span.run_id},{span.span_id},{span.parent},{span.name},"
            f"{span.start!r},{span.end!r}\n"
        )
