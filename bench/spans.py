"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span in ``Tracer.spans`` (None at the top).  Spans are pushed
and popped on a stack, so wrapped calls nest the way they executed.  The
spans stay in memory until the run ends and the caller writes them out.

The gplb study modules import functions by name (``from ..adversarial
import compute_coefficients``), so patching only the defining module
misses most calls.  ``Tracer.patch`` therefore rebinds a name in the
module where it is looked up; the benchmark lists every such binding.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT = range(4)


class Tracer:
    """Records spans and named counters; restores every patch on ``restore``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def depth(self) -> int:
        return len(self._stack)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        self.spans[index][END] = self.clock()

    def span(self, name: str):
        """Context manager recording one span."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call.

        ``on_result(span, args, kwargs, result)`` runs after the span closes.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(self.spans[index], args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Rebind ``owner.attribute`` (a module or class) to a recording wrapper."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, on_result))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            end = min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        result.append(span[END] - span[START] - covered)
    return result


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive time and self time.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself through a patched binding is not counted twice.
    """
    selfs = self_times(spans)
    summary: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for index, span in enumerate(spans):
        entry = summary[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent is None:
            entry["total_s"] += span[END] - span[START]
    return dict(summary)
