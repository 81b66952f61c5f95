"""In-memory span tracing around the program's public entry points.

A :class:`Tracer` patches a list of entry points (class methods, static
methods or module-level functions) with thin wrappers that record one span
per call — ``[name, start, end, parent, request, units]`` — while
:attr:`Tracer.enabled` is set.  ``parent`` is the index of the enclosing
span (``-1`` at top level), ``request`` the trace index of the burst being
served (``None`` outside serving) and ``units`` a per-call work count (batch
size, epochs, searches).  :meth:`Tracer.uninstall` restores every original,
so the untraced comparison pass of a traced run runs the bare program.

Spans stay in memory and are written out once, as JSON lines, when the run
ends (:meth:`Tracer.write_jsonl`).  A layer's self time is its spans'
duration minus the part their child spans cover (:meth:`Tracer.self_times`).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

NAME, START, END, PARENT, REQUEST, UNITS = range(6)

UnitsFn = Callable[[tuple, dict, Any], int]


class Tracer:
    """Span recorder with install/uninstall of entry-point wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self.enabled = False
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._originals: List[tuple] = []

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        static = inspect.getattr_static(owner, attr)
        self._originals.append((owner, attr, static))
        if isinstance(static, staticmethod):
            setattr(owner, attr, staticmethod(make(static.__func__)))
        else:
            setattr(owner, attr, make(getattr(owner, attr)))

    def span(self, owner: Any, attr: str, name: str,
             units: Optional[UnitsFn] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        tracer = self

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return func(*args, **kwargs)
                stack = tracer._stack
                # repro: ignore[CLK001] wall-clock spans are what a tracer records
                record = [name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, tracer.request, 1]
                stack.append(len(tracer.spans))
                tracer.spans.append(record)
                try:
                    result = func(*args, **kwargs)
                finally:
                    record[END] = time.perf_counter()  # repro: ignore[CLK001] span end
                    stack.pop()
                if units is not None:
                    record[UNITS] = int(units(args, kwargs, result))
                return result
            return traced

        self._replace(owner, attr, make)

    def count(self, owner: Any, attr: str, counter: str,
              predicate: Callable[[Any], bool]) -> None:
        """Count calls of ``owner.attr`` whose result satisfies ``predicate``."""
        tracer = self
        self.counters.setdefault(counter, 0)

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                if tracer.enabled and predicate(result):
                    tracer.counters[counter] += 1
                return result
            return counted

        self._replace(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every patched entry point (latest patch first)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[NAME] == name]

    def has_ancestor(self, span: list, name: str) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            ancestor = self.spans[parent]
            if ancestor[NAME] == name:
                return True
            parent = ancestor[PARENT]
        return False

    def outermost(self, spans: Iterable[list]) -> List[list]:
        """Drop spans nested inside a span of the same name (re-entry)."""
        return [span for span in spans
                if not self.has_ancestor(span, span[NAME])]

    def total_s(self, spans: Iterable[list]) -> float:
        return sum(span[END] - span[START] for span in spans)

    def _child_time(self) -> List[float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        return child_time

    def self_time(self, spans: Iterable[list]) -> float:
        """Summed self time of ``spans`` (duration minus child spans)."""
        child_time = self._child_time()
        index = {id(span): position for position, span in enumerate(self.spans)}
        return sum(span[END] - span[START] - child_time[index[id(span)]]
                   for span in spans)

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span time minus time covered by child spans.

        The layer of a span is its name up to the first dot.
        """
        child_time = self._child_time()
        layers: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            layer = span[NAME].split(".", 1)[0]
            own = span[END] - span[START] - child_time[index]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span[NAME], "start": span[START], "end": span[END],
                    "parent": span[PARENT], "request": span[REQUEST],
                    "units": span[UNITS]}) + "\n")
            handle.write(json.dumps({"counters": self.counters}) + "\n")
