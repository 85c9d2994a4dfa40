"""In-memory spans around the program's public layer entry points.

A :class:`Tracer` replaces chosen functions and methods with timing
wrappers for the duration of a ``with`` block and puts the originals back on
exit. Each span records its name, layer, start, end, parent span, problem
id, whether the call returned, and an optional value taken from the call.
Spans opened on a thread with no open span (harness pool workers) take the
main thread's innermost open span as parent.
"""

from __future__ import annotations

import gzip
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    problem: str | None
    ok: bool
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: dict[int, Span] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- problem context ------------------------------------------------------

    def set_problem(self, problem_id: str) -> None:
        self._local.problem = problem_id

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- patching ---------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, info=None) -> None:
        """Time every call of ``owner.attr``. ``info(args, result)`` may pick a
        value to keep with the span of a call that returned."""
        original = getattr(owner, attr)
        spans, stack_of, local = self.spans, self._stack, self._local
        main_stack, ids = self._main_stack, self._ids

        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            index = next(ids)
            stack.append(index)
            ok = False
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, layer, start, end, parent,
                                    getattr(local, "problem", None), ok,
                                    info(args, result) if ok and info else None)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Per span id: duration minus the part of it covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans.values():
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        result = {}
        for i, s in self.spans.items():
            covered = 0.0
            cursor = s.start
            for start, end in sorted(children.get(i, ())):
                start, end = max(start, cursor), min(end, s.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[i] = s.duration - covered
        return result

    def write(self, path) -> None:
        """Write the spans as gzipped JSON Lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, s in sorted(self.spans.items()):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent, "problem": s.problem,
                    "ok": s.ok}) + "\n")


def median(values, scale: float = 1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0
