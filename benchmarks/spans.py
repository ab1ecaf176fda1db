"""In-memory span recorder for the traced benchmark run.

Spans are recorded only around calls the benchmark makes into gradecho's
public functions, or around the names a gradecho module imported from
another one (``patched``), so the package itself is never edited.  A span
holds (name, start, end, parent, iteration); self time is the span's
duration minus the time its direct children cover.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    iteration: Optional[int]


class Tracer:
    """Collects nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration: Optional[int] = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, self.iteration))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out
        return traced

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name over the subtree under span ``root``
        (the root's own self time under its own name)."""
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children.setdefault(s.parent, []).append(i)
        out: dict[str, float] = {}
        todo = [root]
        while todo:
            i = todo.pop()
            s = self.spans[i]
            kids = children.get(i, [])
            own = (s.end - s.start) - sum(self.spans[k].end - self.spans[k].start
                                          for k in kids)
            out[s.name] = out.get(s.name, 0.0) + own
            todo.extend(kids)
        return out

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s.name == name and s.parent is None]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans]}, fh)
            fh.write("\n")


@contextlib.contextmanager
def patched(module, wrappers: dict[str, Callable]):
    """Temporarily rebind attributes of ``module`` (restored on exit)."""
    saved = {name: getattr(module, name) for name in wrappers}
    try:
        for name, fn in wrappers.items():
            setattr(module, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
