"""In-memory span recorder and the monkey-patch installer of the traced run.

A span is ``(id, name, start, end, parent, run, none)``: one timed call
into a layer of the program, the span that caused it, the run (one
execution of a workload's timed section) it belongs to, and whether the
wrapped call returned ``None`` (the engine's "no prediction" outcome).
Spans are kept in memory and written out once, when the run ends; the
program under test is never edited — :func:`instrument` swaps named
attributes for timing wrappers and puts every original back on exit.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps

__all__ = ["Span", "Recorder", "instrument", "self_seconds", "check_tree"]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    none: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread.

    Each thread keeps its own stack of open spans, so nesting follows
    the call stack of that thread.  A span opened on a thread with an
    empty stack (a pool worker picking up a job) is parented to
    ``root``: the stage span the main thread currently has open.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock
            self.spans.append(
                Span(sid, name, start, end, parent, self.run, result is None)
            )

    @contextmanager
    def stage(self, name: str):
        """A span around a block of the benchmark's own code (main thread).

        While it is open it is also the parent of spans that start on
        threads with no open span of their own.
        """
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        previous_root, self.root = self.root, sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.root = previous_root
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run))

    # -- reading ---------------------------------------------------------------

    def to_rows(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run": s.run,
                "none": s.none,
            }
            for s in sorted(self.spans, key=lambda s: s.id)
        ]


def _set(holder, attr: str, value) -> None:
    if isinstance(holder, dict):
        holder[attr] = value
    else:
        setattr(holder, attr, value)


@contextmanager
def instrument(recorder: Recorder, targets):
    """Install a timing wrapper on every ``(holder, attribute, span name)``.

    ``holder`` is the module, class or dict that *owns* the name the
    program looks up at call time: for a function pulled in with
    ``from x import f`` that is the importing module, not ``x``.  The
    attribute must be defined on the holder itself (not inherited), so
    that restoring is a plain assignment of the object that was there.
    Yields the list of ``(holder, attribute, original)`` it replaced.
    """
    replaced = []
    try:
        for holder, attr, name in targets:
            original = holder[attr] if isinstance(holder, dict) else vars(holder)[attr]

            def make(original=original, name=name):
                @wraps(original)
                def wrapper(*args, **kwargs):
                    return recorder.call(name, original, *args, **kwargs)

                return wrapper

            _set(holder, attr, make())
            replaced.append((holder, attr, original))
        yield replaced
    finally:
        for holder, attr, original in reversed(replaced):
            _set(holder, attr, original)


# -- span-tree arithmetic ------------------------------------------------------


def _children(spans) -> dict:
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return children


def _union_seconds(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals (they may overlap)."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


def self_seconds(spans) -> dict:
    """Self time per span id: duration minus the union of its children."""
    children = _children(spans)
    return {
        span.id: span.seconds
        - _union_seconds(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        )
        for span in spans
    }


def check_tree(spans) -> list[str]:
    """Problems with the span tree; an empty list means well formed."""
    by_id = {span.id: span for span in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for span in spans:
        if span.end < span.start:
            problems.append(f"span {span.id} ({span.name}) ends before it starts")
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.id} ({span.name}) has no parent {span.parent}")
        elif span.start < parent.start or span.end > parent.end:
            problems.append(
                f"span {span.id} ({span.name}) leaves its parent {parent.name}"
            )
        elif span.run != parent.run:
            problems.append(f"span {span.id} ({span.name}) changes run id")
    for sid, seconds in self_seconds(spans).items():
        if seconds < -1e-9:
            problems.append(f"span {sid} has negative self time {seconds}")
    return problems
