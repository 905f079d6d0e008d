"""Span tracing from outside the program.

A :class:`Tracer` replaces a callable at the attribute its caller looks up
(``module.name`` or ``Class.method``) with a wrapper that records one span
per call: name, start, end, parent span and op id.  Spans stay in memory
until the run ends; :meth:`Tracer.restore` puts every original callable
back.  Nothing under ``src/`` knows it is being traced.

A span's op id is given by the wrapper's ``op_in`` hook, or else inherited
from the enclosing span on the same thread.  ``op_out`` may replace it once
the call has returned (the service learns a request's cache key only
inside the call).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional

__all__ = ["Span", "Tracer", "self_times"]


@dataclass(frozen=True)
class Span:
    """One timed call."""

    id: int
    name: str
    start: float
    end: float
    parent: int          # id of the enclosing span on this thread, or -1
    op: Optional[Hashable]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.op]


class Tracer:
    """Records spans and counters; owns the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []   # (owner, attr, original, owned)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float = 1) -> None:
        """Add ``amount`` to a named counter (thread-safe)."""
        with self._lock:
            self.counters[counter] += amount

    @contextmanager
    def span(self, name: str, op: Optional[Hashable] = None):
        """Time the body as one span; yields a one-item list holding the op
        id, which the body may overwrite."""
        stack = self._stack()
        parent_id, parent_op = stack[-1] if stack else (-1, None)
        sid = next(self._ids)
        holder = [parent_op if op is None else op]
        stack.append((sid, holder[0]))
        start = time.perf_counter()
        try:
            yield holder
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent_id,
                                   holder[0]))

    def record(self, name: str, start: float, end: float,
               op: Optional[Hashable]) -> None:
        """Add a span timed elsewhere (a client thread's request)."""
        self.spans.append(Span(next(self._ids), name, start, end, -1, op))

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, *,
             op_in: Optional[Callable] = None,
             op_out: Optional[Callable] = None,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``op_in(args, kwargs)`` names the op before the call and
        ``op_out(result)`` after it; ``before(args, kwargs)`` runs ahead
        of the call and its return value is handed to
        ``after(result, args, kwargs, state)``.
        """
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            op = op_in(args, kwargs) if op_in is not None else None
            with tracer.span(name, op) as holder:
                result = original(*args, **kwargs)
                if op_out is not None:
                    holder[0] = op_out(result)
            if after is not None:
                after(result, args, kwargs, state)
            return result

        self._saved.append((owner, attr, original, owned))
        setattr(owner, attr, wrapper)

    def installed(self) -> List[tuple]:
        """``(owner, attr, original)`` of every wrapper in place."""
        return [(owner, attr, original)
                for owner, attr, original, _ in self._saved]

    def restore(self) -> None:
        """Put back every wrapped callable, newest first."""
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def rows(self) -> List[list]:
        """Every span as ``[id, name, start, end, parent, op]``."""
        return [s.as_row() for s in sorted(self.spans, key=lambda s: s.id)]


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus the time its children cover."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.seconds
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.seconds - covered[s.id]
    return dict(out)
