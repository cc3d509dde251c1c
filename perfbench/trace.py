"""In-memory spans around the library's public calls, for the traced run.

A :class:`Tracer` patches the methods named in a workload's layer map with
wrappers that record one :class:`Span` per call — name, start, end, the
span that was open on the same thread when it started (its parent) and a
request id — and restores the originals afterwards.  Nothing is patched in
an untraced run, so end-to-end numbers never pay for tracing.

Spans recorded inside forked pool workers stay in the worker; only the
parent process's spans are analysed.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    """One timed call (or benchmark phase)."""

    name: str
    start: float
    parent: "Span | None"
    request: str
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while enabled; patches and restores instrumented methods."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[type, str, object]] = []
        self._request_ids = itertools.count()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span (yields it, or ``None`` when disabled).

        A span opened with no enclosing span on its thread starts a new
        request (a batch, a sample, a daemon call); nested spans inherit
        their parent's request id.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = parent.request if parent is not None else f"r{next(self._request_ids)}"
        record = Span(name, time.perf_counter(), parent, request)
        self.spans.append(record)  # list.append is atomic under the GIL
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def inside(self, names) -> bool:
        """True when a span named in ``names`` is open on this thread."""
        return any(span.name in names for span in self._stack())

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #
    def wrap(self, owner: type, attr: str, name, counter=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a callable of the call's ``(args,
        kwargs)`` returning it.  ``counter(args, kwargs, result)`` may return
        a dict of counts stored on the span.  Plain functions, classmethods
        and staticmethods are supported.
        """
        raw = owner.__dict__[attr]
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if descriptor is not None else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with self.span(span_name) as record:
                result = func(*args, **kwargs)
                if counter is not None and record is not None:
                    record.counts.update(counter(args, kwargs, result))
                return result

        setattr(owner, attr, descriptor(wrapper) if descriptor is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def wrap_hierarchy(self, base: type, attr: str, name, counter=None) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that defines its own."""
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in cls.__dict__:
                self.wrap(cls, attr, name, counter)
            pending.extend(cls.__subclasses__())

    def restore(self) -> None:
        """Put every patched method back (idempotent)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, install):
        """Patch with ``install(self)`` for the enclosed block, then restore."""
        install(self)
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        ids = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for number, span in enumerate(self.spans):
                parent = None if span.parent is None else ids.get(id(span.parent))
                handle.write(
                    json.dumps(
                        {
                            "id": number,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": parent,
                            "request": span.request,
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def children_of(spans) -> dict:
    """Map each span (by identity) to the list of its direct children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return children


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(span: Span, children: dict) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = union_length(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children.get(id(span), ())
        if child.end > span.start and child.start < span.end
    )
    return span.duration - covered


def descendants(root: Span, children: dict):
    """Every span below ``root``, in no particular order."""
    pending = list(children.get(id(root), ()))
    while pending:
        span = pending.pop()
        yield span
        pending.extend(children.get(id(span), ()))


def time_in(root: Span, names, children: dict) -> float:
    """Time below ``root`` spent in spans named in ``names``, nested ones counted once."""
    names = {names} if isinstance(names, str) else set(names)
    total, pending = 0.0, list(children.get(id(root), ()))
    while pending:
        span = pending.pop()
        if span.name in names:
            total += span.duration
        else:
            pending.extend(children.get(id(span), ()))
    return total


def outermost(spans, names, exclude_under=()) -> list:
    """Spans named in ``names`` with no ancestor in ``names`` or ``exclude_under``."""
    names = set(names)
    blocked = names | set(exclude_under)
    found = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and parent.name not in blocked:
            parent = parent.parent
        if parent is None:
            found.append(span)
    return found
