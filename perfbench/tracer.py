"""Spans and counts recorded around the program's public functions.

The benchmark never edits the program: a traced run replaces a function
or method at a layer boundary with a wrapper that records one span per
call (name, start, end, parent span, run or request id) and restores the
original afterwards.  Spans stay in memory until :meth:`Tracer.dump`.
Untraced runs install nothing, so end-to-end numbers never pay for this.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from stats import self_time


class Tracer:
    """In-memory span and count recorder shared by every thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: "collections.Counter[str]" = collections.Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        #: Span that adopts spans opened on threads with no open span of
        #: their own (hub link threads, job threads): the current run.
        self.active_root: Optional[Dict[str, Any]] = None

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def trace_id(self) -> Optional[int]:
        """Run or request id of the calling thread's innermost span."""
        stack = self._stack()
        if stack:
            return stack[-1]["trace"]
        adopted = getattr(self._local, "adopted_trace", None)
        if adopted is not None:
            return adopted
        return self.active_root["trace"] if self.active_root else None

    def adopt_trace(self, trace_id: Optional[int]) -> None:
        """Make this thread's next root-less spans belong to ``trace_id``."""
        self._local.adopted_trace = trace_id

    @contextlib.contextmanager
    def span(self, name: str, *, root: bool = False, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; ``root`` starts a new run/request id."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]["id"]
        elif self.active_root is not None and not root:
            parent = self.active_root["id"]
        else:
            parent = None
        record: Dict[str, Any] = {
            "id": span_id,
            "parent": None if root else parent,
            "trace": span_id if root else self.trace_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self._record(record)

    def add_span(self, name: str, start: float, end: float, **attrs: Any) -> Dict[str, Any]:
        """Record a span whose interval was measured elsewhere."""
        record = {
            "id": next(self._ids),
            "parent": self.active_root["id"] if self.active_root else None,
            "trace": self.trace_id,
            "name": name,
            "start": start,
            "end": end,
        }
        record.update(attrs)
        self._record(record)
        return record

    def _record(self, record: Dict[str, Any]) -> None:
        """Keep a finished span and count its call, groups and bytes."""
        with self._lock:
            self.spans.append(record)
            name = record["name"]
            self.counts[name + ".calls"] += 1
            for key in ("n_groups", "bytes"):
                if isinstance(record.get(key), int):
                    self.counts[f"{name}.{key}"] += record[key]

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        root: bool = False,
        on_call: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_call(record, args, kwargs, result)`` may annotate the span.
        Returns the original, which :meth:`restore` puts back.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name, root=root) as record:
                result = original(*args, **kwargs)
                if on_call is not None:
                    on_call(record, args, kwargs, result)
                return result

        self.patch(owner, attr, wrapper)
        return original

    def wrap_generator(self, owner: Any, attr: str, name: str) -> Callable:
        """Wrap a generator function so each ``next()`` is one span: the
        time its consumer spent blocked waiting for the next item."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = original(*args, **kwargs)
            try:
                while True:
                    with tracer.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            finally:
                inner.close()

        self.patch(owner, attr, wrapper)
        return original

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)


def durations(spans: List[Dict[str, Any]], name: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per span name, each span's self time (children counted once)."""
    children: Dict[int, List[tuple]] = collections.defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: Dict[str, List[float]] = collections.defaultdict(list)
    for s in spans:
        out[s["name"]].append(self_time(s["start"], s["end"], children.get(s["id"], ())))
    return out


def load_dump(path: str) -> Dict[str, Any]:
    """Read the spans and counts another process's tracer dumped."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TimedJson:
    """Stand-in for the ``json`` module inside :mod:`repro.simulation.remote`.

    The wire codec calls ``json.dumps``/``json.loads`` through its module
    global; this forwards to the real functions and hands each call's
    interval and decoded message to ``on_dumps``/``on_loads`` so encode,
    decode and handshake time are measured at the framing boundary.
    """

    def __init__(
        self,
        on_dumps: Callable[[dict, str, float, float], None],
        on_loads: Callable[[Any, str, float, float], None],
    ) -> None:
        self._on_dumps = on_dumps
        self._on_loads = on_loads

    def dumps(self, obj: Any, **kwargs: Any) -> str:
        start = time.perf_counter()
        text = json.dumps(obj, **kwargs)
        self._on_dumps(obj, text, start, time.perf_counter())
        return text

    def loads(self, text: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        obj = json.loads(text, **kwargs)
        self._on_loads(obj, text, start, time.perf_counter())
        return obj

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)
