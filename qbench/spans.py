"""In-memory spans for the traced benchmark run.

A :class:`SpanRecorder` wraps entry points by patching the attribute
their caller looks up (a module global or a class attribute), and
records one span per call: name, start, end, parent, op id, thread and
two numeric values the wrapper extracts from the call (for example the
records a cleaning pass kept).  Parents come from a thread-local stack;
a thread with an empty stack parents its spans to the recorder's
``root`` span, so work done on another thread (an HTTP handler, a
background replay) can still be attributed to a span opened elsewhere.

Spans stay packed in per-thread buffers while the program runs and are
written out once, when the run ends.  Self time is derived afterwards
(:func:`self_times`): a span's duration minus the part of its interval
that its child spans cover, counting overlap between children (from
different threads) once.

The runner (``run.py``) loads and derives spans with numpy alone,
without importing the program.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import struct
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: One span as stored: little-endian, fixed width.
FIELDS = (
    ("id", "<i8"), ("name", "<i8"), ("start", "<f8"), ("end", "<f8"),
    ("parent", "<i8"), ("op", "<i8"), ("a", "<f8"), ("b", "<f8"),
)
#: :data:`FIELDS` packed: the same layout in :mod:`struct` notation.
_SPAN = struct.Struct("<qqddqqdd")

#: Signature of a value extractor: ``(args, kwargs, result) -> (a, b)``.
Values = Callable[[tuple, dict, object], Tuple[float, float]]


class _ThreadBuffer:
    """One thread's open-span stack and its closed spans, packed."""

    __slots__ = ("stack", "data")

    def __init__(self):
        self.stack: List[int] = []
        self.data = bytearray()


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: List[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self.op = -1
        """Op id stamped on spans as they close; -1 outside measured ops."""
        self.root = -1
        """Parent of spans opened on an empty thread stack."""

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span; yields its id."""
        name_id = self.name_id(name)
        buf = self._buffer()
        stack = buf.stack
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            buf.data += _SPAN.pack(
                span_id, name_id, start, end, parent, self.op, 0.0, 0.0
            )

    def wrapped(self, fn: Callable, name: str, values: Optional[Values]):
        """``fn`` recording one span per call (kept lean: it runs once
        per streamed record in the traced replay)."""
        name_id = self.name_id(name)
        local, ids, clock = self._local, self._ids, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = self._buffer()
            stack = buf.stack
            span_id = next(ids)
            parent = stack[-1] if stack else self.root
            stack.append(span_id)
            a = b = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if values is not None:
                    a, b = values(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                buf.data += _SPAN.pack(
                    span_id, name_id, start, end, parent, self.op, a, b
                )

        return wrapper

    def patch(self, owner, attr: str, name: str,
              values: Optional[Values] = None) -> None:
        """Replace ``owner.attr`` (a module function, or a plain, class or
        static method of a class) by its span-recording wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self.wrapped(raw.__func__, name, values))
        else:
            patched = self.wrapped(raw, name, values)
        setattr(owner, attr, patched)

    def dump(self, path) -> None:
        """Write every closed span: one JSON header line, then each
        thread's packed spans."""
        with self._lock:
            blocks = [bytes(buf.data) for buf in self._buffers]
        header = {"names": self.names, "fields": [list(f) for f in FIELDS],
                  "threads": [len(block) // _SPAN.size for block in blocks]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for block in blocks:
                fh.write(block)


def load(path) -> Tuple[List[str], Dict[str, np.ndarray]]:
    """Read a span file written by :meth:`SpanRecorder.dump` into one
    column per field, plus ``thread`` (the writing thread's index)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        rows = np.fromfile(
            fh, dtype=np.dtype([tuple(f) for f in header["fields"]])
        )
    table = {name: rows[name] for name, _ in header["fields"]}
    table["thread"] = np.repeat(
        np.arange(len(header["threads"])), header["threads"]
    )
    return header["names"], table


def self_times(ids, starts, ends, parents, threads) -> np.ndarray:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval.

    Children on one thread nest and never overlap, so their clipped
    durations simply add up.  Children on different threads can
    overlap; for a parent with such children the union is merged
    explicitly, counting each covered instant once.  A parent id that
    matches no span (-1, or a span never closed) makes a root.
    """
    ids = np.asarray(ids, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    threads = np.asarray(threads, dtype=np.int64)
    n = len(ids)
    out = ends - starts
    if n == 0:
        return out
    order = np.argsort(ids, kind="stable")
    at = np.minimum(np.searchsorted(ids[order], parents), n - 1)
    found = ids[order][at] == parents
    kids = np.nonzero(found)[0]
    if not len(kids):
        return out
    owner = order[at[kids]]
    lo = np.maximum(starts[kids], starts[owner])
    hi = np.minimum(ends[kids], ends[owner])
    covered = np.clip(hi - lo, 0.0, None)
    first = np.full(n, np.iinfo(np.int64).max)
    last = np.full(n, -1)
    np.minimum.at(first, owner, threads[kids])
    np.maximum.at(last, owner, threads[kids])
    mixed = first[owner] != last[owner]
    out -= np.bincount(
        owner[~mixed], weights=covered[~mixed], minlength=n
    )
    for parent in np.unique(owner[mixed]):
        select = mixed & (owner == parent)
        out[parent] -= _union_length(lo[select], hi[select])
    return out


def _union_length(lo: np.ndarray, hi: np.ndarray) -> float:
    """Total length of the union of the intervals ``[lo[i], hi[i]]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(zip(lo.tolist(), hi.tolist())):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        elif e > cur_hi:
            cur_hi = e
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
