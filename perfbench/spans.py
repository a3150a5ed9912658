"""Spans recorded from outside the program, for the traced run only.

:class:`SpanLog` patches a public entry point (a method on a class or
an instance) with a wrapper that records one span per call: name,
start, end, parent span and request id.  Parents and request ids travel
in context variables, so they follow one asyncio task (or thread) and
never leak between concurrent requests.  Spans stay in memory until the
run ends, when :meth:`SpanLog.dump` writes them out.  Nothing here is
installed in an untimed or untraced run: the end-to-end metrics are
always measured with the program unpatched.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_PARENT: contextvars.ContextVar = contextvars.ContextVar("span", default=-1)
#: Request id of the work in progress; -1 for batch-level work (a
#: coalesced executor batch serves many requests at once).
REQUEST: contextvars.ContextVar = contextvars.ContextVar("req", default=-1)

Span = Tuple[str, int, int, int, int]  # name, start_ns, end_ns, parent, req


class SpanLog:
    def __init__(self, spans: Optional[List[Span]] = None,
                 ops: Optional[Dict[str, int]] = None) -> None:
        self.spans: List[Optional[Span]] = list(spans or [])
        #: Work units (additions) per span name, where a wrapper counts them.
        self.ops: Dict[str, int] = dict(ops or {})
        self._undo: List[Tuple[object, str, object, bool]] = []
        self._req_ids = 0

    # -- installation ---------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             request_of: Optional[Callable] = None,
             ops_of: Optional[Callable] = None) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *request_of*, given the call's arguments, returns the request id
        the span starts (and its child spans inherit); ``True`` instead
        of a callable numbers requests in call order.  *ops_of*, given
        the same arguments, returns the additions the call works on,
        summed per name into :attr:`ops`.
        """
        had_own = attr in vars(owner)
        orig = getattr(owner, attr) if not had_own else vars(owner)[attr]
        spans = self.spans

        def begin(args, kwargs):
            if ops_of is not None:
                self.ops[name] = self.ops.get(name, 0) + ops_of(*args,
                                                                **kwargs)
            idx = len(spans)
            spans.append(None)
            tokens = [_PARENT.set(idx)]
            if request_of is True:
                self._req_ids += 1
                tokens.append(REQUEST.set(self._req_ids))
            elif request_of is not None:
                tokens.append(REQUEST.set(request_of(*args, **kwargs)))
            return idx, tokens

        def end(idx, tokens, parent, t0):
            t1 = time.perf_counter_ns()
            req = REQUEST.get()
            for tok in reversed(tokens):
                tok.var.reset(tok)
            spans[idx] = (name, t0, t1, parent, req)

        if inspect.iscoroutinefunction(orig):
            @functools.wraps(orig)
            async def wrapper(*args, **kwargs):
                parent = _PARENT.get()
                idx, tokens = begin(args, kwargs)
                t0 = time.perf_counter_ns()
                try:
                    return await orig(*args, **kwargs)
                finally:
                    end(idx, tokens, parent, t0)
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                parent = _PARENT.get()
                idx, tokens = begin(args, kwargs)
                t0 = time.perf_counter_ns()
                try:
                    return orig(*args, **kwargs)
                finally:
                    end(idx, tokens, parent, t0)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig, had_own))

    def uninstall(self) -> None:
        """Put every patched entry point back, last patch first."""
        while self._undo:
            owner, attr, orig, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # -- queries --------------------------------------------------------
    def finished(self) -> List[Span]:
        return [s for s in self.spans if s is not None]

    def dump(self, path: Path) -> None:
        """Write every finished span, plus its self time, as JSON."""
        spans = self.finished()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "request", "self_ns"],
                       "spans": [list(s) + [st] for s, st in
                                 zip(spans, self_times(self.spans))]}, fh)


def durations(spans: Iterable[Span], name: str) -> List[int]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def union(intervals: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge intervals into disjoint, sorted ones."""
    out: List[List[int]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def covered(intervals: List[Tuple[int, int]],
            by: List[Tuple[int, int]]) -> int:
    """Length of the part of the disjoint *intervals* that *by* covers."""
    total = 0
    j = 0
    for lo, hi in intervals:
        while j < len(by) and by[j][1] <= lo:
            j += 1
        k = j
        while k < len(by) and by[k][0] < hi:
            total += min(hi, by[k][1]) - max(lo, by[k][0])
            k += 1
    return total


def self_times(spans: List[Optional[Span]]) -> List[int]:
    """Each finished span's duration minus what its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        if s is not None and s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        if s is None:
            continue
        kids = union(children.get(idx, ()))
        out.append(s[2] - s[1] - covered([(s[1], s[2])], kids))
    return out
