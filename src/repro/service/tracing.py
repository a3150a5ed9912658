"""Structured trace events for the serving layer.

Every interesting service transition (request admitted/rejected, batch
executed, detector fired, shutdown) becomes a :class:`TraceEvent` —
a timestamped ``kind`` plus free-form fields.  The :class:`Tracer`
keeps a bounded buffer of recent events for inspection and *also* forwards
each event to the run's :class:`~repro.engine.RunContext` via
:meth:`~repro.engine.RunContext.record_event`, so a ``--manifest`` run
carries the head of its own trace: the manifest alone shows what the
batcher actually did (batch sizes, stall bursts, rejections), not just
aggregate counters.

Timestamps come from an injectable clock so tests can run with a
deterministic virtual clock.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from ..engine.context import RunContext

__all__ = ["TraceEvent", "Tracer"]


@dataclass
class TraceEvent:
    """One structured event on the service timeline."""

    ts: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out = {"ts": round(self.ts, 6), "kind": self.kind}
        out.update(self.fields)
        return out

    def __str__(self) -> str:
        pairs = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.ts:.6f}] {self.kind} {pairs}".rstrip()


class Tracer:
    """Bounded event buffer, optionally mirrored into a :class:`RunContext`.

    Args:
        ctx: Run context to forward events to (``None`` = buffer only).
        capacity: Events retained in the buffer (oldest dropped first).
        clock: Timestamp source (default ``time.monotonic``).
    """

    def __init__(self, ctx: Optional[RunContext] = None,
                 capacity: int = 1024,
                 clock: Callable[[], float] = time.monotonic):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.ctx = ctx
        self.clock = clock
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, kind: str, **fields: Any) -> TraceEvent:
        """Record one event; returns it for convenience."""
        event = TraceEvent(ts=self.clock(), kind=kind, fields=fields)
        self._ring.append(event)
        self.emitted += 1
        if self.ctx is not None:
            self.ctx.record_event(kind, **fields)
        return event

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    def tail(self, n: int = 10) -> List[TraceEvent]:
        """The most recent *n* events."""
        return list(self._ring)[-n:]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Retained events whose kind equals *kind*."""
        return [e for e in self._ring if e.kind == kind]
