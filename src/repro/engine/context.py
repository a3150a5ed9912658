"""Instrumented run context: seeds, counters, phase timers, manifests.

Every engine-powered entry point (the gate-level executor, experiments,
the CLI) threads a :class:`RunContext` through the stack.  The context owns

* **RNG provenance** — one root seed, one NumPy ``Generator``, and a
  deterministic ``spawn_seed`` facility (for workers) so every
  random draw in a run is reproducible from the manifest alone;
* **counters** — gate evaluations, vectors simulated …;
* **phase timers** — wall time per named phase (compile/bind/run/…);
* **the manifest** — a JSON-serialisable snapshot of all of the above
  that experiments attach to their :class:`~repro.reporting.Table` and
  the CLI writes under ``results/``.

A process-wide default context (seed 0) backs legacy call sites that do
not pass one explicitly, so nothing in the repository ever falls back to
an unseeded generator.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "RunContext",
    "get_default_context",
    "set_default_context",
    "resolve_rng",
    "spawn_seeds",
]

#: Root seed used when neither a context nor an explicit seed is given.
DEFAULT_SEED = 0

#: Trace events retained per context; later events only bump a counter.
MAX_EVENTS = 256


def spawn_seeds(root_seed: int, count: int) -> List[int]:
    """*count* independent 64-bit child seeds derived from *root_seed*.

    Uses ``SeedSequence.spawn`` so child streams are statistically
    independent and depend only on ``(root_seed, index)``, never on
    scheduling order.
    """
    children = np.random.SeedSequence(root_seed).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


class RunContext:
    """Mutable per-run instrumentation record.

    Args:
        seed: Root RNG seed (``None`` means :data:`DEFAULT_SEED`).
        label: Optional run label (the CLI stores the command name).
    """

    def __init__(self, seed: Optional[int] = None,
                 label: Optional[str] = None):
        self.seed = DEFAULT_SEED if seed is None else int(seed)
        self.label = label
        self.counters: Dict[str, int] = {}
        self.phases: Dict[str, float] = {}
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self._rng: Optional[np.random.Generator] = None
        self._spawned: List[Dict[str, Any]] = []

    # -- RNG provenance -------------------------------------------------
    @property
    def rng(self) -> np.random.Generator:
        """The run's root generator (created lazily from ``seed``)."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def spawn_seed(self, label: str) -> int:
        """A deterministic child seed, recorded in the manifest."""
        index = len(self._spawned)
        child = spawn_seeds(self.seed, index + 1)[index]
        self._spawned.append({"label": label, "index": index, "seed": child})
        return child

    # -- counters -------------------------------------------------------
    def add(self, counter: str, amount: int = 1) -> None:
        """Increment a named counter (created on first use)."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    @property
    def gate_evals(self) -> int:
        """Total gate-kernel evaluations recorded so far."""
        return self.counters.get("gate_evals", 0)

    # -- trace events ---------------------------------------------------
    def record_event(self, kind: str, **fields: Any) -> None:
        """Append a structured trace event (bounded by :data:`MAX_EVENTS`).

        The serving layer's :class:`~repro.service.Tracer` forwards its
        events here so a run manifest carries the head of the trace;
        beyond the cap only ``events_dropped`` grows, keeping manifests
        bounded no matter how long a load test runs.
        """
        if len(self.events) >= MAX_EVENTS:
            self.events_dropped += 1
            return
        event: Dict[str, Any] = {"kind": kind}
        event.update(fields)
        self.events.append(event)

    # -- phase timers ---------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall time of the ``with`` body under *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    # -- manifest -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable manifest of the run so far."""
        return {
            "label": self.label,
            "seed": self.seed,
            "gate_evals": self.gate_evals,
            "counters": dict(self.counters),
            "phase_seconds": {k: round(v, 6) for k, v in self.phases.items()},
            "spawned_seeds": list(self._spawned),
            "events": [dict(e) for e in self.events],
            "events_dropped": self.events_dropped,
        }

    as_manifest = snapshot

    def write_manifest(self, path: str) -> str:
        """Write the manifest as pretty-printed JSON; returns *path*."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.snapshot(), f, indent=2, sort_keys=True)
            f.write("\n")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunContext seed={self.seed} gate_evals={self.gate_evals}>"


_default_context: Optional[RunContext] = None


def get_default_context() -> RunContext:
    """The process-wide fallback context (seed 0, created on demand)."""
    global _default_context
    if _default_context is None:
        _default_context = RunContext(seed=DEFAULT_SEED)
    return _default_context


def set_default_context(ctx: RunContext) -> RunContext:
    """Install *ctx* as the process-wide fallback; returns it."""
    global _default_context
    _default_context = ctx
    return ctx


def resolve_rng(rng: Optional[np.random.Generator] = None,
                ctx: Optional[RunContext] = None) -> np.random.Generator:
    """The generator to use: explicit *rng*, else *ctx*, else the default.

    This is the repository-wide fix for the historical unseeded
    ``np.random.default_rng()`` fallback: every path without an explicit
    generator now draws from one seeded root.
    """
    if rng is not None:
        return rng
    return (ctx or get_default_context()).rng
