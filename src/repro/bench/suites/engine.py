"""Engine suite: the compiled engine versus the legacy interpreter.

Two benchmarks per width, ``legacy_w*`` and ``bigint_w*``, over the same
pre-built ACA circuit and random stimulus; the legacy per-gate
interpreter runs at a reduced vector share so the suite stays
interactive.  The engine's agreement with the interpreter is asserted
at setup time — a benchmark that computes the wrong sums must never
post a throughput number.

Presets: ``small`` keeps CI under a few seconds per benchmark; ``full``
is the nightly sweep.  ``REPRO_BENCH_ENGINE_VECTORS`` and
``REPRO_BENCH_ENGINE_WIDTHS`` still override, as they did for the
pre-registry script.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

from ...analysis import choose_window
from ...circuit import random_stimulus, simulate_interpreted
from ...core import build_aca
from ...engine import RunContext, execute
from ...testing import env_widths
from ..spec import Benchmark, registry

__all__ = ["engine_suite"]

_PRESET_VECTORS = {"small": 1 << 13, "full": 1 << 18}
_PRESET_WIDTHS = {"small": (16, 64), "full": (16, 64, 256)}

#: The gate-level interpreter is orders of magnitude slower than the
#: compiled engine; it gets this fraction of the vector volume.
_LEGACY_SHARE = 16


def _vectors_for(width: int, base: int) -> int:
    return base if width == 64 else max(1 << 10, base // 16)


def _make_state(width: int, vectors: int):
    """Build circuit + stimulus once per benchmark."""
    circuit = build_aca(width, choose_window(width))
    stim = random_stimulus(circuit, num_vectors=vectors,
                           rng=np.random.default_rng(width))
    return circuit, stim, vectors


@registry.suite("engine")
def engine_suite(preset: str) -> List[Benchmark]:
    base = int(os.environ.get("REPRO_BENCH_ENGINE_VECTORS",
                              _PRESET_VECTORS[preset]))
    widths = env_widths("REPRO_BENCH_ENGINE_WIDTHS",
                        _PRESET_WIDTHS[preset])
    benches: List[Benchmark] = []
    for width in widths:
        n = _vectors_for(width, base)
        n_legacy = max(256, n // _LEGACY_SHARE)

        def setup_legacy(width=width, n_legacy=n_legacy):
            return _make_state(width, n_legacy)

        def run_legacy(state):
            circuit, stim, n = state
            return simulate_interpreted(circuit, stim, num_vectors=n)

        benches.append(Benchmark(
            name=f"legacy_w{width}", suite="engine",
            setup=setup_legacy, payload=run_legacy,
            ops_per_call=n_legacy, tags=("gate-level", "legacy"),
            params={"width": width, "vectors": n_legacy,
                    "backend": "legacy"}))

        def setup_engine(width=width, n=n):
            circuit, stim, n_vec = _make_state(width, n)
            ctx = RunContext(seed=0)
            # Correctness gate before any timing: the engine must agree
            # with the interpreter on a small probe stimulus (stimuli
            # are bit-packed, so the probe gets its own packing).
            probe = min(n_vec, 256)
            probe_stim = random_stimulus(
                circuit, num_vectors=probe,
                rng=np.random.default_rng(width + 1))
            ref = simulate_interpreted(circuit, probe_stim,
                                       num_vectors=probe)
            got = execute(circuit, probe_stim, num_vectors=probe, ctx=ctx)
            if got != ref:
                raise AssertionError(
                    f"the engine diverged from the interpreter at width "
                    f"{width}")
            return circuit, stim, n_vec, ctx

        def run_engine(state):
            circuit, stim, n_vec, ctx = state
            return execute(circuit, stim, num_vectors=n_vec, ctx=ctx)

        benches.append(Benchmark(
            name=f"bigint_w{width}", suite="engine",
            setup=setup_engine, payload=run_engine,
            ops_per_call=n, tags=("gate-level", "compiled"),
            params={"width": width, "vectors": n, "backend": "bigint"}))
    return benches
