"""Compiled circuit execution engine.

The engine is the repository's gate-level simulator: it **compiles** a
levelized :class:`~repro.circuit.Circuit` once into a flat op tape
(:mod:`repro.engine.plan`), then runs that tape over Python big-int
bit-slices, bit ``j`` of every word carrying vector ``j``
(:mod:`repro.engine.backends`).  That is the only executor; fault
forcing runs the same tape on an unfused plan.

Every run is instrumented through :class:`~repro.engine.RunContext`
(gate-eval counters, per-phase wall times, RNG seed provenance) which
experiments attach to their tables and the CLI writes as a JSON run
manifest.  Functional fast-path models (e.g. the closed-form ACA in
:mod:`repro.mc.fastsim`) register beside the gate-level path via
:func:`register_functional`, keeping the two cross-checkable by
construction.

Quick tour::

    from repro.core import build_aca
    from repro import engine

    aca = build_aca(64, 18)
    out = engine.execute_ints(aca, {"a": [3, 5], "b": [4, 9]})
    out["sum"]                       # [7, 14]
    model = engine.functional_model("aca", width=64, window=18)
    model.run_ints({"a": 3, "b": 4})  # same interface, no gates
"""

from .api import compiled_plan, execute, execute_ints
from .context import (
    RunContext,
    get_default_context,
    resolve_rng,
    set_default_context,
    spawn_seeds,
)
from .functional import (
    available_functionals,
    functional_model,
    register_functional,
)
from .plan import CompiledPlan, compile_circuit
from . import pack

__all__ = [
    "compiled_plan", "execute", "execute_ints",
    "RunContext", "get_default_context", "set_default_context",
    "resolve_rng", "spawn_seeds",
    "available_functionals", "functional_model", "register_functional",
    "CompiledPlan", "compile_circuit",
    "pack",
]
