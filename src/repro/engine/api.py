"""High-level engine API: compile once, execute anywhere.

``execute`` is the drop-in replacement for the interpreted simulator:
it memoises the compiled plan per circuit (recompiling automatically if
the circuit has grown since) and runs it.  ``execute_ints``
adds the per-vector integer convenience layer (fast packing included)
that the validate/ATPG/testbench paths share.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Mapping, Optional, Sequence

from ..circuit.netlist import Circuit, CircuitError
from .backends import Stimulus, run_plan
from .context import RunContext
from .pack import pack_vectors, unpack_vectors
from .plan import CompiledPlan, compile_circuit

__all__ = ["compiled_plan", "execute", "execute_ints"]

# circuit -> {fuse flag: (net count at compile time, plan)}
_PLAN_CACHE: "weakref.WeakKeyDictionary[Circuit, Dict[bool, tuple]]" = (
    weakref.WeakKeyDictionary())


def compiled_plan(circuit: Circuit, fuse: bool = True) -> CompiledPlan:
    """The memoised :class:`CompiledPlan` for *circuit*.

    The cache is keyed on circuit identity and invalidated when the net
    count changes (circuits are append-only, so that check is exact).
    """
    per_circuit = _PLAN_CACHE.setdefault(circuit, {})
    hit = per_circuit.get(fuse)
    if hit is not None and hit[0] == len(circuit.nets):
        return hit[1]
    plan = compile_circuit(circuit, fuse=fuse)
    per_circuit[fuse] = (len(circuit.nets), plan)
    return plan


def _validate_stimulus(circuit: Circuit, stimulus: Stimulus) -> None:
    for name, bus in circuit.inputs.items():
        if name not in stimulus:
            raise CircuitError(f"missing stimulus for input {name!r}")
        if len(stimulus[name]) != len(bus):
            raise CircuitError(
                f"input {name!r} expects {len(bus)} bit-words, "
                f"got {len(stimulus[name])}")


def execute(circuit: Circuit, stimulus: Stimulus,
            num_vectors: Optional[int] = None,
            ctx: Optional[RunContext] = None,
            force: Optional[Mapping[int, int]] = None
            ) -> Dict[str, List[int]]:
    """Compile (cached) and evaluate *circuit* on packed stimulus.

    Args:
        circuit: Combinational circuit.
        stimulus: Input bus name -> per-bit packed words (Python ints).
        num_vectors: Vectors per packed word (required).
        ctx: Instrumentation context (defaults to the process context).
        force: Net id -> 0/1 overrides (fault injection).  Runs an
            unfused plan, so every net keeps its own slot.

    Returns:
        Output bus name -> per-bit packed words.
    """
    _validate_stimulus(circuit, stimulus)
    if num_vectors is None:
        raise CircuitError("num_vectors is required for Python-int stimulus")
    if num_vectors <= 0:
        raise CircuitError("num_vectors must be positive")

    if force is not None:
        plan = compiled_plan(circuit, fuse=False)
        slot_force = {plan.slot_of(nid): bit for nid, bit in force.items()}
        return run_plan(plan, stimulus, num_vectors, ctx=ctx,
                        force=slot_force)

    plan = compiled_plan(circuit, fuse=True)
    return run_plan(plan, stimulus, num_vectors, ctx=ctx)


def execute_ints(circuit: Circuit, vectors: Mapping[str, Sequence[int]],
                 ctx: Optional[RunContext] = None,
                 force: Optional[Mapping[int, int]] = None
                 ) -> Dict[str, List[int]]:
    """Evaluate *circuit* on per-vector integers (packing handled here).

    Args:
        circuit: Combinational circuit.
        vectors: Input bus name -> one integer per test vector; every
            bus must carry the same number of vectors.
        ctx, force: As for :func:`execute`.

    Returns:
        Output bus name -> one integer per test vector.
    """
    names = list(circuit.inputs)
    if not names:
        raise CircuitError("circuit has no inputs")
    counts = {name: len(vectors[name]) for name in names}
    count = counts[names[0]]
    if len(set(counts.values())) > 1:
        raise CircuitError(f"buses carry different vector counts: {counts}")
    if count == 0:
        raise CircuitError("need at least one vector")
    stim = {
        name: pack_vectors(vectors[name], len(circuit.inputs[name]))
        for name in names}
    out_words = execute(circuit, stim, num_vectors=count, ctx=ctx,
                        force=force)
    return {name: unpack_vectors(words, count)
            for name, words in out_words.items()}
