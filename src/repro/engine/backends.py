"""The engine's executor: the compiled op tape over Python-int bit-slices.

Stimulus arrives as ``{bus name: [per-bit words]}`` (the layout of
:func:`repro.circuit.simulate.simulate`): each word is a Python int
whose bit ``j`` carries vector ``j``, so one pass over the tape
evaluates arbitrarily many vectors.  Outputs come back in the same
layout.  Per-net *forcing* (fault injection) is honoured on unfused
plans.

It is the only executor: NumPy ``uint64`` and multi-process executors
measured slower at every width and vector count tried (see the
*Engine* section of ``docs/architecture.md``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..circuit.netlist import CircuitError
from .context import RunContext, get_default_context
from .plan import (
    OP_AND, OP_AO21, OP_COPY, OP_MAJ3, OP_MUX2, OP_OA21, OP_OR, OP_XOR,
    CompiledPlan,
)

__all__ = ["run_plan"]

Stimulus = Mapping[str, Sequence[int]]


def _run_tape_bigint(plan: CompiledPlan, vals: List[int], mask: int,
                     force: Optional[Mapping[int, int]] = None) -> None:
    """Execute the flat op tape over Python-int bitslice words."""
    forced: Dict[int, int] = {}
    if force:
        forced = {slot: (mask if bit else 0) for slot, bit in force.items()}
        for slot, word in forced.items():
            # Source slots (inputs/constants) are overridden up front;
            # gate slots are re-forced right after their step below.
            vals[slot] = word
    for opcode, out, ins, inv in plan.steps:
        if opcode == OP_AND:
            r = vals[ins[0]] & vals[ins[1]]
        elif opcode == OP_OR:
            r = vals[ins[0]] | vals[ins[1]]
        elif opcode == OP_XOR:
            r = vals[ins[0]] ^ vals[ins[1]]
        elif opcode == OP_COPY:
            r = vals[ins[0]]
        elif opcode == OP_AO21:
            r = (vals[ins[0]] & vals[ins[1]]) | vals[ins[2]]
        elif opcode == OP_OA21:
            r = (vals[ins[0]] | vals[ins[1]]) & vals[ins[2]]
        elif opcode == OP_MUX2:
            s = vals[ins[0]]
            r = (vals[ins[1]] & s) | (vals[ins[2]] & (s ^ mask))
        else:  # OP_MAJ3
            a, b, c = vals[ins[0]], vals[ins[1]], vals[ins[2]]
            r = (a & b) | (a & c) | (b & c)
        if inv:
            r ^= mask
        if forced:
            f = forced.get(out)
            if f is not None:
                r = f
        vals[out] = r


def run_plan(plan: CompiledPlan, stimulus: Stimulus, num_vectors: int,
             ctx: Optional[RunContext] = None,
             force: Optional[Mapping[int, int]] = None
             ) -> Dict[str, List[int]]:
    """Evaluate *plan* on *stimulus*; returns per-output bit words.

    Args:
        plan: Compiled circuit.
        stimulus: Input bus name -> per-bit packed words.
        num_vectors: Vectors packed per word.
        ctx: Instrumentation sink (gate-eval counters).
        force: Slot -> 0/1 constant overrides (fault injection); the
            plan must be unfused so every net has its own slot.
    """
    if num_vectors <= 0:
        raise CircuitError("num_vectors must be positive")
    mask = (1 << num_vectors) - 1
    vals: List[int] = [0] * plan.num_slots
    for slot, bit in plan.const_slots:
        vals[slot] = mask if bit else 0
    for name, slots in plan.input_slots.items():
        for slot, word in zip(slots, stimulus[name]):
            vals[slot] = int(word) & mask
    _run_tape_bigint(plan, vals, mask, force)
    ctx = ctx or get_default_context()
    ctx.add("gate_evals", plan.num_gates)
    ctx.add("vectors", num_vectors)
    ctx.add("runs_bigint", 1)
    return {name: [vals[s] for s in slots]
            for name, slots in plan.output_slots.items()}
