"""Stuck-at fault injection and fault simulation.

Classic EDA machinery: enumerate single stuck-at-0/1 faults on the nets
of a circuit, simulate the faulty circuit against the good one on a test
set, and report coverage.  Used here to study how manufacturing defects
in the speculative adder interact with its error detector (a defect in
the sum logic is *not* a speculation error, so the VLSA flag must not be
relied on as a fault detector — the fault benchmark quantifies this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .netlist import Circuit, CircuitError
from .simulate import random_stimulus, simulate_words

__all__ = ["StuckAtFault", "enumerate_faults", "simulate_with_fault",
           "fault_coverage", "FaultReport"]


@dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at fault on the output of net ``nid``."""

    nid: int
    value: int  # 0 or 1

    def describe(self, circuit: Circuit) -> str:
        net = circuit.nets[self.nid]
        label = net.name or f"{net.op.lower()}#{net.nid}"
        return f"{label} stuck-at-{self.value}"


def enumerate_faults(circuit: Circuit,
                     live_only: bool = True) -> List[StuckAtFault]:
    """All single stuck-at-0/1 faults on (live) nets."""
    live = (circuit.reachable_from_outputs()
            if live_only and circuit.outputs else [True] * len(circuit.nets))
    faults: List[StuckAtFault] = []
    for net in circuit.nets:
        if not live[net.nid] or net.op in ("CONST0", "CONST1"):
            continue
        faults.append(StuckAtFault(net.nid, 0))
        faults.append(StuckAtFault(net.nid, 1))
    return faults


def simulate_with_fault(circuit: Circuit, fault: StuckAtFault,
                        stimulus: Mapping[str, Sequence[int]],
                        num_vectors: int) -> Dict[str, List[int]]:
    """Bit-parallel simulation with one net forced to a constant.

    Runs on the engine's force path: an **unfused** compiled plan (one
    slot per live net, no NOT/BUF aliasing, so every fault site stays
    observable) with the faulty slot re-forced after its producing step.
    A fault on a net that is dead in the plan cannot reach an output, so
    the fault-free response is returned directly.
    """
    if not (0 <= fault.nid < len(circuit.nets)):
        raise CircuitError(f"fault on missing net {fault.nid}")
    from ..engine import compiled_plan, execute

    plan = compiled_plan(circuit, fuse=False)
    if plan.nid_to_slot[fault.nid] < 0:  # dead net: unobservable fault
        return execute(circuit, stimulus, num_vectors=num_vectors)
    return execute(circuit, stimulus, num_vectors=num_vectors,
                   force={fault.nid: fault.value})


@dataclass
class FaultReport:
    """Outcome of a fault-coverage run."""

    total_faults: int
    detected: int
    undetected: List[StuckAtFault]

    @property
    def coverage(self) -> float:
        """Fraction of faults that changed at least one output bit."""
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults


def fault_coverage(circuit: Circuit, num_vectors: int = 256,
                   faults: Optional[Iterable[StuckAtFault]] = None,
                   outputs: Optional[Sequence[str]] = None,
                   seed: Optional[int] = 0) -> FaultReport:
    """Random-pattern fault coverage of *circuit*.

    Args:
        circuit: Circuit under test.
        num_vectors: Random test vectors applied (bit-parallel).
        faults: Fault list (default: all single stuck-at faults).
        outputs: Restrict observation to these output buses.
        seed: Stimulus RNG seed.

    Returns:
        A :class:`FaultReport` with the coverage and undetected faults.
    """
    if circuit.is_sequential():
        raise CircuitError(
            "fault_coverage handles combinational circuits only")
    stim = random_stimulus(circuit, num_vectors,
                           rng=np.random.default_rng(seed))
    golden = simulate_words(circuit, stim, num_vectors)
    watch = outputs or list(circuit.outputs)

    fault_list = list(faults) if faults is not None else (
        enumerate_faults(circuit))
    detected = 0
    undetected: List[StuckAtFault] = []
    for fault in fault_list:
        out = simulate_with_fault(circuit, fault, stim, num_vectors)
        if any(out[name][bit] != golden[name][bit]
               for name in watch
               for bit in range(len(golden[name]))):
            detected += 1
        else:
            undetected.append(fault)
    return FaultReport(len(fault_list), detected, undetected)
