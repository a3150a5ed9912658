"""Seeded operand generation and the benchmark's own addition oracle.

Every input the benchmark sends is made here, from ``--seed``, with
numpy, before any timing starts.  Nothing is taken from the program's
own load generators (``repro.service.loadgen``, ``repro.verify.vectors``),
so a change to those cannot change what the benchmark measures.

The oracle is independent of the program as well: exact sums and
carry-outs come from uint64 wrap-around arithmetic, and the ACA
detector flag (a run of at least ``window`` propagate bits anywhere in
the word) is recomputed here, so the reported VLSA latency of every
answered addition can be checked exactly, not just statistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

WIDTH = 64
WINDOW = 18  # the ACA family's default window at 64 bits
RECOVERY = 1
MASK = (1 << WIDTH) - 1
#: ``0111...1 + 1``: a full-width propagate chain fed by a generate at
#: bit 0, the worst case for a speculative adder.
CHAIN = (MASK >> 1, 1)


def uniform_words(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform 64-bit words."""
    return rng.integers(0, MASK, size=shape, dtype=np.uint64,
                        endpoint=True)


def has_run(p: np.ndarray, k: int) -> np.ndarray:
    """True where the word *p* holds at least *k* consecutive one bits."""
    x = p.copy()
    have = 1
    while have < k:
        step = min(have, k - have)
        x &= x >> np.uint64(step)
        have += step
    return x != 0


@dataclass
class Expected:
    """What a correct VLSA must answer for one ``(n, 2)`` operand array."""

    sums: List[int]
    couts: List[int]
    flags: np.ndarray  # detector fires (the addition takes 1 + RECOVERY)

    @property
    def cycles(self) -> int:
        return len(self.sums) + RECOVERY * int(self.flags.sum())


def expected(arr: np.ndarray) -> Expected:
    a, b = arr[:, 0], arr[:, 1]
    s = a + b  # uint64 wrap-around is addition mod 2^64
    return Expected(sums=s.tolist(), couts=(s < a).astype(np.uint64).tolist(),
                    flags=has_run(a ^ b, WINDOW))


def as_pairs(arr: np.ndarray) -> List[Tuple[int, int]]:
    """Python ``(a, b)`` tuples, the form a client hands the service."""
    return [tuple(p) for p in arr.tolist()]


def mixed_words(rng: np.random.Generator, n: int,
                chain_share: float = 0.1) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform pairs with a *chain_share* of :data:`CHAIN` pairs mixed in.

    Returns the ``(n, 2)`` array and the mask of chain rows.
    """
    arr = uniform_words(rng, (n, 2))
    chain = rng.random(n) < chain_share
    arr[chain] = np.array(CHAIN, dtype=np.uint64)
    return arr, chain


# -- the verify workload's four streams --------------------------------
VERIFY_STREAMS = ("uniform", "biased", "adversarial", "boundary")


def _biased(rng: np.random.Generator, n: int) -> np.ndarray:
    # OR of two uniform words: each bit is one with probability 3/4,
    # so propagate runs are longer than under the uniform model.
    return uniform_words(rng, (n, 2)) | uniform_words(rng, (n, 2))


def _adversarial(rng: np.random.Generator, n: int) -> np.ndarray:
    # A forced run of WINDOW propagate bits at a random position, with a
    # generate right below it, so the detector fires on every pair and
    # the speculative sum is wrong whenever the run is not at bit 0.
    a = uniform_words(rng, n)
    p = uniform_words(rng, n)
    start = rng.integers(0, WIDTH - WINDOW + 1, size=n).astype(np.uint64)
    p |= np.uint64((1 << WINDOW) - 1) << start
    b = a ^ p
    below = start > 0
    gen = np.where(below, np.uint64(1) << (start - np.uint64(1)),
                   np.uint64(0))
    return np.stack([a | gen, b | gen], axis=1)


def _boundary(n: int) -> np.ndarray:
    pats = {0, 1, MASK, MASK >> 1, MASK ^ 1, 1 << (WIDTH - 1),
            int("01" * (WIDTH // 2), 2), int("10" * (WIDTH // 2), 2)}
    for k in (1, 2, WINDOW - 1, WINDOW, WINDOW + 1, WIDTH // 2, WIDTH - 1):
        run = (1 << k) - 1
        pats |= {run, (run << (WIDTH - k)) & MASK, MASK ^ run}
    pats = np.array(sorted(pats), dtype=np.uint64)
    grid = np.stack(np.meshgrid(pats, pats, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, 2)
    return np.resize(grid, (n, 2))


def verify_stream(name: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if name == "uniform":
        return uniform_words(rng, (n, 2))
    if name == "biased":
        return _biased(rng, n)
    if name == "adversarial":
        return _adversarial(rng, n)
    if name == "boundary":
        return _boundary(n)
    raise ValueError(f"unknown stream {name!r}")
