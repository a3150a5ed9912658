"""Fast bit-slice packing/unpacking between vector and word domains.

The engine moves data between two representations:

* **per-vector integers** — one Python int per test vector (what
  reference models and ATPG vectors use);
* **packed big-int words** — one Python int per *bit column*, bit ``j``
  of the word carrying vector ``j`` (the engine's native form).

The legacy code transposed these layouts with nested Python loops —
O(vectors x width) interpreter iterations per call, the hidden hot spot
of the validate/ATPG/testbench paths.  Here every transpose runs through
``numpy.packbits``/``unpackbits`` (C loops over bytes).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "pack_vectors",
    "unpack_vectors",
    "random_word",
]


def pack_vectors(values: Sequence[int], width: int) -> List[int]:
    """Transpose per-vector integers into per-bit packed words.

    Args:
        values: One integer per test vector (masked to *width* bits).
        width: Bit width of each value.

    Returns:
        ``width`` packed words, LSB column first; bit ``j`` of word ``i``
        is bit ``i`` of ``values[j]``.
    """
    count = len(values)
    if count == 0 or width <= 0:
        return [0] * max(width, 0)
    mask = (1 << width) - 1
    # One binary-string render per vector (C code), then a byte-matrix
    # transpose via packbits.
    mat = np.empty((count, width), dtype=np.uint8)
    for j, v in enumerate(values):
        bits = format(int(v) & mask, f"0{width}b").encode()
        mat[j] = np.frombuffer(bits, dtype=np.uint8)[::-1] - ord("0")
    packed = np.packbits(mat, axis=0, bitorder="little")
    return [int.from_bytes(packed[:, bit].tobytes(), "little")
            for bit in range(width)]


def unpack_vectors(words: Sequence[int], count: int) -> List[int]:
    """Inverse of :func:`pack_vectors`: per-bit words to per-vector ints.

    Args:
        words: Packed words, LSB column first.
        count: Number of test vectors packed in each word.

    Returns:
        ``count`` integers; bit ``i`` of integer ``j`` is bit ``j`` of
        ``words[i]``.
    """
    width = len(words)
    if width == 0 or count <= 0:
        return [0] * max(count, 0)
    nbytes = (count + 7) // 8
    mask = (1 << count) - 1
    cols = np.empty((nbytes, width), dtype=np.uint8)
    for bit, w in enumerate(words):
        cols[:, bit] = np.frombuffer(
            (int(w) & mask).to_bytes(nbytes, "little"), dtype=np.uint8)
    mat = np.unpackbits(cols, axis=0, bitorder="little",
                        count=count)  # (count, width)
    # Pad the MSB side to a byte multiple so packbits keeps bit weights.
    pad = (-width) % 8
    if pad:
        mat = np.concatenate(
            [np.zeros((count, pad), dtype=np.uint8), mat[:, ::-1]], axis=1)
    else:
        mat = mat[:, ::-1]
    rows = np.packbits(mat, axis=1)
    return [int.from_bytes(rows[j].tobytes(), "big") for j in range(count)]


def random_word(rng: np.random.Generator, num_vectors: int) -> int:
    """A uniform *num_vectors*-bit packed word in one bulk draw.

    Replaces the historical 62-bit-chunk Python loop (which made
    million-vector stimulus generation slower than the simulation it
    fed) with a single ``Generator.bytes`` call.
    """
    if num_vectors <= 0:
        raise ValueError("num_vectors must be positive")
    nbytes = (num_vectors + 7) // 8
    raw = rng.bytes(nbytes)
    return int.from_bytes(raw, "little") & ((1 << num_vectors) - 1)

