"""Transposition and bulk-random helpers of repro.engine.pack."""

import numpy as np
import pytest

from repro.engine import pack


@pytest.mark.parametrize("width", [1, 7, 8, 63, 64, 65, 130])
@pytest.mark.parametrize("count", [1, 3, 64, 65])
def test_pack_unpack_roundtrip(width, count):
    rng = np.random.default_rng(width * 1000 + count)
    values = [int.from_bytes(rng.bytes((width + 7) // 8), "little")
              & ((1 << width) - 1) for _ in range(count)]
    words = pack.pack_vectors(values, width)
    assert len(words) == width
    assert pack.unpack_vectors(words, count) == values


def test_pack_masks_excess_bits():
    # A value wider than the bus contributes only its low bits.
    words = pack.pack_vectors([0b1111], 2)
    assert words == [1, 1]


def test_pack_matches_naive_definition():
    values = [0b101, 0b011, 0b110]
    words = pack.pack_vectors(values, 3)
    for bit in range(3):
        expect = 0
        for j, v in enumerate(values):
            expect |= ((v >> bit) & 1) << j
        assert words[bit] == expect


def test_random_word_bounds_and_determinism():
    a = pack.random_word(np.random.default_rng(5), 67)
    b = pack.random_word(np.random.default_rng(5), 67)
    assert a == b
    assert 0 <= a < (1 << 67)

