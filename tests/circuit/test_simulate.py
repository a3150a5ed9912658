"""Simulation engine: scalar words, numpy vectors, helpers, errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.circuit import (
    Circuit,
    CircuitError,
    bus_to_int,
    int_to_bus,
    random_stimulus,
    simulate,
    simulate_bus_ints,
    simulate_interpreted,
    simulate_words,
)
from repro.core import build_aca


def _full_adder():
    c = Circuit("fa")
    a, b, ci = c.add_input("a"), c.add_input("b"), c.add_input("cin")
    p = c.add_gate("XOR", a, b)
    c.set_output("s", c.add_gate("XOR", p, ci))
    c.set_output("co", c.add_gate("MAJ3", a, b, ci))
    return c


def test_int_bus_round_trip():
    assert int_to_bus(0b1011, 4) == [1, 1, 0, 1]
    assert bus_to_int([1, 1, 0, 1]) == 0b1011
    assert bus_to_int(int_to_bus(12345, 20)) == 12345


def test_full_adder_exhaustive_single_vector():
    c = _full_adder()
    for a in (0, 1):
        for b in (0, 1):
            for ci in (0, 1):
                out = simulate_bus_ints(c, {"a": a, "b": b, "cin": ci})
                assert out["s"] == (a + b + ci) & 1
                assert out["co"] == (a + b + ci) >> 1


def test_bit_parallel_words_pack_vectors():
    """All 8 full-adder input combinations evaluated in one packed word."""
    c = _full_adder()
    a_w = b_w = ci_w = 0
    for j in range(8):
        a_w |= ((j >> 0) & 1) << j
        b_w |= ((j >> 1) & 1) << j
        ci_w |= ((j >> 2) & 1) << j
    out = simulate_words(c, {"a": [a_w], "b": [b_w], "cin": [ci_w]},
                         num_vectors=8)
    for j in range(8):
        a, b, ci = j & 1, (j >> 1) & 1, (j >> 2) & 1
        assert (out["s"][0] >> j) & 1 == (a + b + ci) & 1
        assert (out["co"][0] >> j) & 1 == (a + b + ci) >> 1


def test_numpy_vector_mode():
    c = _full_adder()
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2 ** 32, size=100, dtype=np.uint64)
    b = rng.integers(0, 2 ** 32, size=100, dtype=np.uint64)
    ci = rng.integers(0, 2 ** 32, size=100, dtype=np.uint64)
    out = simulate(c, {"a": [a], "b": [b], "cin": [ci]})
    expected_s = a ^ b ^ ci
    expected_co = (a & b) | (a & ci) | (b & ci)
    assert np.array_equal(out["s"][0], expected_s)
    assert np.array_equal(out["co"][0], expected_co)


def _gate_mix():
    """Every gate op the compiler lowers, constants and NOT fusion included."""
    c = Circuit("mix")
    a, b, d = c.add_input("a"), c.add_input("b"), c.add_input("d")
    x = c.add_gate("NAND", a, b)
    c.set_output("y", c.add_gate("NOT", c.add_gate("AO21", x, d, a)))
    c.set_output("z", c.add_gate("MUX2", a, c.add_gate("XNOR", b, d),
                                 c.add_gate("OR", a, b, d, c.const(1))))
    c.set_output("w", c.add_gate("OA21", c.add_gate("NOR", a, d),
                                 c.add_gate("MAJ3", a, b, d), c.const(0)))
    return c


_ARRAY_CIRCUITS = (_full_adder(), _gate_mix(), build_aca(8, 3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ARRAY_CIRCUITS),
       st.sampled_from((np.uint8, np.uint16, np.uint32, np.uint64)),
       hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
       st.data())
def test_array_mode_matches_interpreter(circuit, dtype, shape, data):
    # Byte counts here are mostly not multiples of 8 (e.g. uint8 (3,)).
    words = hnp.arrays(dtype, shape)
    stim = {name: [data.draw(words) for _ in bus]
            for name, bus in circuit.inputs.items()}
    got = simulate(circuit, stim)
    want = simulate_interpreted(circuit, stim)
    assert got.keys() == want.keys()
    for name in want:
        for g, w in zip(got[name], want[name]):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)


@pytest.mark.parametrize("odd", [np.zeros(4, np.uint32),
                                 np.zeros(3, np.uint64)])
def test_array_mode_rejects_mixed_dtypes_and_shapes(odd):
    ok = np.zeros(4, np.uint64)
    with pytest.raises(CircuitError, match="mixed"):
        simulate(_full_adder(), {"a": [ok], "b": [ok], "cin": [odd]})


def test_constants_in_simulation():
    c = Circuit("t")
    a = c.add_input("a")
    c.set_output("y", c.add_gate("XOR", a, c.const(1)))
    c.set_output("zero", c.const(0))
    out = simulate_words(c, {"a": [0b01]}, num_vectors=2)
    assert out["y"][0] == 0b10
    assert out["zero"][0] == 0


def test_missing_stimulus_raises():
    c = _full_adder()
    with pytest.raises(CircuitError):
        simulate_words(c, {"a": [1], "b": [1]}, num_vectors=1)


def test_wrong_bus_width_raises():
    c = Circuit("t")
    c.add_input_bus("a", 3)
    c.set_output("y", c.inputs["a"][0])
    with pytest.raises(CircuitError):
        simulate_words(c, {"a": [1, 1]}, num_vectors=1)


def test_num_vectors_required_for_ints():
    c = _full_adder()
    with pytest.raises(CircuitError):
        simulate(c, {"a": [1], "b": [1], "cin": [0]})
    with pytest.raises(CircuitError):
        simulate(c, {"a": [1], "b": [1], "cin": [0]}, num_vectors=0)


def test_random_stimulus_shape_and_range():
    c = Circuit("t")
    c.add_input_bus("a", 65)  # force multi-chunk word generation
    c.add_input("b")
    c.set_output("y", c.inputs["a"][0])
    stim = random_stimulus(c, num_vectors=100, rng=np.random.default_rng(1))
    assert len(stim["a"]) == 65
    assert len(stim["b"]) == 1
    for word in stim["a"]:
        assert 0 <= word < (1 << 100)
    out = simulate_words(c, stim, num_vectors=100)
    assert out["y"][0] == stim["a"][0]


def test_int_to_bus_width_edge_cases():
    assert int_to_bus(1, 1) == [1]
    assert int_to_bus(0, 1) == [0]
    assert int_to_bus(5, 0) == []  # zero-width bus
    # MSB set: highest word carries the sign-position bit.
    assert int_to_bus(1 << 7, 8) == [0] * 7 + [1]
    # Value wider than the bus: high bits truncate away.
    assert int_to_bus(0b1_0110, 4) == [0, 1, 1, 0]
    assert int_to_bus((1 << 200) | 0b11, 2) == [1, 1]
    # Negative values contribute their two's-complement pattern.
    assert int_to_bus(-1, 4) == [1, 1, 1, 1]


def test_bus_to_int_edge_cases():
    assert bus_to_int([]) == 0
    assert bus_to_int([1]) == 1
    assert bus_to_int([0] * 63 + [1]) == 1 << 63
    # Only bit 0 of each word is read (words may be packed vectors).
    assert bus_to_int([0b10, 0b11]) == 0b10
    assert bus_to_int(int_to_bus(1 << 64, 65)) == 1 << 64


def test_int_bus_round_trip_wide_random():
    rng = np.random.default_rng(2)
    for width in (1, 2, 63, 64, 65, 1000):
        value = int.from_bytes(rng.bytes((width + 7) // 8), "little") & (
            (1 << width) - 1)
        assert bus_to_int(int_to_bus(value, width)) == value
