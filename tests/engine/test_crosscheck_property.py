"""Property-based cross-check of every ACA implementation in the repo.

Three independent implementations of approximate (ACA) addition must
agree bit-for-bit on every input:

* the compiled engine,
* the legacy per-gate interpreter (``simulate_interpreted``),
* the functional fast model (``repro.mc.fastsim.AcaModel``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import simulate_interpreted
from repro.core import build_aca
from repro.engine import execute_ints
from repro.engine.functional import functional_model
from repro.engine.pack import pack_vectors, unpack_vectors


@st.composite
def aca_cases(draw):
    width = draw(st.integers(min_value=2, max_value=96))
    window = draw(st.integers(min_value=1, max_value=width))
    count = draw(st.integers(min_value=1, max_value=9))
    bound = (1 << width) - 1
    ints = st.lists(st.integers(0, bound), min_size=count, max_size=count)
    return width, window, {"a": draw(ints), "b": draw(ints)}


@settings(max_examples=40)
@given(aca_cases())
def test_every_backend_matches_interpreter_and_model(case):
    width, window, vectors = case
    circuit = build_aca(width, window)
    count = len(vectors["a"])

    # Reference 1: the legacy per-gate interpreter on packed words.
    stim = {name: pack_vectors(vals, width) for name, vals in vectors.items()}
    reference = {
        name: unpack_vectors(words, count)
        for name, words in simulate_interpreted(
            circuit, stim, num_vectors=count).items()
    }

    # Reference 2: the functional fast model used by the Monte Carlo layer.
    modeled = functional_model("aca", width=width, window=window).run_ints(
        vectors)
    assert modeled["sum"] == reference["sum"]
    assert modeled["cout"] == reference["cout"]

    # The compiled engine agrees bit-for-bit.
    out = execute_ints(circuit, vectors)
    assert out == reference, f"engine diverged at width={width}"
