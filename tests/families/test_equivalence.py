"""Exhaustive gate-level / functional / kernel equivalence per family.

The family contract (ISSUE acceptance): for every registered family the
full datapath circuit, the big-int functional model and the vectorised
numpy kernel agree bit-for-bit — speculative result, detector flag and
recovered output — over *every* operand pair at small widths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import execute_ints
from repro.families.base import family_names, get_family

from ..conftest import nightly

TIER1_WIDTHS = (2, 3, 4, 5)
NIGHTLY_WIDTHS = (6, 7, 8)


def _all_pairs(width):
    n = 1 << width
    a = [x for x in range(n) for _ in range(n)]
    b = list(range(n)) * n
    return a, b


def _check_family_exhaustive(name, width):
    fam = get_family(name)
    params = fam.resolve_params(width)
    model = fam.functional(width, **params)
    circuit = fam.build_circuit(width, **params)
    kernel = fam.numpy_kernel(width, **params)
    a_vals, b_vals = _all_pairs(width)
    out = execute_ints(circuit, {"a": a_vals, "b": b_vals})
    batch = None
    if kernel is not None:
        batch = kernel(np.asarray(a_vals, dtype=np.uint64),
                       np.asarray(b_vals, dtype=np.uint64))
    mask = (1 << width) - 1
    for i, (a, b) in enumerate(zip(a_vals, b_vals)):
        spec_sum, spec_cout = model.add(a, b)
        flag = model.flags_error(a, b)
        total = a + b
        # circuit vs functional model
        assert out["sum"][i] == spec_sum
        assert out["cout"][i] == spec_cout
        assert bool(out["err"][i]) == flag
        # recovered output is exact
        assert out["sum_exact"][i] == total & mask
        assert out["cout_exact"][i] == total >> width
        # wrong speculation implies a raised flag (no silent errors)
        if (spec_sum, spec_cout) != (total & mask, total >> width):
            assert flag
        # numpy kernel vs functional model
        if batch is not None:
            assert int(batch.spec_sums[i]) == spec_sum
            assert int(batch.spec_couts[i]) == spec_cout
            assert bool(batch.flags[i]) == flag
            assert int(batch.exact_sums[i]) == total & mask
            assert int(batch.exact_couts[i]) == total >> width
            assert bool(batch.spec_errors[i]) == (
                (spec_sum, spec_cout) != (total & mask, total >> width))


@pytest.mark.parametrize("width", TIER1_WIDTHS)
@pytest.mark.parametrize("name", family_names())
def test_exhaustive_equivalence(name, width):
    _check_family_exhaustive(name, width)


@nightly
@pytest.mark.parametrize("width", NIGHTLY_WIDTHS)
@pytest.mark.parametrize("name", family_names())
def test_exhaustive_equivalence_nightly(name, width):
    _check_family_exhaustive(name, width)


# ----------------------------------------------------------------------
# Property: recovery is exact for every family, width and knob setting.
# ----------------------------------------------------------------------
_CIRCUITS = {}


def _datapath(name, width, knob):
    key = (name, width, knob)
    if key not in _CIRCUITS:
        fam = get_family(name)
        params = fam.resolve_params(width, window=knob)
        _CIRCUITS[key] = fam.build_circuit(width, **params)
    return _CIRCUITS[key]


@settings(deadline=None, max_examples=60)
@given(data=st.data(),
       name=st.sampled_from(family_names()),
       width=st.sampled_from((4, 6, 9, 12)),
       knob=st.integers(min_value=1, max_value=12))
def test_recovered_output_always_exact(data, name, width, knob):
    circuit = _datapath(name, width, min(knob, width))
    mask = (1 << width) - 1
    a = data.draw(st.integers(min_value=0, max_value=mask))
    b = data.draw(st.integers(min_value=0, max_value=mask))
    out = execute_ints(circuit, {"a": [a], "b": [b]})
    total = a + b
    assert out["sum_exact"][0] == total & mask
    assert out["cout_exact"][0] == total >> width
    # The err output is the recovery trigger: whenever speculation was
    # wrong it must have fired.
    if out["sum"][0] != total & mask or out["cout"][0] != total >> width:
        assert out["err"][0] == 1
