"""Property tests for the Kronecker packing behind the GF sweep and the
cubic-inequality sweep (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qcatalan.immanant import _inequality_sweep, inequality_332
from qcatalan.qpoly import QPoly, _convolve, _pack, _unpack


@st.composite
def signed_digits(draw):
    """A digit width (a multiple of 8) and coefficients that fit it."""
    bits = 8 * draw(st.integers(1, 12))
    edge = (1 << (bits - 1)) - 1
    digit = st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge, 0]))
    return bits, draw(st.lists(digit, max_size=40))


@given(signed_digits())
def test_unpack_inverts_pack(case):
    bits, coeffs = case
    assert _unpack(_pack(coeffs, bits), bits) == list(QPoly(coeffs).coeffs)


coefficient_lists = st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=25)


@given(coefficient_lists, coefficient_lists)
def test_packed_product_unpacks_to_the_convolution(a, b):
    bound = sum(map(abs, a)) * sum(map(abs, b))
    bits = 8 * (bound.bit_length() // 8 + 1)
    product = _unpack(_pack(a, bits) * _pack(b, bits), bits)
    assert product == list(QPoly(_convolve(a, b)).coeffs)


# signed, with zero polynomials, unequal degrees and coefficients past 2**64
sweep_coefficients = st.one_of(
    st.integers(-(2**70), 2**70), st.sampled_from([0, 2**64 + 1, -(2**65) - 3])
)
sweep_terms = st.lists(sweep_coefficients, max_size=5).map(QPoly)


@st.composite
def sweep_inputs(draw):
    top = draw(st.integers(2, 7))
    return top, draw(st.lists(sweep_terms, min_size=2 * top + 1, max_size=2 * top + 1))


@given(sweep_inputs())
def test_inequality_sweep_matches_inequality_332(case):
    top, a = case
    got = _inequality_sweep(a, top)
    triples = [
        (i, j, k)
        for i in range(top + 1)
        for j in range(i + 1, top + 1)
        for k in range(j + 1, top + 1)
    ]
    assert got == [(t, inequality_332(a, *t)) for t in triples]
    for _, value in got:
        assert all(type(c) is int for c in value.coeffs)
        assert value.coeffs == QPoly(list(value.coeffs)).coeffs
