"""Property tests for the Kronecker packing behind the GF sweep (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

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
