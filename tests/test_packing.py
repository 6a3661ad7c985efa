"""Property tests for the Kronecker packing behind the GF sweep, the
cubic-inequality sweep and the class-sum DP (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qcatalan.immanant import _class_sums, _inequality_sweep, _packed, inequality_332
from qcatalan.qpoly import ZERO, QPoly, _convolve, _pack, _unpack, _width
from qcatalan.symchar import partitions_of

from oracles import class_sums_by_permutation


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
    assert _unpack(_pack(coeffs, bits), bits).coeffs == QPoly(coeffs).coeffs


coefficient_lists = st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=25)


@given(coefficient_lists, coefficient_lists)
def test_packed_product_unpacks_to_the_convolution(a, b):
    bound = sum(map(abs, a)) * sum(map(abs, b))
    bits = _width(bound)
    product = _unpack(_pack(a, bits) * _pack(b, bits), bits)
    assert product.coeffs == QPoly(_convolve(a, b)).coeffs


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


# signed entries of unequal degrees, with coefficients past 2**64
grid_coefficients = st.one_of(
    st.integers(-3, 3), st.sampled_from([2**64 + 1, -(2**65) - 3])
)
grid_entries = st.lists(grid_coefficients, max_size=3).map(QPoly)


@st.composite
def signed_grids(draw):
    """An n x n grid, n = 0..6, with up to two zero rows and two zero columns."""
    n = draw(st.integers(0, 6))
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    return [
        [ZERO if i in zero_rows or j in zero_cols else draw(grid_entries) for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(signed_grids())
def test_packed_class_sums_match_the_permutation_oracle(grid):
    n = len(grid)
    cells, bits = _packed(grid, n)
    want = class_sums_by_permutation(grid)
    got = [_unpack(value, bits) for value in _class_sums(cells)]
    assert got == [want.get(mu, ZERO) for mu in partitions_of(n)]
