"""Property tests for the Kronecker packing behind the GF sweep, the
cubic-inequality sweep and the class-sum DP (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from qcatalan.immanant import _class_sum_width, _inequality_sweep, immanant, inequality_332
from qcatalan.qpoly import ZERO, QPoly, _convolve, _nonnegative, _pack, _unpack, _width
from qcatalan.symchar import character, partitions_of

from oracles import class_sums_by_permutation, class_sums_by_plan


@st.composite
def signed_digits(draw):
    """A digit width (a multiple of 8) and coefficients that fit it."""
    bits = 8 * draw(st.integers(1, 12))
    edge = (1 << (bits - 1)) - 1
    digit = st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge, 0]))
    return bits, draw(st.lists(digit, max_size=40))


@settings(deadline=None)
@given(signed_digits())
def test_unpack_inverts_pack(case):
    bits, coeffs = case
    assert _unpack(_pack(coeffs, bits), bits).coeffs == QPoly(coeffs).coeffs


@settings(deadline=None)
@given(st.integers(1, 64), st.data())
def test_unpack_inverts_pack_at_every_byte_width(width, data):
    # 8 to 512 bits, with digits on both sides of the machine word's range
    bits = 8 * width
    edge = (1 << (bits - 1)) - 1
    edges = [x for x in (2**63 - 1, -(2**63), 2**63, -(2**63) - 1) if abs(x) <= edge]
    digit = st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge, 0, *edges]))
    coeffs = data.draw(st.lists(digit, max_size=40))
    assert _unpack(_pack(coeffs, bits), bits).coeffs == QPoly(coeffs).coeffs


@pytest.mark.parametrize("bits", [72, 80, 96, 128])
@settings(deadline=None)
@given(st.data())
def test_wide_digits_round_trip(bits, data):
    # digits past 64 bits are read as signed machine words when they all
    # fit one, else as byte strings: these values sit at the word's edges
    edge = (1 << (bits - 1)) - 1
    halves = [1, -1, 2**63 - 1, 2**63, -(2**63), 2**64 - 1, 2**64, -(2**64)]
    digit = st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge, 0, *halves]))
    coeffs = data.draw(st.lists(digit, max_size=40))
    top_zeros = [0] * data.draw(st.integers(0, 3))
    for value in (coeffs, coeffs + top_zeros, []):
        assert _unpack(_pack(value, bits), bits).coeffs == QPoly(value).coeffs


@settings(deadline=None)
@given(st.integers(1, 64), st.data())
def test_packed_verdict_matches_the_decoded_one(width, data):
    # 8 to 512 bits: the packed verdict is the decoded polynomial's
    bits = 8 * width
    edge = (1 << (bits - 1)) - 1
    digit = st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge, 0, 1, -1]))
    value = _pack(data.draw(st.lists(digit, max_size=40)), bits)
    assert _nonnegative(value, bits) == _unpack(value, bits).is_q_nonnegative()


@pytest.mark.parametrize("bits", [8, 16, 32, 64, 72, 128, 512])
def test_packed_verdict_at_its_edges(bits):
    edge = (1 << (bits - 1)) - 1
    cases = {
        (): True,
        (-1, 0, 0, edge): False,  # a lone -1 under a large top digit
        (0, 5, -3): False,  # a negative top digit
        (edge,) * 5: True,
        (-edge,) * 5: False,
        (edge, -edge) * 3: False,
        (-edge, edge) * 3: False,
        (3, 0, 0, 0, 0, 0, 0, 0, 1): True,
    }
    for coeffs, want in cases.items():
        value = _pack(coeffs, bits)
        assert _nonnegative(value, bits) is want, coeffs
        assert _unpack(value, bits).is_q_nonnegative() is want, coeffs
    # the lone -1 leaves the value positive, the negative top digit makes it negative
    assert _pack((0, 5, -3), bits) < 0 < _pack((-1, 0, 0, edge), bits)


@settings(deadline=None)
@given(st.integers(1, 64), st.integers(max_value=-1))
def test_every_negative_packed_value_is_not_q_nonnegative(width, value):
    assert not _nonnegative(value, 8 * width)


# bounds on both sides of 2**63, where decoding leaves machine integers
width_bounds = st.one_of(
    st.integers(0, 2**100),
    st.sampled_from([2**7 - 1, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**71 - 1, 2**71]),
)


@settings(deadline=None)
@given(width_bounds, st.data())
def test_width_holds_every_coefficient_up_to_its_bound(bound, data):
    bits = _width(bound)
    assert bits % 8 == 0 and bound < 2 ** (bits - 1)
    if bits > 64:  # past the machine widths, the least multiple of 8
        assert bound >= 2 ** (bits - 9)
    else:
        assert bits in (8, 16, 32, 64)
    digit = st.one_of(st.integers(-bound, bound), st.sampled_from([bound, -bound, 0]))
    coeffs = data.draw(st.lists(digit, max_size=30))
    assert _unpack(_pack(coeffs, bits), bits).coeffs == QPoly(coeffs).coeffs


coefficient_lists = st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=25)


@settings(deadline=None)
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


@settings(deadline=None)
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
@example([[QPoly([1])]])  # the smallest grid with a cycle, checked on every run
def test_packed_class_sums_match_the_permutation_oracle(grid):
    n = len(grid)
    bits = _class_sum_width(grid, n)
    cells = [[_pack(cell.coeffs, bits) for cell in row] for row in grid]
    want = class_sums_by_permutation(grid)
    got = [_unpack(value, bits) for value in class_sums_by_plan(cells)]
    assert got == [want.get(mu, ZERO) for mu in partitions_of(n)]


@settings(max_examples=60, deadline=None)
@given(signed_grids())
@example([])  # n = 0: the empty product, 1
@example([[ZERO, QPoly([1])], [ZERO, QPoly([2**64 + 1, -1])]])  # a dead support
def test_immanant_holds_every_coefficient_within_its_class_sum_bound(grid):
    # N_mu, the class sums of the entries' l1 norms, bound the class sums'
    # norms, so every coefficient of the lam-immanant is at most
    # sum |chi^lam(mu)| N_mu: the bound immanant()'s width holds
    n = len(grid)
    sums = class_sums_by_permutation(grid)
    norms = class_sums_by_permutation(
        [[QPoly([sum(map(abs, cell.coeffs))]) for cell in row] for row in grid]
    )
    shapes = partitions_of(n)
    for lam in shapes:
        chi = [character(lam, mu) for mu in shapes]
        value = immanant(grid, lam)
        want = sum((c * sums.get(mu, ZERO) for c, mu in zip(chi, shapes)), ZERO)
        assert value == want
        bound = sum(abs(c) * sum(norms.get(mu, ZERO).coeffs) for c, mu in zip(chi, shapes))
        assert all(abs(c) <= bound for c in value.coeffs), lam
