"""Ring-axiom properties of ``QPoly`` arithmetic (needs hypothesis).

The ring operations build their results without re-checking coefficients,
so every result is checked here to be canonical: a tuple of exact ints with
no trailing zeros, equal to ``QPoly`` built from its own coefficients.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qcatalan.qpoly import ZERO, QPoly

coefficients = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([0, 1, -1]))
polys = st.lists(coefficients, max_size=6).map(QPoly)
ints = st.integers(-(2**70), 2**70)


def assert_canonical(p: QPoly) -> None:
    assert type(p.coeffs) is tuple
    assert all(type(c) is int for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    assert p.coeffs == QPoly(list(p.coeffs)).coeffs


@given(polys, polys, ints)
def test_every_ring_result_is_canonical(p, r, n):
    # twin shares p's top coefficients, so p - twin and twin + (-p) must strip
    twin = p + n
    results = [p + r, p - r, -p, p * r, p + (-p), p - p, p - twin, twin + (-p)]
    results += [p + n, n + p, p - n, n - p, p * n, n * p]
    for result in results:
        assert_canonical(result)


@given(polys, polys)
def test_commutativity(p, r):
    assert p + r == r + p
    assert p * r == r * p


@given(polys, polys, polys)
def test_associativity(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)


@given(polys, polys, polys)
def test_distributivity(p, r, s):
    assert p * (r + s) == p * r + p * s
    assert (r - s) * p == r * p - s * p


@given(polys, polys, ints)
def test_subtraction_is_adding_the_negation(p, r, n):
    assert p - p == ZERO
    assert p - r == p + (-r)
    assert -(-p) == p
    assert n - p == QPoly([n]) + (-p)


@given(polys)
def test_bools_and_floats_are_still_rejected(p):
    for bad in (True, False, 1.0, 0.5):
        with pytest.raises(TypeError):
            QPoly([1, bad])
        with pytest.raises(TypeError):
            p + bad
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad - p
