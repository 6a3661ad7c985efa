"""Unit tests for the exact polynomial ring."""

import random

import pytest

from qcatalan.qpoly import ONE, Q, ZERO, QPoly, _convolve, _pack, _unpack, _width

from oracles import random_qpoly


def test_canonical_trailing_zeros_stripped():
    assert QPoly([1, 4, 1, 0, 0]).coeffs == (1, 4, 1)
    assert QPoly([0, 0, 0]).coeffs == ()
    assert QPoly([]).coeffs == ()


def test_canonicalization_is_idempotent():
    p = QPoly([3, 0, 2, 0])
    assert QPoly(p.coeffs).coeffs == p.coeffs


def test_degree():
    assert QPoly([1, 4, 1]).degree == 2
    assert QPoly([5]).degree == 0
    assert ZERO.degree is None


def test_rejects_non_int_coefficients():
    with pytest.raises(TypeError):
        QPoly([1.5])
    with pytest.raises(TypeError):
        QPoly([True])


def test_constructors():
    assert ZERO == QPoly([]) == QPoly([0, 0])
    assert ONE == QPoly([1])
    assert Q == QPoly([0, 1])
    assert QPoly((-7,)) == QPoly([-7])


def test_addition_and_subtraction():
    assert QPoly([1, 2]) - QPoly([0, 1]) == QPoly([1, 1])  # (2q+1) - q = q+1
    assert QPoly([1]) + QPoly([0, 1]) == QPoly([1, 1])
    assert QPoly([1, 1]) - QPoly([1, 1]) == ZERO
    assert -QPoly([1, -2]) == QPoly([-1, 2])


def test_multiplication():
    assert Q * QPoly([1, 1]) == QPoly([0, 1, 1])  # q(q+1) = q + q^2
    assert QPoly([1, 1]) * QPoly([1, 1]) == QPoly([1, 2, 1])
    assert ZERO * QPoly([1, 2, 3]) == ZERO


def test_int_coercion():
    p = QPoly([1, 2])
    assert 2 * p == QPoly([2, 4])
    assert p * 3 == QPoly([3, 6])
    assert p + 1 == QPoly([2, 2])
    assert 1 - p == QPoly([0, -2])
    assert p - 1 == QPoly([0, 2])


def test_power():
    assert QPoly([1, 1]) ** 2 == QPoly([1, 2, 1])
    assert Q**3 == QPoly([0, 0, 0, 1])
    assert QPoly([2]) ** 0 == ONE
    with pytest.raises(ValueError):
        QPoly([1]) ** -1


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a = random_qpoly(rng, allow_negative=True)
        b = random_qpoly(rng, allow_negative=True)
        c = random_qpoly(rng, allow_negative=True)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_eval_int_is_a_ring_homomorphism():
    rng = random.Random(12)
    for _ in range(100):
        a = random_qpoly(rng, allow_negative=True)
        b = random_qpoly(rng, allow_negative=True)
        for x in (-2, -1, 0, 1, 3):
            assert (a + b).eval_int(x) == a.eval_int(x) + b.eval_int(x)
            assert (a * b).eval_int(x) == a.eval_int(x) * b.eval_int(x)


def test_eval_int_examples():
    assert QPoly([0, 1, 3, 1]).eval_int(1) == 5  # q+3q^2+q^3 at 1
    assert QPoly([1, 4, 1]).eval_int(1) == 6
    assert ZERO.eval_int(17) == 0


def test_is_q_nonnegative():
    assert QPoly([1, 4, 1]).is_q_nonnegative()
    assert ZERO.is_q_nonnegative()
    assert not QPoly([1, -3, 1]).is_q_nonnegative()
    assert not QPoly([-1]).is_q_nonnegative()


def test_q_nonnegativity_is_closed_under_sum_and_product():
    rng = random.Random(13)
    for _ in range(100):
        a = random_qpoly(rng)
        b = random_qpoly(rng)
        assert a.is_q_nonnegative() and b.is_q_nonnegative()
        assert (a + b).is_q_nonnegative()
        assert (a * b).is_q_nonnegative()


def test_exact_division_round_trip():
    rng = random.Random(13)
    for _ in range(100):
        p = random_qpoly(rng, allow_negative=True)
        d = random_qpoly(rng, allow_negative=True)
        if d.is_zero():
            continue
        assert (p * d).exact_div(d) == p


def test_exact_division_failures():
    with pytest.raises(ValueError):
        QPoly([1, 1]).exact_div(QPoly([2]))
    with pytest.raises(ValueError):
        QPoly([1, 1, 1]).exact_div(QPoly([0, 1]))
    with pytest.raises(ValueError):
        QPoly([1]).exact_div(QPoly([0, 1]))
    with pytest.raises(ZeroDivisionError):
        QPoly([1]).exact_div(ZERO)


def test_str_rendering():
    assert str(QPoly([1, 4, 1])) == "1+4q+q^2"
    assert str(QPoly([0, 1])) == "q"
    assert str(QPoly([])) == "0"
    assert str(QPoly([1, -3, 1])) == "1-3q+q^2"
    assert str(QPoly([-1, 1])) == "-1+q"
    assert str(QPoly([0, 2])) == "2q"
    assert str(QPoly([0, 0, -1])) == "-q^2"
    assert str(QPoly([5])) == "5"
    assert str(QPoly([0, 1, 1])) == "q+q^2"


def test_repr_is_reconstructible():
    p = QPoly([1, -2, 3])
    assert eval(repr(p)) == p


def test_json_round_trip():
    p = QPoly([1, 0, -2])
    assert QPoly(p.to_json()) == p
    assert QPoly([]) == ZERO
    with pytest.raises(TypeError):
        QPoly("q")


def test_hash_and_equality():
    assert hash(QPoly([1, 2])) == hash(QPoly([1, 2, 0]))
    assert {QPoly([1]): "a"}[QPoly([1, 0])] == "a"
    assert QPoly([1]) != QPoly([2])
    assert bool(QPoly([1])) and not bool(ZERO)


def test_pack_unpack_round_trip_at_the_digit_edges():
    for bits in (8, 16, 64, 136):
        edge = (1 << (bits - 1)) - 1
        for coeffs in (
            [],
            [0],
            [edge],
            [-edge],
            [edge, -edge, 0, edge],
            [-edge, 0, 0, -1],
            [1, -1] * 20 + [edge],
            [0, 0, -edge],
        ):
            packed = _pack(coeffs, bits)
            assert packed == QPoly(coeffs).eval_int(1 << bits)
            assert _unpack(packed, bits).coeffs == QPoly(coeffs).coeffs, (bits, coeffs)


def test_width_is_the_smallest_byte_multiple_above_the_bound():
    assert _width(0) == 8
    for bits in (8, 16, 64, 136):
        edge = (1 << (bits - 1)) - 1
        assert _width(edge) == bits
        assert _width(edge + 1) == bits + 8
        assert _unpack(_pack([edge, -edge], _width(edge)), bits).coeffs == (edge, -edge)


def test_packed_product_unpacks_to_the_convolution():
    a, b = [7, -3, 0, 255], [-128, 1, 127]
    bits = _width(sum(map(abs, a)) * sum(map(abs, b)))
    product = _unpack(_pack(a, bits) * _pack(b, bits), bits)
    assert product.coeffs == tuple(_convolve(a, b))
