"""Unit tests for the exact polynomial ring."""

import random
import sys
from array import array

import pytest

from qcatalan import qpoly
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
    with pytest.raises(TypeError):  # only ints coerce, and str has no __rsub__
        QPoly([1]) - "q"


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
    assert str(QPoly([1])) == "1"
    assert str(QPoly([-1])) == "-1"
    assert str(QPoly([0, -1])) == "-q"
    assert str(QPoly([-1, 0, -1])) == "-1-q^2"
    assert str(QPoly([0, 0, 1, -1])) == "q^2-q^3"
    assert str(QPoly([0, 10**20])) == "100000000000000000000q"


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
    # not a QPoly: __eq__ returns NotImplemented, and Python compares identities
    assert (QPoly([1]) == 1) is False
    assert (QPoly([1]) != "1") is True


def test_pack_unpack_round_trip_at_the_digit_edges():
    # 8, 16, 32 and 64 bits decode as machine integers; wider digits in
    # [-2**63, 2**63) as machine words, the rest (and all of 24 and 40 bits)
    # as byte strings
    for bits in (8, 16, 24, 32, 40, 64, 72, 80, 88, 96, 128, 136):
        edge = (1 << (bits - 1)) - 1
        for coeffs in (
            [],
            [0],
            [0, 0],
            [edge],
            [-edge],
            [edge, -edge, 0, edge],
            [-edge, 0, 0, -1],
            [1, -1] * 20 + [edge],
            [0, 0, -edge],
            [-edge, edge, 0, 0],
        ):
            packed = _pack(coeffs, bits)
            assert packed == QPoly(coeffs).eval_int(1 << bits)
            assert _unpack(packed, bits).coeffs == QPoly(coeffs).coeffs, (bits, coeffs)


WIDE_BITS = (72, 80, 96, 128, 136, 160, 480)
# the digits on either side of the signed machine word's range
WORD_EDGES = (2**63 - 1, -(2**63), 2**63, -(2**63) - 1)


def _word_edge_cases(count):
    """Digit lists of length ``count`` with a nonzero top, built on ``WORD_EDGES``."""
    for word in WORD_EDGES:
        yield [word] * count
        yield [1] * (count - 1) + [word]  # the top digit alone may not fit
        yield [word] + [-1] * (count - 1)  # the lowest digit alone may not fit
        yield [word if i % 3 == 0 else 0 for i in range(count - 1)] + [-word]


@pytest.mark.parametrize("bits", WIDE_BITS)
def test_wide_digits_round_trip_at_the_machine_word_edges(bits):
    # counts 1-17 cross every power of two up to 32, where the cached
    # masks, offsets and formats change size and are cut to the count
    edge = (1 << (bits - 1)) - 1
    for count in range(1, 18):
        cases = [*_word_edge_cases(count), [edge] * count, [-edge, *[0] * (count - 2), edge][-count:]]
        for coeffs in cases:
            assert _unpack(_pack(coeffs, bits), bits).coeffs == tuple(coeffs), (bits, coeffs)


def test_wide_digits_that_fit_a_word_skip_the_byte_strings(monkeypatch):
    # when every digit is in [-2**63, 2**63), one struct call reads them all
    monkeypatch.setattr(qpoly, "_chunks", None)
    for bits in WIDE_BITS:
        for count in (1, 2, 3, 4, 8, 17):
            for coeffs in (
                [2**63 - 1] * count,
                [-(2**63)] * count,
                [-1, *[0] * (count - 2), 2**63 - 1][-count:],
                [1] * (count - 1) + [-(2**63)],
            ):
                assert _unpack(_pack(coeffs, bits), bits).coeffs == tuple(coeffs), (bits, coeffs)


def test_decode_caches_hold_one_entry_per_power_of_two_count():
    # keyed by the exact digit count, a triangle's rows would each cache
    # their own masks and formats
    caches = (qpoly._offset, qpoly._words, qpoly._chunks)
    for cached in caches:
        cached.cache_clear()
    for widths, bits in enumerate((80, 480), 1):
        for count in range(1, 301):
            for top in (2**63 - 1, 2**70):  # a machine-word decode, then a byte-string one
                coeffs = [-1] * (count - 1) + [top]
                assert _unpack(_pack(coeffs, bits), bits).coeffs == tuple(coeffs)
        for cached in caches:
            # counts 1-300 round up to 1, 2, 4, ..., 512
            assert cached.cache_info().currsize <= 10 * widths, (cached, bits)


def test_unpack_of_zero_is_the_zero_singleton():
    # equal values of a sweep share one object, and a zero one is ZERO itself
    for bits in (8, 16, 24, 32, 64, 72, 88, 128, 136):
        assert _unpack(0, bits) is ZERO, bits
        assert _unpack(_pack([0, 0, 0], bits), bits) is ZERO, bits


class _SwappedArray(array):
    """An ``array`` that reads its bytes as a host of the other byte order would."""

    def __new__(cls, typecode, data):
        machine = super().__new__(cls, typecode, data)
        machine.byteswap()
        return machine


@pytest.mark.parametrize("host", ["little", "big"])
def test_unpack_on_either_byte_order(host, monkeypatch):
    # the byte order this host lacks is simulated: its machine integers read
    # each digit's bytes reversed
    if host != sys.byteorder:
        monkeypatch.setattr(qpoly, "array", _SwappedArray)
        monkeypatch.setattr(sys, "byteorder", host)
    for bits in (8, 16, 32, 64, 72, 136):
        edge = (1 << (bits - 1)) - 1
        for coeffs in ([edge, -edge, 0, 1], [-1, 2, -3, 0, 0, min(258, edge)], [0, -edge]):
            assert _unpack(_pack(coeffs, bits), bits).coeffs == tuple(coeffs), (bits, coeffs)


def test_width_is_the_smallest_machine_integer_then_byte_multiple_above_the_bound():
    assert _width(0) == 8
    for bits, above in ((8, 16), (16, 32), (32, 64), (64, 72), (72, 80), (136, 144)):
        edge = (1 << (bits - 1)) - 1
        assert _width(edge) == bits
        assert _width(edge + 1) == above
        assert _unpack(_pack([edge, -edge], _width(edge)), bits).coeffs == (edge, -edge)
    # between the machine widths, the next one up
    assert _width(1 << 16) == 32
    assert _width(1 << 40) == 64


def test_packed_product_unpacks_to_the_convolution():
    a, b = [7, -3, 0, 255], [-128, 1, 127]
    bits = _width(sum(map(abs, a)) * sum(map(abs, b)))
    product = _unpack(_pack(a, bits) * _pack(b, bits), bits)
    assert product.coeffs == tuple(_convolve(a, b))
