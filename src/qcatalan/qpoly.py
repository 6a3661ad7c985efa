"""Dense univariate polynomials in q with exact integer coefficients.

The coefficient sequence is stored ascending: index i holds the coefficient
of q**i.  The stored form is canonical -- no trailing zeros -- so the zero
polynomial is the empty tuple and its degree is None.  Instances are
immutable, hashable, and every operation returns a canonical result.
``QPoly(...)`` checks every coefficient it is given; the ring operations
build their results with ``_canonical``, which trusts them, since exact ints
added or multiplied give exact ints.

A polynomial is called q-nonnegative when every coefficient is >= 0; the
partial order "p dominates r" used throughout the package is expressed as
``(p - r).is_q_nonnegative()``.
"""

from __future__ import annotations

from operator import neg
from typing import Iterable, Sequence, Union


class QPoly:
    """An integer-coefficient polynomial in the single variable q."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficient {c!r} is not an int")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_q_nonnegative(self) -> bool:
        """True when every coefficient is nonnegative."""
        return all(c >= 0 for c in self.coeffs)

    def eval_int(self, x: int) -> int:
        """Evaluate at an integer point by Horner's rule (exact)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other: Union["QPoly", int]) -> "QPoly | None":
        if isinstance(other, QPoly):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return QPoly((other,))
        return None

    def __add__(self, other: Union["QPoly", int]) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return _canonical(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return _canonical(tuple(map(neg, self.coeffs)))

    def __sub__(self, other: Union["QPoly", int]) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        out = list(a)
        out.extend([0] * (len(b) - len(a)))
        for i, c in enumerate(b):
            out[i] -= c
        while out and out[-1] == 0:
            out.pop()
        return _canonical(tuple(out))

    def __rsub__(self, other: Union["QPoly", int]) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: Union["QPoly", int]) -> "QPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return ZERO
        # the top coefficient is a product of two nonzero ints, so never 0
        return _canonical(tuple(_convolve(a, b)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {n!r}")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def exact_div(self, other: "QPoly") -> "QPoly":
        """Divide exactly by ``other`` in the integer polynomial ring.

        Raises ValueError when the quotient does not exist with integer
        coefficients (nonzero remainder or a leading-coefficient mismatch).
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        if len(rem) - 1 < dd:
            raise ValueError(f"{self} is not divisible by {other}")
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            if c % lead:
                raise ValueError(f"{self} is not divisible by {other}")
            f = c // lead
            quot[i - dd] = f
            for j in range(dd + 1):
                rem[i - dd + j] -= f * div[j]
        if any(rem):
            raise ValueError(f"{self} is not divisible by {other}")
        return QPoly(quot)

    # -- comparison / rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        """Canonical ascending rendering, e.g. ``1+4q+q^2`` or ``-1+q``."""
        if not self.coeffs:
            return "0"
        out = ""
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not out:
                out = ("-" if c < 0 else "") + body
            else:
                out += ("-" if c < 0 else "+") + body
        return out


def _canonical(coeffs: tuple[int, ...]) -> QPoly:
    """A ``QPoly`` holding ``coeffs`` as given, without checking them.

    For coefficients the package computed itself: a tuple of exact ints with
    no trailing zeros.  Outside input goes through ``QPoly(...)``.
    """
    p = object.__new__(QPoly)
    p.coeffs = coeffs
    return p


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two nonempty ascending coefficient sequences.

    The kernel of ``QPoly.__mul__``; the engines that multiply many
    polynomials pack them instead (``_pack``).
    """
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for k, cb in enumerate(b, i):
                out[k] += ca * cb
    return out


def _width(bound: int) -> int:
    """The least multiple of 8, bits, with bound < 2**(bits - 1): ``_unpack``'s width."""
    return 8 * (bound.bit_length() // 8 + 1)


def _pack(coeffs: Sequence[int], bits: int) -> int:
    """The integer p(2**bits) for the polynomial with ascending ``coeffs``.

    Exact for any integer coefficients: evaluation at 2**bits is a ring
    homomorphism, so sums and products of packed values pack the sums and
    products of the polynomials (Kronecker substitution).  ``_unpack``
    recovers the polynomial once each coefficient is below 2**(bits - 1) in
    absolute value.
    """
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value


def _unpack(value: int, bits: int) -> QPoly:
    """The ``QPoly`` whose coefficients are the signed base-2**bits digits of ``value``.

    The inverse of ``_pack`` for coefficients below 2**(bits - 1) in
    absolute value, with ``bits`` from ``_width``.  Adding 2**(bits - 1) to
    every digit makes them all lie in [1, 2**bits), so the digits are the
    byte slices of one shifted integer: linear in the size of ``value``.
    The digits are exact ints, so ``_canonical`` takes them unchecked.
    """
    width = bits // 8
    half = 1 << (bits - 1)
    # a degree-d value has at least bits*d bits, so this many digits suffice
    count = (abs(value).bit_length() + bits) // bits
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    data = (value + offset).to_bytes(width * count, "little")
    digits = [
        int.from_bytes(data[i : i + width], "little") - half
        for i in range(0, len(data), width)
    ]
    while digits and digits[-1] == 0:
        digits.pop()
    return _canonical(tuple(digits))


ZERO = QPoly()
ONE = QPoly((1,))
Q = QPoly((0, 1))
