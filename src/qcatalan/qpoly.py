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

Engines that multiply many polynomials carry each one packed as a single
integer, its value at q = 2**bits (``_pack``, Kronecker substitution), and
decode the results with ``_unpack``, which reads every digit in C at any
width: as machine integers up to 64 bits, and past that as signed machine
words when every digit fits one, else as byte strings.  ``_nonnegative``
reads whether a packed value is q-nonnegative without decoding it.
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import cache
from itertools import accumulate, repeat
from operator import neg, sub
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
        return not self.coeffs or min(self.coeffs) >= 0

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
        return self + -o

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
        cs = self.coeffs
        if len(cs) < 2:
            return str(cs[0]) if cs else "0"
        if len(cs) > len(_LABELS):
            _LABELS.extend([f"q^{i}" for i in range(len(_LABELS), len(cs))])
        terms = zip(cs, _LABELS)
        constant, _ = next(terms)
        # every term but the constant carries its sign; a leading "+" is cut
        text = "".join(
            [str(constant) if constant else ""]
            + [
                "+" + label if c == 1 else "-" + label if c == -1
                else f"+{c}{label}" if c > 0 else f"{c}{label}"
                for c, label in terms
                if c
            ]
        )
        return text[1:] if text[0] == "+" else text


# _LABELS[i] names q**i for i >= 1.  Built at import, so that labels made
# while rendering do not pin the memory of freed polynomials; ``__str__``
# extends it for a degree of 256 or more.
_LABELS = ["", "q", *(f"q^{i}" for i in range(2, 256))]
# _LABEL_SUMS[k] is the length of _LABELS[1] .. _LABELS[k - 1] together;
# ``_str_bound`` extends it for a degree of 256 or more.
_LABEL_SUMS = [0, *accumulate(map(len, _LABELS))]


def _str_bound(cell) -> int:
    """An upper bound on ``len(str(cell))``, without rendering a polynomial.

    Exact for anything but a ``QPoly`` of degree >= 1: an int, a string or
    a constant is rendered.  A term of ``QPoly.__str__`` is one sign, the
    coefficient's digits and its label; a coefficient of b bits has at most
    floor(b * log10(2)) + 1 digits, and 0.30103 exceeds log10(2), so the
    bit lengths summed in C (times 0.30103, in integers), two characters
    per term and the labels' summed lengths bound the text from above.
    """
    if type(cell) is not QPoly:
        return len(str(cell))
    cs = cell.coeffs
    size = len(cs)
    if size < 2:
        return len(str(cs[0])) if cs else 1
    if size >= len(_LABEL_SUMS):
        for i in range(len(_LABEL_SUMS) - 1, size):
            _LABEL_SUMS.append(_LABEL_SUMS[-1] + len(str(i)) + 2)
    return sum(map(int.bit_length, cs)) * 30103 // 100000 + 2 * size + _LABEL_SUMS[size]


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


def _norm(p: QPoly) -> int:
    """The l1 norm of ``p``, its coefficients' absolute values summed: a bound on
    each coefficient, with |pq|_1 <= |p|_1 |q|_1, for every packed engine's width."""
    return sum(map(abs, p.coeffs))


def _width(bound: int) -> int:
    """``_unpack``'s digit width in bits for coefficients of at most ``bound``.

    The least of 8, 16, 32 and 64 with bound < 2**(bits - 1), whose digits
    ``_unpack`` reads as machine integers; past 64 bits, the least multiple
    of 8, whose digits it reads as machine words when they all fit one.
    """
    bits = 8 * (bound.bit_length() // 8 + 1)
    return bits if bits > 64 else 1 << (bits - 1).bit_length()


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


# the signed machine-integer typecodes of ``array``, by size in bytes
_MACHINE_DIGITS = {array(fmt).itemsize: fmt for fmt in "bhiq"}


@cache
def _offset(bits: int, count: int) -> int:
    """2**(bits - 1) in each of ``count`` base-2**bits digits, ``bits`` a multiple of 8."""
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * count, "little")


@cache
def _words(bits: int, count: int) -> tuple[int, int, struct.Struct]:
    """For ``count`` digits of ``bits`` > 64 bits: 2**63 in each digit, each
    digit's bits above its low 64, and a little-endian reader of each digit's
    low 64 bits as a signed machine word."""
    pad = bits // 8 - 8
    return (
        int.from_bytes((bytes(7) + b"\x80" + bytes(pad)) * count, "little"),
        int.from_bytes((bytes(8) + b"\xff" * pad) * count, "little"),
        struct.Struct("<" + f"q{pad}x" * count),
    )


@cache
def _chunks(bits: int, count: int) -> struct.Struct:
    """A reader of ``count`` little-endian digits of ``bits`` bits as byte strings."""
    return struct.Struct("<" + f"{bits // 8}s" * count)


def _unpack(value: int, bits: int) -> QPoly:
    """The ``QPoly`` whose coefficients are the signed base-2**bits digits of ``value``.

    The inverse of ``_pack`` for coefficients below 2**(bits - 1) in
    absolute value, with ``bits`` a multiple of 8 (``_width``).  Every digit
    is read in C, from one little-endian byte string of a shifted ``value``:
    linear in the size of ``value``, with no Python step per digit.

    * 8, 16, 32 or 64 bits: adding 2**(bits - 1) to every digit puts them
      all in [1, 2**bits); flipping each one's top bit back (``^ offset``)
      leaves it in two's complement, which ``array`` reads as a machine
      integer, swapping each digit's bytes on a big-endian host.
    * Wider than 64 bits, with every digit in [-2**63, 2**63): adding H,
      2**63 in each digit, puts each in [0, 2**64), which holds exactly
      when the sum has no bit in M, each digit's bits above its low 64.  A
      negative sum never passes: it needs count == size, and mod
      2**(bits*size) its top digit is then at least 2**(bits - 1) + 2**63,
      past 2**64, so the one AND decides.  ``^ H`` leaves each digit's low
      64 bits in two's complement, and one ``struct`` format reads them as
      signed words, skipping the rest of each digit.
    * Any other width or digit: adding 2**(bits - 1) to every digit puts
      them all in [1, 2**bits), one ``struct`` format splits the sum into
      each digit's bytes, ``int.from_bytes`` reads each unsigned through
      ``map``, and a second ``map`` takes 2**(bits - 1) off each.

    The digits are exact ints, so ``_canonical`` takes them unchecked, and
    the top one is never 0: the lower digits of a degree-d value sum to
    less than 2**(bits*d - 1) in absolute value, so its bit length is from
    bits*d to bits*(d + 1) - 1 and ``count`` is exactly d + 1.  Offsets,
    masks and formats span ``size``, the digit count rounded up to a power
    of two, so that decodes of many degrees, as in a triangle's rows, share
    a few cached ones, and a wide decode keeps its first ``count`` digits
    (``^ offset`` clears the machine path's digits above the value's).  0
    gives ``ZERO`` itself, so that equal values decoded through one
    ``_Memo`` share one object, zeros included.
    """
    if not value:
        return ZERO
    width = bits // 8
    # exactly d + 1 digits for a degree-d value, the top one nonzero
    count = (abs(value).bit_length() + bits) // bits
    size = 1 << (count - 1).bit_length()
    fmt = _MACHINE_DIGITS.get(width)
    if fmt is not None:
        offset = _offset(bits, size)
        machine = array(fmt, ((value + offset) ^ offset).to_bytes(width * count, "little"))
        if sys.byteorder == "big":
            machine.byteswap()
        return _canonical(tuple(machine.tolist()))
    if bits > 64:
        half, high, words = _words(bits, size)
        shifted = value + half
        if not shifted & high:
            digits = words.unpack((shifted ^ half).to_bytes(width * size, "little"))
            return _canonical(digits[:count])
    data = (value + _offset(bits, size)).to_bytes(width * size, "little")
    chunks = _chunks(bits, size).unpack(data)[:count]
    digits = map(sub, map(int.from_bytes, chunks, repeat("little")), repeat(1 << (bits - 1)))
    return _canonical(tuple(digits))


def _nonnegative(value: int, bits: int) -> bool:
    """``_unpack(value, bits).is_q_nonnegative()``, read from ``value`` without a decode.

    For the same values as ``_unpack``: every coefficient below
    2**(bits - 1) in absolute value.  One AND with ``_offset``, the top bit
    of each of ``size`` digits counted as ``_unpack`` counts them, decides.
    Nonnegative digits below 2**(bits - 1) set no top bit.  Below the lowest
    negative coefficient every digit is nonnegative, so the value's low
    digits are exactly those coefficients, and the negative one is held as
    2**bits plus itself, whose top bit is set.  So ``value >= 0`` never
    needs testing apart: a negative value has a negative top coefficient,
    and its digit's top bit is set like any other negative one's.
    """
    count = (value.bit_length() + bits) // bits  # bit_length() ignores the sign
    return not value & _offset(bits, 1 << (count - 1).bit_length())


class _Memo(dict):
    """``fn(key)`` for each key, computed on its first lookup only.

    Keyed by the value itself, so equal keys share one result: a Hankel
    matrix repeats one polynomial along each antidiagonal, and a sweep one
    value or gap across many contents.  A memo holds every result it made,
    so each lives for one call (one document, sweep or network).
    """

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Frozen:
    """An immutable record of named fields, the base of the package's value classes.

    A subclass names its fields, in constructor order, in ``_fields`` and
    sets them once through ``_Frozen.__init__``; after that, assigning or
    deleting an attribute raises ``AttributeError``.  Two objects of one
    class are equal when their fields are, and hash alike; a class compared
    by identity sets ``__eq__`` and ``__hash__`` back to ``object``'s.  An
    object prints as ``Name(field=value, ...)`` and pickles as its class
    called on its fields, so a slotted subclass needs no state hooks.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


ZERO = QPoly()
ONE = QPoly((1,))
Q = QPoly((0, 1))
