"""Triangular recurrence matrices, their Hankel companions, and submatrices.

The central object is the infinite lower-triangular array defined by
c_{0,0} = 1 and

    c_{n,k} = r_{k-1} c_{n-1,k-1} + s_k c_{n-1,k} + t_{k+1} c_{n-1,k+1}

with r_{-1} = t_0 = 0.  ``catalan_stieltjes(f, n)`` returns its leading
(n+1) x (n+1) corner, ``catalan_like`` its first column a_k = c_{k,0}, and
``hankel(f, n)`` the matrix (a_{i+j}).  ``build_ln`` returns the
(n+2) x (n+2) one-step transfer matrix L_n satisfying
C_{n+1} = diag(1, C_n) . L_n.

The recurrence runs on integers, as ``PlanarNetwork``'s GF sweep does: a
pass on coefficient-sum bounds fixes one digit width, and a second pass
carries every entry packed as p(2**bits) (``qpoly._pack``).  A row is
unpacked once it is complete, and only in the entries its caller keeps.
``_shape`` lays out C_n or H_n from the triangle's rows, decoded for
``catalan_stieltjes`` and ``hankel``; ``_packed_matrix`` shapes the packed
rows, at a width the network check picks, and the rows of bounds, whose
largest column sum bounds every entry.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Iterator

from .errors import OutOfRange, ShapeError
from .families import FamilySpec
from .qpoly import ONE, QPoly, ZERO, _Frozen, _norm, _unpack, _width


class CSMatrix(_Frozen):
    """An exact polynomial matrix with provenance.

    ``row_indices``/``col_indices`` record which rows and columns of the
    originating full matrix each entry came from, so a submatrix remembers
    its position.  Compared and hashed by identity.
    """

    _fields = ("entries", "kind", "family", "row_indices", "col_indices")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        entries: tuple[tuple[QPoly, ...], ...],
        kind: str,
        family: FamilySpec,
        row_indices: tuple[int, ...],
        col_indices: tuple[int, ...],
    ) -> None:
        _Frozen.__init__(self, entries, kind, family, row_indices, col_indices)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def _triangle(f: FamilySpec, n: int, top: int, cols: int) -> list[list[QPoly]]:
    """Rows 0..n of the recurrence triangle, cut to what row ``top`` needs.

    Row m holds c_{m,0}..c_{m,h} with h = min(m, top - m); the entries
    above height top - m feed only entries of row top above height 0.
    Only the first ``cols`` entries of each row are returned.
    A term r_k, s_k or t_k is looked up only when an entry reads it, and at
    most once per call, so a family with finitely many terms serves every
    cut its rows fit in, and a missing or negative term is reported as the
    first one the recurrence reads, in row order.

    The largest bound from ``_passes`` fixes one digit width; each packed
    row is unpacked as soon as it is complete, so at most two packed rows
    are alive at once.
    """
    norms, packed = _passes(f, n, top, cols)
    bound = max(map(max, norms))
    bits = _width(bound)
    return [[_unpack(x, bits) for x in row] for row in packed(bits)]


def _passes(f: FamilySpec, n: int, top: int, cols: int):
    """``_triangle``'s rows at q = 1 with each term replaced by the sum of its
    absolute coefficients, each entry a bound on every coefficient of its
    polynomial, and its packer: a map from a width ``bits`` to the rows
    packed as p(2**bits), exact at any width.  The packer applies a term to
    an entry as shift-adds, one per nonzero coefficient: a unit coefficient
    adds the entry itself, shifted, with no multiply, and a zero term adds
    nothing.
    """
    r, s, t = cache(f.r), cache(f.s), cache(f.t)

    def norm(term):
        return cache(lambda k: _norm(term(k)))

    norms = [row[:cols] for row in _rows(n, top, norm(r), norm(s), norm(t), mul)]

    def packed(bits: int) -> Iterator[list[int]]:
        def pairs(term):
            return cache(
                lambda k: tuple((c, i * bits) for i, c in enumerate(term(k).coeffs) if c)
            )

        def shifted(term, x):
            value = 0
            for c, shift in term:
                value += (x if c == 1 else x * c) << shift
            return value

        return (row[:cols] for row in _rows(n, top, pairs(r), pairs(s), pairs(t), shifted))

    return norms, packed


def _shape(rows: list[list], n: int, is_hankel: bool, zero) -> list[list]:
    """C_n from the triangle's rows 0..n, with ``zero`` above the diagonal,
    or, when ``is_hankel``, H_n = (a_{i+j}) from the first entries of rows
    0..2n, so that each antidiagonal holds one object."""
    if is_hankel:
        return [[rows[i + j][0] for j in range(n + 1)] for i in range(n + 1)]
    return [row + [zero] * (n - i) for i, row in enumerate(rows)]


def _packed_matrix(f: FamilySpec, n: int, is_hankel: bool):
    """C_n, or H_n when ``is_hankel``, from ``_passes``'s triangle laid out by
    ``_shape``: a bound and a packer of the rows.  The bound is the largest
    column sum of the shaped bounds: at least every coefficient, and, on a
    network of nonnegative weights that matches the matrix, the largest of
    the sinks' bounds B(v) (``PlanarNetwork._bounds``), so the network
    check's one pass packs at the width that they need."""
    norms, packed = _passes(f, 2 * n if is_hankel else n, 2 * n, 1 if is_hankel else n + 1)
    bound = max(map(sum, zip(*_shape(norms, n, is_hankel, 0))))
    return bound, lambda bits: _shape(list(packed(bits)), n, is_hankel, 0)


def _rows(n: int, top: int, r, s, t, times) -> Iterator[list[int]]:
    """Rows 0..n of the cut recurrence on ints, each yielded once complete.

    ``r(k)``, ``s(k)`` and ``t(k)`` give the integer form of a term, and
    ``times(term, x)`` applies it to an entry.
    """
    prev = [1]
    yield prev
    for m in range(1, n + 1):
        row = []
        for k in range(min(m, top - m) + 1):
            value = times(r(k - 1), prev[k - 1]) if k else 0
            if k < len(prev):
                value += times(s(k), prev[k])
            if k + 1 < len(prev):
                value += times(t(k + 1), prev[k + 1])
            row.append(value)
        yield row
        prev = row


def catalan_stieltjes(f: FamilySpec, n: int) -> CSMatrix:
    """The (n+1) x (n+1) leading corner of the recurrence triangle."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    entries = tuple(map(tuple, _shape(_triangle(f, n, 2 * n, n + 1), n, False, ZERO)))
    idx = tuple(range(n + 1))
    return CSMatrix(entries, "catalan_stieltjes", f, idx, idx)


def catalan_like(f: FamilySpec, up_to: int) -> list[QPoly]:
    """The first-column sequence a_0..a_{up_to} with a_k = c_{k,0}."""
    if up_to < 0:
        raise ValueError(f"up_to must be >= 0, got {up_to!r}")
    return [row[0] for row in _triangle(f, up_to, up_to, 1)]


def hankel(f: FamilySpec, n: int) -> CSMatrix:
    """The (n+1) x (n+1) Hankel matrix (a_{i+j}) of the first column."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    entries = tuple(map(tuple, _shape(_triangle(f, 2 * n, 2 * n, 1), n, True, ZERO)))
    idx = tuple(range(n + 1))
    return CSMatrix(entries, "hankel", f, idx, idx)


def build_ln(f: FamilySpec, n: int) -> list[list[QPoly]]:
    """The (n+2) x (n+2) transfer matrix L_n.

    Row 0 is (1, 0, ..., 0); row i >= 1 carries t_{i-1}, s_{i-1}, r_{i-1}
    in columns i-2, i-1, i (entries falling outside stay zero).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    size = n + 2
    grid: list[list[QPoly]] = [[ZERO] * size for _ in range(size)]
    grid[0][0] = ONE
    for i in range(1, size):
        j = i - 1
        if i >= 2:
            grid[i][i - 2] = f.t(j)
        grid[i][i - 1] = f.s(j)
        grid[i][i] = f.r(j)
    return grid


def submatrix(m: CSMatrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> CSMatrix:
    """Select strictly increasing row and column index sets of equal length."""
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ShapeError(
            f"row and column selections differ in length: {len(rows)} vs {len(cols)}"
        )
    for label, sel, bound in (("row", rows, m.nrows), ("col", cols, m.ncols)):
        if any(sel[i] >= sel[i + 1] for i in range(len(sel) - 1)):
            raise ValueError(f"{label} indices must be strictly increasing: {sel}")
        if any(i < 0 or i >= bound for i in sel):
            raise OutOfRange(f"{label} indices {sel} out of range 0..{bound - 1}")
    entries = tuple(tuple(m.entries[i][j] for j in cols) for i in rows)
    return CSMatrix(
        entries,
        "submatrix",
        m.family,
        tuple(m.row_indices[i] for i in rows),
        tuple(m.col_indices[j] for j in cols),
    )
