"""Triangular recurrence matrices, their Hankel companions, and submatrices.

The central object is the infinite lower-triangular array defined by
c_{0,0} = 1 and

    c_{n,k} = r_{k-1} c_{n-1,k-1} + s_k c_{n-1,k} + t_{k+1} c_{n-1,k+1}

with r_{-1} = t_0 = 0.  ``catalan_stieltjes(f, n)`` returns its leading
(n+1) x (n+1) corner, ``catalan_like`` its first column a_k = c_{k,0}, and
``hankel(f, n)`` the matrix (a_{i+j}).  ``build_ln`` returns the
(n+2) x (n+2) one-step transfer matrix L_n satisfying
C_{n+1} = diag(1, C_n) . L_n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .families import FamilySpec
from .qpoly import ONE, QPoly, ZERO

@dataclass(frozen=True, eq=False)
class CSMatrix:
    """An exact polynomial matrix with provenance.

    ``row_indices``/``col_indices`` record which rows and columns of the
    originating full matrix each entry came from, so a submatrix remembers
    its position.
    """

    entries: tuple[tuple[QPoly, ...], ...]
    kind: str
    family: FamilySpec
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def size(self) -> int:
        if self.nrows != self.ncols:
            raise ShapeError(f"matrix is {self.nrows}x{self.ncols}, not square")
        return self.nrows

    def __getitem__(self, ij: tuple[int, int]) -> QPoly:
        i, j = ij
        return self.entries[i][j]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family.name,
            "rows": list(self.row_indices),
            "cols": list(self.col_indices),
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }

    def to_csv(self) -> str:
        """Rows of comma-separated rendered polynomials (no header)."""
        return "\n".join(",".join(str(p) for p in row) for row in self.entries) + "\n"


def _triangle(f: FamilySpec, n: int, top: int) -> list[list[QPoly]]:
    """Rows 0..n of the recurrence triangle, cut to what row ``top`` needs.

    Row m holds c_{m,0}..c_{m,h} with h = min(m, top - m); the entries
    above height top - m feed only entries of row top above height 0.
    """
    # Rows 1..n read at most r_0..r_{n-1}, s_0..s_{n-1} and t_1..t_{n-1} (a
    # term is needed only where its neighbour in the row above exists); all
    # are looked up, so a family too short fails alike at every cut.
    r = [f.r(k) for k in range(n)]
    s = [f.s(k) for k in range(n)]
    t = [ZERO] + [f.t(k) for k in range(1, n)]
    rows: list[list[QPoly]] = [[ONE]]
    for m in range(1, n + 1):
        prev = rows[-1]
        row = []
        for k in range(min(m, top - m) + 1):
            value = r[k - 1] * prev[k - 1] if k else ZERO
            if k < len(prev):
                value = value + s[k] * prev[k]
            if k + 1 < len(prev):
                value = value + t[k + 1] * prev[k + 1]
            row.append(value)
        rows.append(row)
    return rows


def catalan_stieltjes(f: FamilySpec, n: int) -> CSMatrix:
    """The (n+1) x (n+1) leading corner of the recurrence triangle."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    tri = _triangle(f, n, 2 * n)
    entries = tuple(
        tuple(tri[i][j] if j <= i else ZERO for j in range(n + 1))
        for i in range(n + 1)
    )
    idx = tuple(range(n + 1))
    return CSMatrix(entries, "catalan_stieltjes", f, idx, idx)


def catalan_like(f: FamilySpec, up_to: int) -> list[QPoly]:
    """The first-column sequence a_0..a_{up_to} with a_k = c_{k,0}."""
    if up_to < 0:
        raise ValueError(f"up_to must be >= 0, got {up_to!r}")
    return [row[0] for row in _triangle(f, up_to, up_to)]


def hankel(f: FamilySpec, n: int) -> CSMatrix:
    """The (n+1) x (n+1) Hankel matrix (a_{i+j}) of the first column."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    a = catalan_like(f, 2 * n)
    entries = tuple(
        tuple(a[i + j] for j in range(n + 1)) for i in range(n + 1)
    )
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
            raise IndexError(f"{label} indices {sel} out of range 0..{bound - 1}")
    entries = tuple(tuple(m.entries[i][j] for j in cols) for i in rows)
    return CSMatrix(
        entries,
        "submatrix",
        m.family,
        tuple(m.row_indices[i] for i in rows),
        tuple(m.col_indices[j] for j in cols),
    )
