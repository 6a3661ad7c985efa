"""Immanants by subset dynamic programming, exact determinants, positivity sweeps.

``immanant(m, lam)`` is the sum over permutations sigma of
chi^lam(cycle type of sigma) times the product of m[i][sigma(i)].  The
permutations are never walked one by one.  Two dynamic programs over index
subsets give, for each cycle type, the sum of the products of all
permutations of that type (the class sums):

* cycle sums: for every index set S, the products of all cycles on exactly
  S, walked from min(S) and built Held-Karp style from path sums; about
  2^n * n^2 multiplies;
* set partitions: the state is (used-index mask, partial cycle type) and
  each step adds the cycle through the lowest unused index, so every
  permutation is built exactly once; about 3^n steps, each times the
  partial cycle types of its state.

Every shape lam of size n is then the integer combination of the class sums
given by the character row of lam.  ``positivity_sweep`` applies every row
of a size, cached with its degree, to the same class sums, and takes each
dominance gap from the same combinations.  The arithmetic runs on entries
packed once as the integers p(2**bits) (Kronecker substitution), at one
width per sweep (``_packed``); each value and gap is unpacked once.

A sweep computes each distinct submatrix once, up to transpose: selections
are keyed by their entries, and a submatrix and its transpose share a key,
since chi(sigma) = chi(sigma^-1).  Hankel selections repeat often
(H[rows+d, cols-d] = H[rows, cols], and H is symmetric); later selections
with a known key get their own reports holding the first one's values.  A
submatrix with no permutation whose entries are all nonzero has every class
sum empty, so all its values and gaps are 0 without character arithmetic.

``determinant`` is implemented independently by fraction-free (Bareiss)
elimination with exact polynomial division, so the two routes to the
alternating sum can be checked against each other.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from math import comb, prod
from operator import mul

from .csmatrix import CSMatrix
from .errors import CapExceeded, ShapeError
from .qpoly import ONE, QPoly, ZERO, _pack, _unpack, _width
from .symchar import Partition, character_table, degree, is_partition, partitions_of

SIZE_CAP_ENV = "QCATALAN_SIZE_CAP"
DEFAULT_SIZE_CAP = 9

Grid = tuple[tuple[QPoly, ...], ...]

_RAISE_CAP = f"raise it with {SIZE_CAP_ENV}=<n> or size_cap=<n>"


def _size_cap(override: int | None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SIZE_CAP_ENV}={raw!r} is not an int") from None


def _as_entries(m: CSMatrix | list | tuple) -> Grid:
    """``m``'s entries as a square grid of QPoly rows (else ShapeError or TypeError)."""
    rows = m.entries if isinstance(m, CSMatrix) else m
    grid = tuple(tuple(row) for row in rows)
    widths = {len(row) for row in grid}
    if len(widths) > 1:
        raise ShapeError("rows have unequal lengths")
    for row in grid:
        for cell in row:
            if not isinstance(cell, QPoly):
                raise TypeError(f"matrix entry {cell!r} is not a QPoly")
    if grid and len(grid[0]) != len(grid):
        raise ShapeError(f"matrix is {len(grid)}x{len(grid[0])}, not square")
    return grid


def _packed(grid: Grid, size: int) -> tuple[list[list[int]], int]:
    """Every entry of ``grid`` packed at one width, and that width in bits.

    The width holds every value and gap of every submatrix of at most
    ``size`` rows.  With P the product of the ``size`` largest row sums of
    absolute coefficients, each taken as at least 1 (so that a zero row, or
    fewer rows, never gives more), the products of all permutations sum to at
    most P in that norm.  With D the largest character degree of size
    ``size``, each value is then at most D * P and each gap at most 2 * D * P.
    """
    norms = [max(sum(sum(map(abs, cell.coeffs)) for cell in row), 1) for row in grid]
    degrees = map(degree, partitions_of(size))
    bits = _width(2 * max(degrees) * prod(sorted(norms, reverse=True)[:size]))
    return [[_pack(cell.coeffs, bits) for cell in row] for row in grid], bits


def _cycle_sums(cells: list[list[int]]) -> dict[int, int]:
    """For each index set S (a bit mask), the summed products of all cycles on S.

    A cycle on S is walked from min(S); ``paths[S][v]`` sums the products
    of the paths from min(S) through exactly S that end at v (Held-Karp).
    Sets whose every cycle has a zero entry are left out.
    """
    n = len(cells)
    cycles: dict[int, int] = {}
    for m in range(n):
        bit = 1 << m
        if cells[m][m]:
            cycles[bit] = cells[m][m]
        paths: dict[int, dict[int, int]] = {}
        for w in range(m + 1, n):
            if cells[m][w]:
                paths[bit | 1 << w] = {w: cells[m][w]}
        for high in range(1, 1 << (n - m - 1)):
            mask = bit | high << (m + 1)
            ends = paths.pop(mask, None)
            if ends is None:
                continue
            for v, path in ends.items():
                row = cells[v]
                if row[m]:
                    cycles[mask] = cycles.get(mask, 0) + path * row[m]
                for w in range(m + 1, n):
                    if row[w] and not mask >> w & 1:
                        longer = paths.setdefault(mask | 1 << w, {})
                        longer[w] = longer.get(w, 0) + path * row[w]
    return cycles


@cache
def _class_positions(n: int) -> dict[int, int]:
    """Cycle-type key -> position in ``partitions_of(n)``.

    A cycle type's key is the sum of (n+1)**(length-1) over its cycles, so
    adding a cycle of length k to a partial type adds (n+1)**(k-1).
    """
    return {
        sum((n + 1) ** (part - 1) for part in mu): pos
        for pos, mu in enumerate(partitions_of(n))
    }


def _class_sums(cells: list[list[int]]) -> list[int]:
    """Per-cycle-type sums of the permutation diagonal products.

    A permutation is a set partition of the indices into cycles.  The DP
    state is (used-index mask, partial cycle type); each step adds the
    cycle through the lowest unused index, so every permutation is built
    exactly once.  ``cells`` and the sums are packed polynomials (see
    ``_packed``); the sums are indexed like partitions_of(n).
    """
    n = len(cells)
    cycles = _cycle_sums(cells)
    steps = [0] + [(n + 1) ** (k - 1) for k in range(1, n + 1)]
    full = (1 << n) - 1
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for mask in range(full):
        here = states.pop(mask, None)
        if here is None:
            continue
        rest = full ^ mask
        low = rest & -rest
        others = rest ^ low
        sub = others
        while True:
            cycle = cycles.get(sub | low)
            if cycle is not None:
                step = steps[sub.bit_count() + 1]
                target = states.setdefault(mask | sub | low, {})
                for key, value in here.items():
                    target[key + step] = target.get(key + step, 0) + value * cycle
            if not sub:
                break
            sub = (sub - 1) & others
    positions = _class_positions(n)
    sums = [0] * len(positions)
    for key, value in states.get(full, {}).items():
        sums[positions[key]] = value
    return sums


@cache
def _shapes(n: int) -> tuple[tuple[Partition, tuple[int, ...], int], ...]:
    """(lam, character row of lam, degree(lam)) for every shape of size n."""
    table = character_table(n)
    return tuple((lam, table.row(lam), degree(lam)) for lam in table.shapes)


def immanant(m: CSMatrix | list | tuple, lam: Partition, *, size_cap: int | None = None) -> QPoly:
    """The lam-immanant: sum over permutations of chi^lam times the product."""
    grid = _as_entries(m)
    n = len(grid)
    if not is_partition(lam):
        raise ValueError(f"{lam!r} is not a partition")
    if sum(lam) != n:
        raise ShapeError(f"shape {lam} does not partition the matrix size {n}")
    cap = _size_cap(size_cap)
    if n > cap:
        raise CapExceeded(f"matrix size {n} exceeds the size cap {cap}; {_RAISE_CAP}")
    cells, bits = _packed(grid, n)
    return _unpack(sum(map(mul, character_table(n).row(lam), _class_sums(cells))), bits)


def determinant(m: CSMatrix | list | tuple) -> QPoly:
    """Exact determinant by fraction-free elimination (no permutation sums)."""
    grid = _as_entries(m)
    n = len(grid)
    if n == 0:
        return ONE
    work = [list(row) for row in grid]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if work[k][k].is_zero():
            for swap in range(k + 1, n):
                if not work[swap][k].is_zero():
                    work[k], work[swap] = work[swap], work[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                value = work[i][j] * work[k][k] - work[i][k] * work[k][j]
                work[i][j] = value.exact_div(prev)
            work[i][k] = ZERO
        prev = work[k][k]
    return work[n - 1][n - 1] if sign == 1 else -work[n - 1][n - 1]


# -- positivity sweeps ------------------------------------------------


@dataclass(frozen=True)
class MatrixProvenance:
    """Where a swept submatrix came from."""

    family: str
    kind: str
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "kind": self.kind,
            "rows": list(self.rows),
            "cols": list(self.cols),
        }


@dataclass(frozen=True)
class ImmanantReport:
    """One immanant of one submatrix, with its dominance gap.

    ``dominance_gap`` is the immanant minus degree(lam) times the
    determinant of the same submatrix.
    """

    lam: Partition
    value: QPoly
    q_nonnegative: bool
    dominance_gap: QPoly
    gap_nonnegative: bool
    provenance: MatrixProvenance

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "value": self.value.to_json(),
            "q_nonnegative": self.q_nonnegative,
            "dominance_gap": self.dominance_gap.to_json(),
            "gap_nonnegative": self.gap_nonnegative,
            "provenance": self.provenance.to_json_dict(),
        }


@dataclass(frozen=True)
class SweepResult:
    """All reports of a sweep plus how the submatrices were selected."""

    reports: tuple[ImmanantReport, ...]
    exhaustive: bool
    seed: int
    total_candidates: int

    @property
    def ok(self) -> bool:
        return all(r.q_nonnegative and r.gap_nonnegative for r in self.reports)

    def violations(self) -> tuple[ImmanantReport, ...]:
        return tuple(
            r for r in self.reports if not (r.q_nonnegative and r.gap_nonnegative)
        )


def _selections(
    n: int, max_size: int, seed: int, exhaustive_limit: int, size_cap: int | None
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], bool, int]:
    """A sweep's (rows, cols) selections of an n x n matrix, in sweep order.

    Returns (selections, exhaustive, total): every selection of each size
    1..min(max_size, n) when their ``total`` count is at most
    ``exhaustive_limit``, else that many draws seeded by ``seed``.
    """
    cap = _size_cap(size_cap)
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size!r}")
    if exhaustive_limit < 1:
        raise ValueError(f"exhaustive_limit must be >= 1, got {exhaustive_limit!r}")
    if max_size > cap:
        raise CapExceeded(f"max_size {max_size} exceeds the size cap {cap}; {_RAISE_CAP}")
    sizes = range(1, min(max_size, n) + 1)
    per_size = {s: comb(n, s) ** 2 for s in sizes}
    total = sum(per_size.values())
    if total <= exhaustive_limit:
        selections = [
            (rows, cols)
            for s in sizes
            for rows in combinations(range(n), s)
            for cols in combinations(range(n), s)
        ]
        return selections, True, total
    rng = random.Random(seed)
    sizes = list(sizes)
    cum = list(accumulate(per_size[s] for s in sizes))
    selections = []
    for _ in range(exhaustive_limit):
        s = rng.choices(sizes, cum_weights=cum)[0]
        rows = tuple(sorted(rng.sample(range(n), s)))
        cols = tuple(sorted(rng.sample(range(n), s)))
        selections.append((rows, cols))
    return selections, False, total


def positivity_sweep(
    m: CSMatrix,
    max_size: int,
    *,
    seed: int = 0,
    exhaustive_limit: int = 20000,
    size_cap: int | None = None,
) -> SweepResult:
    """Report every immanant of square submatrices up to ``max_size``.

    All (rows, cols) selections of each size 1..max_size are swept when
    their total count is at most ``exhaustive_limit``; otherwise that many
    selections are sampled deterministically from ``seed``.
    """
    if not isinstance(m, CSMatrix):
        raise TypeError(
            f"positivity_sweep needs a CSMatrix for provenance, got {type(m).__name__}"
        )
    grid = _as_entries(m)
    selections, exhaustive, total = _selections(
        len(grid), max_size, seed, exhaustive_limit, size_cap
    )
    size = min(max_size, len(grid))
    cells, bits = _packed(grid, size)
    labels: dict[QPoly, int] = {}
    ids = [[labels.setdefault(cell, len(labels)) for cell in row] for row in grid]
    by_selection: dict[tuple[tuple[int, ...], tuple[int, ...]], list[ImmanantReport]] = {}
    by_content: dict[tuple[int, ...], list[ImmanantReport]] = {}
    reports: list[ImmanantReport] = []
    for rows, cols in selections:
        found = by_selection.get((rows, cols))
        if found is None:
            provenance = MatrixProvenance(
                m.family.name,
                m.kind,
                tuple(m.row_indices[i] for i in rows),
                tuple(m.col_indices[j] for j in cols),
            )
            # chi(sigma) = chi(sigma^-1), so a submatrix and its transpose
            # have the same immanants, determinant and gaps.
            key = min(
                tuple(ids[i][j] for i in rows for j in cols),
                tuple(ids[i][j] for j in cols for i in rows),
            )
            first = by_content.get(key)
            if first is None:
                sub = [[cells[i][j] for j in cols] for i in rows]
                found = by_content[key] = _reports(sub, bits, provenance)
            else:
                found = [
                    ImmanantReport(
                        r.lam,
                        r.value,
                        r.q_nonnegative,
                        r.dominance_gap,
                        r.gap_nonnegative,
                        provenance,
                    )
                    for r in first
                ]
            if not exhaustive:  # only sampled draws repeat a selection
                by_selection[rows, cols] = found
        reports.extend(found)
    return SweepResult(tuple(reports), exhaustive, seed, total)


def _reports(
    cells: list[list[int]], bits: int, provenance: MatrixProvenance
) -> list[ImmanantReport]:
    """Every shape's immanant and dominance gap of one packed submatrix."""
    sums = _class_sums(cells)
    shapes = _shapes(len(cells))
    if not any(sums):
        # No permutation has all its entries nonzero: every value and gap is 0.
        return [ImmanantReport(lam, ZERO, True, ZERO, True, provenance) for lam, _, _ in shapes]
    det = sum(map(mul, shapes[-1][1], sums))  # shape (1,...,1): the sign character
    out = []
    for lam, row, deg in shapes:
        packed = sum(map(mul, row, sums))
        value = _unpack(packed, bits)
        gap = _unpack(packed - deg * det, bits)
        out.append(
            ImmanantReport(
                lam=lam,
                value=value,
                q_nonnegative=value.is_q_nonnegative(),
                dominance_gap=gap,
                gap_nonnegative=gap.is_q_nonnegative(),
                provenance=provenance,
            )
        )
    return out


# -- cubic Hankel inequalities ---------------------------------------


def _check_triple(label: str, triple: tuple[int, int, int], bound: int) -> None:
    a, b, c = triple
    if not (0 <= a < b < c):
        raise IndexError(f"{label} indices must satisfy 0 <= i < j < k, got {triple}")
    if c >= bound:
        raise IndexError(f"{label} index {c} needs a_0..a_{bound - 1} terms")


def inequality_331(
    a: list[QPoly], i: tuple[int, int, int], j: tuple[int, int, int]
) -> QPoly:
    """Cubic form in the sequence terms indexed by two increasing triples.

    Equals the (2,1)-immanant minus twice the determinant of the 3x3
    submatrix of the Hankel matrix (a_{u+v}) with rows i and columns j.
    """
    i1, i2, i3 = i
    j1, j2, j3 = j
    _check_triple("row", (i1, i2, i3), len(a))
    _check_triple("col", (j1, j2, j3), len(a))
    if i3 + j3 >= len(a):
        raise IndexError(
            f"need terms up to a_{i3 + j3} but only {len(a)} terms were given"
        )
    pos = (
        a[i1 + j2] * a[i2 + j1] * a[i3 + j3]
        + a[i1 + j3] * a[i2 + j2] * a[i3 + j1]
        + a[i1 + j1] * a[i2 + j3] * a[i3 + j2]
    )
    neg = a[i1 + j2] * a[i2 + j3] * a[i3 + j1] + a[i1 + j3] * a[i2 + j1] * a[i3 + j2]
    return 2 * pos - 3 * neg


def inequality_332(a: list[QPoly], i: int, j: int, k: int) -> QPoly:
    """Symmetric cubic form a_{2i} a_{j+k}^2 + ... - 3 a_{i+j} a_{j+k} a_{k+i}."""
    _check_triple("index", (i, j, k), len(a))
    if 2 * k >= len(a):
        raise IndexError(f"need terms up to a_{2 * k} but only {len(a)} terms were given")
    return (
        a[2 * i] * a[j + k] ** 2
        + a[2 * j] * a[i + k] ** 2
        + a[2 * k] * a[i + j] ** 2
        - 3 * (a[i + j] * a[j + k] * a[k + i])
    )


def _inequality_sweep(
    a: list[QPoly], top: int
) -> list[tuple[tuple[int, int, int], QPoly]]:
    """``inequality_332(a, i, j, k)`` for every 0 <= i < j < k <= top.

    The triples come in lexicographic order.  Each a_m is packed once as the
    integer a_m(2**bits) (Kronecker substitution, ``qpoly._pack``), so every
    product below is one big-integer multiply.  The squares a_m**2, the
    terms a_{2x} a_y**2 and the products a_x a_y depend on an index pair
    only, so each is computed once; the cubic term then costs one multiply
    per triple.  Each value is unpacked once.

    With N the largest sum of absolute coefficients of a_0..a_{2 top}, every
    coefficient of every value is at most 6 N**3 in absolute value (three
    terms of at most N**3, and three times one product of at most N**3),
    which fixes the digit width.
    """
    seq = a[: 2 * top + 1]
    norm = max(sum(map(abs, p.coeffs)) for p in seq)
    bits = _width(6 * norm**3)
    packed = [_pack(p.coeffs, bits) for p in seq]
    squares: dict[int, int] = {}
    terms: dict[tuple[int, int], int] = {}
    pairs: dict[tuple[int, int], int] = {}

    def term(x: int, y: int) -> int:  # a_{2x} a_y**2
        key = (x, y)
        value = terms.get(key)
        if value is None:
            sq = squares.get(y)
            if sq is None:
                sq = squares[y] = packed[y] * packed[y]
            value = terms[key] = packed[2 * x] * sq
        return value

    out = []
    for i in range(top + 1):
        for j in range(i + 1, top + 1):
            for k in range(j + 1, top + 1):
                key = (i + j, j + k)
                pair = pairs.get(key)
                if pair is None:
                    pair = pairs[key] = packed[i + j] * packed[j + k]
                value = (
                    term(i, j + k) + term(j, i + k) + term(k, i + j)
                    - 3 * pair * packed[i + k]
                )
                out.append(((i, j, k), _unpack(value, bits)))
    return out
