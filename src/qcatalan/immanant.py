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

The DPs branch only on which entries are nonzero (the support), so
``_plan`` runs them once per support on register numbers and emits a
straight-line program of multiply-adds, which ``_run`` replays on the
entries.  A dead support (no permutation of nonzero entries) has no plan.

Every shape lam of size n is then the integer combination of the class sums
given by the character row of lam.  ``positivity_sweep`` applies every row
of a size, cached with its degree, to the same class sums, and takes each
dominance gap from the same combinations.  The arithmetic runs on entries
packed as the integers p(2**bits) (Kronecker substitution), at one width
per sweep (``_class_sum_width``) and each distinct entry once.  ``immanant``
takes its width from its own plan instead: replayed on the entries' l1
norms (sums of absolute coefficients), each register bounds the norm of
its value, since |pq|_1 <= |p|_1 |q|_1, so the class sums' norms N_mu bound
the immanant's coefficients by sum |chi^lam(mu)| N_mu.  Each distinct
packed value or gap of a sweep is unpacked and checked for q-nonnegativity
once (a ``_Memo`` local to the sweep), and equal values and gaps share one
``QPoly``.

A sweep computes each distinct submatrix once, up to transpose, since a
submatrix and its transpose have the same reports (chi(sigma) =
chi(sigma^-1)).  A selection is looked up by its entries' labels taken row
by row (its key), and only when that misses, by its transpose's; a new
content is stored under the key of the first selection that holds it, in
that selection's orientation.  Hankel selections repeat often
(H[rows+d, cols-d] = H[rows, cols], and H is symmetric, so (cols, rows) is
the transpose of (rows, cols)), and sampled draws can repeat a selection.
The first selection of a content computes each shape's fields (lam, value,
flags and gap) as one tuple.  The result stores the sweep as tables: each
distinct row set and column set once, mapped to the parent matrix's
indices, each distinct fields tuple (a content) once, and one (row set,
column set, content) triple of positions per selection, so a writer renders
each set and each content once and indexes into them.  A sweep plans each
support once, in the orientation of the key that first has it, and runs
that plan on every content with that support, its cells looked up by its
key's labels.  A submatrix on a dead support has every class sum empty, so
all its values and gaps are 0 without running anything; all such
submatrices of one size share one tuple, at one position.  Class sums that
cancel to 0 (never on the q-nonnegative C and H matrices) are decoded like
any others, to the same zero values, and their support keeps its plan,
since other entries on it need not cancel.  The ``ImmanantReport`` objects
are built only when ``SweepResult.reports`` is read.

``determinant`` is implemented independently by fraction-free (Bareiss)
elimination with exact polynomial division, so the two routes to the
alternating sum can be checked against each other.
"""

from __future__ import annotations

import os
import random
from array import array
from bisect import bisect
from functools import cache, cached_property
from itertools import accumulate, combinations, count, product
from math import ceil, comb, isqrt, log, prod
from operator import mul

from .csmatrix import CSMatrix
from .errors import CapExceeded, OutOfRange, ShapeError
from .qpoly import ONE, QPoly, ZERO, _Frozen, _Memo, _norm, _pack, _unpack, _width
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


def _class_sum_width(grid: Grid, size: int) -> int:
    """The digit width, in bits, at which a sweep packs ``grid``'s entries.

    The width holds every value and gap of every submatrix of at most
    ``size`` rows.  With P the product of the ``size`` largest row sums of
    absolute coefficients, each taken as at least 1 (so that a zero row, or
    fewer rows, never gives more), the products of all permutations sum to at
    most P in that norm.  With D the largest character degree of size
    ``size``, each value is then at most D * P and each gap at most 2 * D * P.
    """
    norms = [max(sum(map(_norm, row)), 1) for row in grid]
    degrees = map(degree, partitions_of(size))
    return _width(2 * max(degrees) * prod(sorted(norms, reverse=True)[:size]))


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


# A plan: the multiply-adds reg[d] += reg[a] * reg[b], as flat (d, a, b)
# register numbers, the register of each class sum (indexed like
# partitions_of(n)) and the number of registers.
Plan = tuple[array, list[int], int]


def _plan(support) -> Plan | None:
    """The class-sum DP of an n x n support, as a straight-line program.

    ``support`` holds the n*n entries row-major, or only their truth values.
    Register 0 holds 1, the one class sum at n = 0; register 1 + i*n + j
    holds entry (i, j), register 1 + n*n stays 0 (the sum of a cycle type no
    permutation has), and later registers start at 0.  Each branch of the
    DP tests whether an entry is nonzero, so the program is the same for
    every grid of the support.
    None when no permutation has all its entries nonzero (a dead support):
    the DP never reaches the full index set.

    Cycle sums: for every index set S (a bit mask), the summed products of
    all cycles on S.  A cycle on S is walked from min(S); ``paths[S][v]``
    sums the products of the paths from min(S) through exactly S that end
    at v (Held-Karp).  Sets whose every cycle has a zero entry are left out.

    Class sums: a permutation is a set partition of the indices into
    cycles.  The DP state is (used-index mask, partial cycle type); each
    step adds the cycle through the lowest unused index, so every
    permutation is built exactly once.  A state of one cycle, the first
    step's, has no other route in, so it is that cycle's register, with no
    multiply by 1.
    """
    n = isqrt(len(support))
    rows = [support[i * n : (i + 1) * n] for i in range(n)]
    ops = array("I")
    emit = ops.extend
    fresh = count(2 + n * n).__next__

    def at(table: dict[int, int], key: int) -> int:
        """The register of ``table[key]``, a fresh one on first use."""
        reg = table.get(key)
        if reg is None:
            reg = table[key] = fresh()
        return reg

    cycles: dict[int, int] = {}
    for m in range(n):
        bit = 1 << m
        if rows[m][m]:
            cycles[bit] = 1 + m * n + m
        paths: dict[int, dict[int, int]] = {}
        for w in range(m + 1, n):
            if rows[m][w]:
                paths[bit | 1 << w] = {w: 1 + m * n + w}
        for high in range(1, 1 << (n - m - 1)):
            mask = bit | high << (m + 1)
            ends = paths.pop(mask, None)
            if ends is None:
                continue
            for v, path in ends.items():
                row, base = rows[v], 1 + v * n
                if row[m]:
                    emit((at(cycles, mask), path, base + m))
                for w in range(m + 1, n):
                    if row[w] and not mask >> w & 1:
                        emit((at(paths.setdefault(mask | 1 << w, {}), w), path, base + w))
    steps = [0] + [(n + 1) ** (k - 1) for k in range(1, n + 1)]
    full = (1 << n) - 1
    states: dict[int, dict[int, int]] = {0: {0: 0}}
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
                if mask:
                    for key, value in here.items():
                        emit((at(target, key + step), value, cycle))
                else:
                    target[step] = cycle
            if not sub:
                break
            sub = (sub - 1) & others
    reached = states.get(full)
    if reached is None:
        return None
    positions = _class_positions(n)
    outs = [1 + n * n] * len(positions)
    for key, reg in reached.items():
        outs[positions[key]] = reg
    return ops, outs, fresh()


def _run(plan: Plan, cells: list[int]) -> list[int]:
    """The class sums of the packed entries ``cells`` (row-major) by ``plan``."""
    ops, outs, size = plan
    reg = [1, *cells]
    reg += [0] * (size - len(reg))
    it = iter(ops)
    for d, a, b in zip(it, it, it):
        reg[d] += reg[a] * reg[b]
    return [reg[r] for r in outs]


@cache
def _shapes(n: int) -> tuple[tuple[Partition, tuple[int, ...], int], ...]:
    """(lam, character row of lam, degree(lam)) for every shape of size n."""
    table = character_table(n)
    return tuple((lam, table.row(lam), degree(lam)) for lam in table.shapes)


def immanant(m: CSMatrix | list | tuple, lam: Partition, *, size_cap: int | None = None) -> QPoly:
    """The lam-immanant: sum over permutations of chi^lam times the product.

    The class-sum DP is planned once on ``m``'s support; a dead support gives
    0 without packing anything.  The plan runs twice: on the entries' l1
    norms, whose class sums N_mu fix the digit width from the bound
    sum |chi^lam(mu)| N_mu on every coefficient, and on the packed entries.
    """
    grid = _as_entries(m)
    n = len(grid)
    if not is_partition(lam):
        raise ValueError(f"{lam!r} is not a partition")
    if sum(lam) != n:
        raise ShapeError(f"shape {lam} does not partition the matrix size {n}")
    cap = _size_cap(size_cap)
    if n > cap:
        raise CapExceeded(f"matrix size {n} exceeds the size cap {cap}; {_RAISE_CAP}")
    norms = [_norm(cell) for row in grid for cell in row]
    plan = _plan(norms)
    if plan is None:
        return ZERO
    chi = character_table(n).row(lam)
    bits = _width(sum(map(mul, map(abs, chi), _run(plan, norms))))
    cells = [_pack(cell.coeffs, bits) for row in grid for cell in row]
    return _unpack(sum(map(mul, chi, _run(plan, cells))), bits)


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


class MatrixProvenance(_Frozen):
    """Where a swept submatrix came from."""

    __slots__ = _fields = ("family", "kind", "rows", "cols")

    def __init__(
        self, family: str, kind: str, rows: tuple[int, ...], cols: tuple[int, ...]
    ) -> None:
        _Frozen.__init__(self, family, kind, rows, cols)


class ImmanantReport(_Frozen):
    """One immanant of one submatrix, with its dominance gap.

    ``dominance_gap`` is the immanant minus degree(lam) times the
    determinant of the same submatrix.
    """

    __slots__ = _fields = (
        "lam", "value", "q_nonnegative", "dominance_gap", "gap_nonnegative", "provenance"
    )

    def __init__(
        self,
        lam: Partition,
        value: QPoly,
        q_nonnegative: bool,
        dominance_gap: QPoly,
        gap_nonnegative: bool,
        provenance: MatrixProvenance,
    ) -> None:
        _Frozen.__init__(
            self, lam, value, q_nonnegative, dominance_gap, gap_nonnegative, provenance
        )


# an ImmanantReport's fields but its provenance, in order
Fields = tuple[Partition, QPoly, bool, QPoly, bool]


class SweepResult(_Frozen):
    """A sweep's selections, stored as tables, plus how they were drawn.

    ``row_sets`` and ``col_sets`` hold each distinct index set of the sweep
    once, mapped to the parent matrix's indices, and ``contents`` each
    distinct fields tuple once, one ``Fields`` per shape.  ``rows`` holds
    one (row set, column set, content) triple of positions into those tables
    per selection, in sweep order; every content is some selection's.  The
    ``ImmanantReport`` objects, one per shape of each selection, are built
    when ``reports`` is first read, and ``violations()`` builds those of the
    failing shapes only.
    """

    _fields = (
        "family", "kind", "row_sets", "col_sets", "contents", "rows", "exhaustive", "seed",
        "total_candidates",
    )

    def __init__(
        self,
        family: str,
        kind: str,
        row_sets: tuple[tuple[int, ...], ...],
        col_sets: tuple[tuple[int, ...], ...],
        contents: tuple[tuple[Fields, ...], ...],
        rows: tuple[tuple[int, int, int], ...],
        exhaustive: bool,
        seed: int,
        total_candidates: int,
    ) -> None:
        _Frozen.__init__(
            self, family, kind, row_sets, col_sets, contents, rows, exhaustive, seed,
            total_candidates,
        )

    @cached_property
    def reports(self) -> tuple[ImmanantReport, ...]:
        return self._build(self.contents)

    @cached_property
    def failing(self) -> tuple[tuple[Fields, ...], ...]:
        """Each content cut to its failing shapes, at the content's position."""
        return tuple(
            tuple(f for f in shapes if not (f[2] and f[4])) for shapes in self.contents
        )

    @property
    def ok(self) -> bool:
        return not any(self.failing)

    def violations(self) -> tuple[ImmanantReport, ...]:
        return self._build(self.failing)

    def _build(self, contents: tuple[tuple[Fields, ...], ...]) -> tuple[ImmanantReport, ...]:
        """The reports of each selection's fields in ``contents``, one provenance each."""
        out = []
        for r, c, k in self.rows:
            if contents[k]:
                provenance = MatrixProvenance(
                    self.family, self.kind, self.row_sets[r], self.col_sets[c]
                )
                out.extend(ImmanantReport(*fields, provenance) for fields in contents[k])
        return tuple(out)


def _selections(
    n: int, max_size: int, seed: int, exhaustive_limit: int, size_cap: int | None
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[tuple[int, int]], bool, int]:
    """A sweep's selections of an n x n matrix, as tables, in sweep order.

    Returns (row_sets, col_sets, pairs, exhaustive, total): each index set
    once, and one pair of positions into them per selection.  Every
    selection of each size 1..min(max_size, n) is swept when their ``total``
    count is at most ``exhaustive_limit``; both tables are then one list of
    every combination, size by size, and each size's block pairs with itself.
    Else ``pairs`` holds that many draws seeded by ``seed``, each table its
    sets in first-draw order.

    A draw weights each size s by its comb(n, s)**2 selections and makes
    only these calls on ``random.Random(seed)``: one ``random()`` for the
    size, even when there is one size, then for the rows and then the cols
    one ``getrandbits(m.bit_length())`` per try at an index below m.  Those
    are the calls, in order, of ``choices(sizes, cum_weights=cum)`` and two
    ``sample(range(n), s)`` on CPython 3.10-3.13, so the draws equal theirs:
    while n is at most sample's set size, each index comes from a pool of
    the untaken indices, else a redraw below n repeats until it is new.
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
        sets, pairs = [], []
        for s in sizes:
            block = range(len(sets), len(sets) + comb(n, s))
            sets += combinations(range(n), s)
            pairs += product(block, block)
        return sets, sets, pairs, True, total
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    indices = list(range(n))

    def from_pool(steps: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
        pool = indices[:]  # untaken indices at pool[:m]
        out = []
        for m, k in steps:
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            out.append(pool[j])
            pool[j] = pool[m - 1]
        out.sort()
        return tuple(out)

    def by_redraw(steps: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
        taken: set[int] = set()
        for m, k in steps:
            j = getrandbits(k)
            while j >= m or j in taken:
                j = getrandbits(k)
            taken.add(j)
        return tuple(sorted(taken))

    # per size, how sample(range(n), s) draws: its branch, and each index's
    # bound m with the bit count k of its getrandbits(k) tries
    plans = []
    for s in sizes:
        setsize = 21 + (4 ** ceil(log(s * 3, 4)) if s > 5 else 0)
        pooled = n <= setsize
        bounds = range(n, n - s, -1) if pooled else [n] * s
        plans.append(
            (from_pool if pooled else by_redraw, tuple((m, m.bit_length()) for m in bounds))
        )
    cum = list(accumulate(per_size[s] for s in sizes))
    weight, last = cum[-1] + 0.0, len(cum) - 1
    random_ = rng.random
    row_at: dict[tuple[int, ...], int] = {}  # index set -> position
    col_at: dict[tuple[int, ...], int] = {}
    pairs = []
    for _ in range(exhaustive_limit):
        draw, steps = plans[bisect(cum, random_() * weight, 0, last)]
        rows = draw(steps)
        cols = draw(steps)
        r = row_at.setdefault(rows, len(row_at))
        pairs.append((r, col_at.setdefault(cols, len(col_at))))
    return list(row_at), list(col_at), pairs, False, total


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
    row_sets, col_sets, pairs, exhaustive, total = _selections(
        len(grid), max_size, seed, exhaustive_limit, size_cap
    )
    bits = _class_sum_width(grid, min(max_size, len(grid)))
    labels: dict[QPoly, int] = {ZERO: 0}  # so a key's nonzero labels are its support
    ids = [[labels.setdefault(cell, len(labels)) for cell in row] for row in grid]
    packed = [_pack(p.coeffs, bits) for p in labels]  # each distinct entry, by label
    contents: list[tuple[Fields, ...]] = []
    by_content: dict[tuple[int, ...], int] = {}  # content key -> position in contents
    zeros: dict[int, int] = {}  # size -> position of its all-zero fields tuple
    plans: dict[tuple[bool, ...], Plan | None] = {}  # support -> its plan, None if dead

    def decode(number: int) -> tuple[QPoly, bool]:
        value = _unpack(number, bits)
        return value, value.is_q_nonnegative()

    # a packed value means a polynomial only at this sweep's width
    decoded = _Memo(decode)
    out = []
    for r, c in pairs:
        rows, cols = row_sets[r], col_sets[c]
        key = tuple([ids[i][j] for i in rows for j in cols])
        k = by_content.get(key)
        if k is None:
            # chi(sigma) = chi(sigma^-1), so a submatrix and its transpose
            # have the same immanants, determinant and gaps: a content is
            # stored in one orientation, the one it was first seen in
            k = by_content.get(tuple([ids[i][j] for j in cols for i in rows]))
        if k is None:
            s = len(rows)
            support = tuple(map(bool, key))
            if support not in plans:
                plans[support] = _plan(support)
            plan = plans[support]
            if plan is not None:
                # the plan's support is this selection's key's, and so is its cells' order
                k = len(contents)
                contents.append(_reports(s, _run(plan, [packed[x] for x in key]), decoded))
            elif s in zeros:
                k = zeros[s]
            else:
                k = zeros[s] = len(contents)
                zero = [(lam, ZERO, True, ZERO, True) for lam, _, _ in _shapes(s)]
                contents.append(tuple(zero))
            by_content[key] = k
        out.append((r, c, k))
    return SweepResult(
        m.family.name,
        m.kind,
        tuple(tuple(m.row_indices[i] for i in rows) for rows in row_sets),
        tuple(tuple(m.col_indices[j] for j in cols) for cols in col_sets),
        tuple(contents),
        tuple(out),
        exhaustive,
        seed,
        total,
    )


def _reports(n: int, sums: list[int], decoded: _Memo) -> tuple[Fields, ...]:
    """Every shape's report fields but the provenance, from n x n class sums.

    ``decoded[packed]`` is the value's ``QPoly`` and whether it is q-nonnegative.
    """
    *others, (sign, sign_row, _) = _shapes(n)  # shape (1,...,1): the sign character
    det = sum(map(mul, sign_row, sums))
    out = []
    for lam, row, deg in others:
        packed = sum(map(mul, row, sums))
        value, q = decoded[packed]
        gap, g = decoded[packed - deg * det]
        out.append((lam, value, q, gap, g))
    # the sign shape has degree 1 and the determinant as its value: its gap is 0
    value, q = decoded[det]
    out.append((sign, value, q, ZERO, True))
    return tuple(out)


# -- cubic Hankel inequalities ---------------------------------------


def _check_triple(label: str, triple: tuple[int, int, int]) -> None:
    a, b, c = triple
    if not (0 <= a < b < c):
        raise OutOfRange(f"{label} indices must satisfy 0 <= i < j < k, got {triple}")


def inequality_331(
    a: list[QPoly], i: tuple[int, int, int], j: tuple[int, int, int]
) -> QPoly:
    """Cubic form in the sequence terms indexed by two increasing triples.

    Equals the (2,1)-immanant minus twice the determinant of the 3x3
    submatrix of the Hankel matrix (a_{u+v}) with rows i and columns j.
    """
    i1, i2, i3 = i
    j1, j2, j3 = j
    _check_triple("row", (i1, i2, i3))
    _check_triple("col", (j1, j2, j3))
    if i3 + j3 >= len(a):
        raise OutOfRange(
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
    _check_triple("triple", (i, j, k))
    if 2 * k >= len(a):
        raise OutOfRange(f"need terms up to a_{2 * k} but only {len(a)} terms were given")
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
    product below is one big-integer multiply.  The squares a_y**2 and the
    terms a_{2x} a_y**2 depend on an index pair only, so each is computed
    once, as a table over x <= top and every pair sum y < 2 top; the cubic
    term then costs two big-integer multiplies per triple.  Each value is
    unpacked once.

    The digit width comes from the cubic itself, evaluated on the terms'
    l1 norms N_m (sums of absolute coefficients) with every sign made
    positive: since |pq|_1 <= |p|_1 |q|_1, every coefficient of a triple's
    value is at most N_{2i} N_{j+k}**2 + N_{2j} N_{i+k}**2 + N_{2k} N_{i+j}**2
    + 3 N_{i+j} N_{j+k} N_{i+k} in absolute value, and the width holds the
    largest such bound.
    """
    seq = a[: 2 * top + 1]
    triples = list(combinations(range(top + 1), 3))
    n = list(map(_norm, seq))
    bound = max(
        (
            n[2 * i] * n[j + k] ** 2 + n[2 * j] * n[i + k] ** 2 + n[2 * k] * n[i + j] ** 2
            + 3 * n[i + j] * n[j + k] * n[i + k]
            for i, j, k in triples
        ),
        default=0,
    )
    bits = _width(bound)
    packed = [_pack(p.coeffs, bits) for p in seq]
    squares = [p * p for p in packed[: 2 * top]]
    terms = [[packed[2 * x] * sq for sq in squares] for x in range(top + 1)]
    return [
        (
            (i, j, k),
            _unpack(
                terms[i][j + k] + terms[j][i + k] + terms[k][i + j]
                - 3 * packed[i + j] * packed[j + k] * packed[i + k],
                bits,
            ),
        )
        for i, j, k in triples
    ]
