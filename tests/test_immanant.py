"""Unit tests for immanants, determinants, sweeps, and cubic inequalities."""

import argparse
import importlib
import pickle
import random
import re
import sys
import types
from array import array
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from qcatalan.cli import _sweep_csv, _sweep_json, _write_json
from qcatalan.csmatrix import CSMatrix, catalan_like, catalan_stieltjes, hankel, submatrix
from qcatalan.errors import CapExceeded, OutOfRange, ShapeError
from qcatalan.families import FamilySpec, ParamSeq, builtin
from qcatalan.immanant import (
    DEFAULT_SIZE_CAP,
    SIZE_CAP_ENV,
    _class_sum_width,
    _inequality_sweep,
    _plan,
    _run,
    _selections,
    determinant,
    immanant,
    inequality_331,
    inequality_332,
    positivity_sweep,
)
from qcatalan.qpoly import ONE, Q, ZERO, QPoly, _pack, _unpack
from qcatalan.symchar import character, degree, partitions_of

from oracles import (
    class_sums_by_permutation,
    class_sums_by_plan,
    matmul,
    permanent,
    random_grid,
    random_qpoly,
    report_json,
    reports_by_class_sums,
    s3_immanant,
    stdout_of,
    sweep_by_selection,
    sweep_csv_by_report,
    sweep_json_by_report,
)


def control_family() -> FamilySpec:
    """r = 1, s = 0, t = 1 with zero witnesses: fails every condition and
    produces a corner with a negative 2x2 minor."""
    return FamilySpec(
        name="control",
        r_seq=ParamSeq(0, tail=(ONE,)),
        s_seq=ParamSeq(0, tail=(ZERO,)),
        t_seq=ParamSeq(1, tail=(ONE,)),
        witness_b=ParamSeq(0, tail=(ZERO,)),
        witness_c=ParamSeq(0, tail=(ZERO,)),
    )


def test_determinant_frozen_hankel_values():
    f = builtin("narayana")
    assert determinant(hankel(f, 1)) == Q
    assert determinant(hankel(f, 2)) == QPoly([0, 0, 0, 1])  # q^3
    assert determinant(hankel(f, 3)) == QPoly([0] * 6 + [1])  # q^6


def test_determinant_small_cases():
    assert determinant(()) == ONE
    assert determinant(((Q,),)) == Q
    two = QPoly([2])
    grid = ((ONE, two), (QPoly([3]), QPoly([4])))
    assert determinant(grid) == QPoly([-2])


def test_determinant_uses_row_swaps():
    exchange = ((ZERO, ONE), (ONE, ZERO))
    assert determinant(exchange) == -ONE
    grid = (
        (ZERO, Q, ONE),
        (ONE, ZERO, Q),
        (Q, ONE, ZERO),
    )
    assert determinant(grid) == immanant(grid, (1, 1, 1))


def test_determinant_of_singular_matrices():
    row = (ONE, Q, Q * Q)
    assert determinant((row, row, (Q, ONE, ONE))) == ZERO
    zero_col = ((ZERO, ONE), (ZERO, Q))
    assert determinant(zero_col) == ZERO


def test_determinant_agrees_with_alternating_immanant():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(2, 6)
        grid = random_grid(rng, n, allow_negative=True)
        assert determinant(grid) == immanant(grid, (1,) * n)


def test_determinant_is_multiplicative():
    rng = random.Random(8)
    for _ in range(10):
        a = random_grid(rng, 3, allow_negative=True)
        b = random_grid(rng, 3, allow_negative=True)
        assert determinant(matmul(a, b)) == determinant(a) * determinant(b)


def test_top_shape_immanant_is_the_permanent():
    rng = random.Random(9)
    for n in (2, 3, 4):
        for _ in range(5):
            grid = random_grid(rng, n)
            assert immanant(grid, (n,)) == permanent(grid)


def test_three_by_three_immanants_match_hand_characters():
    rng = random.Random(10)
    for _ in range(10):
        grid = random_grid(rng, 3, allow_negative=True)
        for lam in partitions_of(3):
            assert immanant(grid, lam) == s3_immanant(grid, lam)


def test_immanant_sum_rule():
    # Summing deg(lam) * Imm_lam over all shapes gives n! times the
    # diagonal-heavy expansion; at n = 3 check the known combination
    # Imm_(3) + 2 Imm_(2,1) + Imm_(1,1,1) = column-orthogonality at the
    # identity class times the diagonal product plus cross terms; verify
    # against the explicit permutation formula.
    rng = random.Random(11)
    for _ in range(5):
        grid = random_grid(rng, 3)
        combo = immanant(grid, (3,)) + 2 * immanant(grid, (2, 1)) + immanant(
            grid, (1, 1, 1)
        )
        diag = grid[0][0] * grid[1][1] * grid[2][2]
        assert combo == 6 * diag


def test_immanant_of_empty_and_identity():
    assert immanant((), ()) == ONE
    eye = tuple(
        tuple(ONE if i == j else ZERO for j in range(4)) for i in range(4)
    )
    for lam in partitions_of(4):
        assert immanant(eye, lam) == QPoly([degree(lam)])


def test_immanant_validation():
    grid = ((ONE, ZERO), (ZERO, ONE))
    with pytest.raises(ValueError):
        immanant(grid, (1, 2))
    with pytest.raises(ShapeError):
        immanant(grid, (3,))
    with pytest.raises(ShapeError):
        immanant(((ONE,), (ONE, ZERO)), (2,))
    with pytest.raises(ShapeError):
        immanant(((ONE, ZERO),), (1,))
    with pytest.raises(TypeError):
        immanant(((ONE, 1), (ZERO, ONE)), (2,))


# -- subset DP against the permutation oracle -----------------------------


def packed_cells(grid, size):
    """``grid``'s entries packed at the width of a sweep up to ``size``, and that width."""
    bits = _class_sum_width(grid, size)
    return [[_pack(cell.coeffs, bits) for cell in row] for row in grid], bits


def assert_class_sums_match_oracle(grid):
    n = len(grid)
    expected = class_sums_by_permutation(grid)
    cells, bits = packed_cells(grid, n)
    got = class_sums_by_plan(cells)
    assert len(got) == len(partitions_of(n))
    for mu, value in zip(partitions_of(n), got):
        assert _unpack(value, bits) == expected.get(mu, ZERO), (n, mu)


def test_class_sums_match_permutation_oracle_on_random_grids():
    rng = random.Random(31)
    for n in range(8):
        for trial in range(2 if n == 7 else 12):
            grid = random_grid(rng, n, allow_negative=True)
            for row in grid:
                for j in range(n):
                    if rng.random() < 0.3:
                        row[j] = ZERO
            if n >= 3 and trial % 2:
                # the two 3-cycles on i, j, k have products x and -x, which
                # cancel, though every entry on them is nonzero
                i, j, k = rng.sample(range(n), 3)
                x = random_qpoly(rng, allow_negative=True) or ONE
                grid[i][j], grid[j][k], grid[k][i] = x, ONE, ONE
                grid[i][k], grid[k][j], grid[j][i] = -x, ONE, ONE
            assert_class_sums_match_oracle(grid)


@pytest.mark.parametrize("name", ["eulerian", "schroder", "narayana"])
def test_class_sums_match_permutation_oracle_on_builtin_corners(name):
    f = builtin(name)
    for m in (catalan_stieltjes(f, 6), hankel(f, 6)):
        for k in range(1, 8):
            corner = submatrix(m, tuple(range(k)), tuple(range(k)))
            assert_class_sums_match_oracle(corner.entries)


def test_one_plan_runs_every_grid_of_its_support():
    rng = random.Random(53)
    live = 0
    for n in range(1, 7):
        support = [rng.random() < 0.6 for _ in range(n * n)]
        plan = _plan(support)
        live += plan is not None
        for _ in range(2):  # two contents of the one support
            grid = [
                [random_qpoly(rng, allow_negative=True) or ONE if support[i * n + j] else ZERO
                 for j in range(n)]
                for i in range(n)
            ]
            cells, bits = packed_cells(grid, n)
            flat = [cell for row in cells for cell in row]
            assert (_plan(flat) is None) == (plan is None)
            if plan is None:
                assert not _has_nonzero_permutation(grid)
                continue
            expected = class_sums_by_permutation(grid)
            for mu, value in zip(partitions_of(n), _run(plan, flat)):
                assert _unpack(value, bits) == expected.get(mu, ZERO), (n, mu)
    assert live >= 4


def test_no_plan_of_a_nonempty_support_reads_the_register_of_1():
    # a permutation's first cycle is its state's register, not 1 times it
    rng = random.Random(29)
    for n in range(1, 7):
        for density in (1.0, 0.7, 0.5):
            plan = _plan([rng.random() < density for _ in range(n * n)])
            if plan is not None:
                ops, outs, _ = plan
                assert 0 not in ops and 0 not in outs, n
    # n = 0 alone reads it: the empty permutation's product is 1
    assert _plan([])[:2] == (array("I"), [0])
    assert _run(_plan([]), []) == [1]


def test_eight_by_eight_identities():
    rng = random.Random(32)
    grid = random_grid(rng, 8, max_deg=1, max_coeff=2, allow_negative=True)
    assert immanant(grid, (1,) * 8) == determinant(grid)
    assert immanant(grid, (8,)) == permanent(grid)
    combo = ZERO
    for lam in partitions_of(8):
        combo = combo + degree(lam) * immanant(grid, lam)
    diag = ONE
    for i in range(8):
        diag = diag * grid[i][i]
    assert combo == factorial(8) * diag


def test_size_cap(monkeypatch):
    big = tuple(tuple(ZERO for _ in range(10)) for _ in range(10))
    with pytest.raises(CapExceeded):
        immanant(big, (10,))
    small = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
    with pytest.raises(CapExceeded):
        immanant(small, (3,), size_cap=2)
    monkeypatch.setenv(SIZE_CAP_ENV, "2")
    with pytest.raises(CapExceeded, match=f"{SIZE_CAP_ENV}.*size_cap="):
        immanant(small, (3,))
    assert immanant(small, (3,), size_cap=3) == ONE
    monkeypatch.setenv(SIZE_CAP_ENV, "not-a-number")
    with pytest.raises(ValueError):
        immanant(small, (3,))
    monkeypatch.delenv(SIZE_CAP_ENV)
    assert DEFAULT_SIZE_CAP == 9
    assert immanant(small, (3,)) == ONE


# -- sweeps -----------------------------------------------------------


def test_exhaustive_sweep_on_clean_corner():
    m = catalan_stieltjes(builtin("narayana"), 3)
    result = positivity_sweep(m, 3)
    assert result.exhaustive
    assert result.total_candidates == 16 + 36 + 16
    assert len(result.reports) == 16 * 1 + 36 * 2 + 16 * 3
    assert result.ok
    assert result.violations() == ()
    for report in result.reports:
        assert report.q_nonnegative and report.gap_nonnegative
        assert report.provenance.family == "narayana"
        assert report.provenance.kind == "catalan_stieltjes"
        if report.lam == (1,) * sum(report.lam):
            assert report.dominance_gap == ZERO


def test_sweep_reports_are_consistent_with_direct_calls():
    m = hankel(builtin("schroder"), 2)
    result = positivity_sweep(m, 3)
    for report in result.reports:
        rows = report.provenance.rows
        cols = report.provenance.cols
        sub = submatrix(m, rows, cols)
        assert report.value == immanant(sub, report.lam)
        expected_gap = report.value - degree(report.lam) * determinant(sub)
        assert report.dominance_gap == expected_gap


def test_sweep_detects_negative_minor():
    m = catalan_stieltjes(control_family(), 2)
    assert m.entries == (
        (ONE, ZERO, ZERO),
        (ZERO, ONE, ZERO),
        (ONE, ZERO, ONE),
    )
    result = positivity_sweep(m, 2)
    assert not result.ok
    bad = result.violations()
    assert bad
    assert any(
        r.lam == (1, 1)
        and r.value == -ONE
        and r.provenance.rows == (1, 2)
        and r.provenance.cols == (0, 1)
        for r in bad
    )


def test_sweep_sampling_is_seed_deterministic():
    m = hankel(builtin("narayana"), 4)
    first = positivity_sweep(m, 3, seed=5, exhaustive_limit=10)
    second = positivity_sweep(m, 3, seed=5, exhaustive_limit=10)
    assert not first.exhaustive
    assert first.seed == 5
    assert first.total_candidates > 10
    assert first.reports == second.reports
    other = positivity_sweep(m, 3, seed=6, exhaustive_limit=10)
    assert first.reports != other.reports


def _draws_by_weights(n, max_size, seed, count):
    """Sampled selections drawn with a per-draw ``weights=`` list."""
    sizes = range(1, min(max_size, n) + 1)
    weights = [comb(n, s) ** 2 for s in sizes]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        s = rng.choices(list(sizes), weights=weights)[0]
        rows = tuple(sorted(rng.sample(range(n), s)))
        cols = tuple(sorted(rng.sample(range(n), s)))
        out.append((rows, cols))
    return out


@pytest.mark.parametrize(
    "n, max_size, seed, limit",
    [
        (18, 2, 1234567, 20000),
        (9, 4, 3, 500),
        (6, 6, 0, 300),
        (12, 3, 99, 2000),
        # sample(range(n), s) takes its pool branch while n <= 21 (s <= 5),
        # 85 (s = 6 to 21) or 277 (s = 22), and its set branch past that
        (21, 2, 5, 300),
        (22, 2, 0, 300),
        (85, 6, 2**40 + 7, 300),
        (86, 6, -17, 300),
        (85, 21, 8, 100),
        (86, 22, 0, 100),  # size 22 from the pool, size 21 by redraws
        (300, 22, -(2**40 + 7), 100),
        (300, 3, 11, 300),
        # one size still costs one random() per draw
        (30, 1, 0, 200),
        (2, 1, 4, 3),
        # a single draw
        (18, 2, -1, 1),
        (86, 22, 2**40 + 7, 1),
    ],
)
def test_sampled_selections_match_per_draw_weights(n, max_size, seed, limit):
    row_sets, col_sets, pairs, exhaustive, total = _selections(
        n, max_size, seed, limit, max_size
    )
    assert not exhaustive
    assert total == sum(comb(n, s) ** 2 for s in range(1, min(max_size, n) + 1))
    draws = _draws_by_weights(n, max_size, seed, limit)
    assert [(row_sets[r], col_sets[c]) for r, c in pairs] == draws
    # each table holds each distinct set once, in first-draw order
    assert row_sets == list(dict.fromkeys(rows for rows, _ in draws))
    assert col_sets == list(dict.fromkeys(cols for _, cols in draws))


@pytest.mark.parametrize("n, max_size", [(0, 1), (1, 1), (3, 3), (4, 2), (5, 5), (6, 3)])
def test_exhaustive_selections_pair_every_combination_within_its_size(n, max_size):
    row_sets, col_sets, pairs, exhaustive, total = _selections(n, max_size, 0, 20000, max_size)
    assert exhaustive
    sizes = range(1, min(max_size, n) + 1)
    sets = [c for s in sizes for c in combinations(range(n), s)]
    assert row_sets == col_sets == sets
    # each size's block, row-major: every row set of the size with every col set of it
    assert pairs == [
        (sets.index(rows), sets.index(cols))
        for s in sizes
        for rows in combinations(range(n), s)
        for cols in combinations(range(n), s)
    ]
    assert len(pairs) == total == sum(comb(n, s) ** 2 for s in sizes)


def test_sampled_sweep_reuses_repeats_with_exhaustive_reports():
    m = hankel(builtin("narayana"), 4)
    exhaustive = positivity_sweep(m, 3)
    by_selection: dict = {}
    for report in exhaustive.reports:
        key = (report.provenance.rows, report.provenance.cols)
        by_selection.setdefault(key, []).append(report)
    sampled = positivity_sweep(m, 3, seed=3, exhaustive_limit=150)
    assert not sampled.exhaustive
    drawn = []
    reports = list(sampled.reports)
    while reports:
        p = reports[0].provenance
        expected = by_selection[(p.rows, p.cols)]
        assert reports[: len(expected)] == expected
        drawn.append((p.rows, p.cols))
        reports = reports[len(expected):]
    assert len(drawn) == 150
    assert len(set(drawn)) < len(drawn)


def test_sweep_reports_are_slotted_and_survive_pickling():
    report = positivity_sweep(hankel(builtin("narayana"), 3), 2).reports[-1]
    assert not hasattr(report, "__dict__")
    assert not hasattr(report.provenance, "__dict__")
    copy = pickle.loads(pickle.dumps(report))
    assert copy is not report
    assert copy == report and hash(copy) == hash(report)
    assert report_json(copy) == report_json(report)


def test_sweep_size_is_clamped_to_matrix():
    m = hankel(builtin("narayana"), 1)
    result = positivity_sweep(m, 5)
    # sizes 1 and 2 only: 4 + 1 selections, 4*1 + 1*2 reports
    assert result.total_candidates == 5
    assert len(result.reports) == 6


def test_sweep_validation():
    m = hankel(builtin("narayana"), 1)
    with pytest.raises(ValueError):
        positivity_sweep(m, 0)
    with pytest.raises(CapExceeded, match=f"{SIZE_CAP_ENV}.*size_cap="):
        positivity_sweep(m, 3, size_cap=2)


def test_sweep_rejects_a_plain_grid():
    # the reports' provenance comes from the CSMatrix; a grid has none
    grid = [list(row) for row in hankel(builtin("narayana"), 1).entries]
    with pytest.raises(TypeError, match="CSMatrix"):
        positivity_sweep(grid, 1)


@pytest.mark.parametrize("limit", [0, -1])
def test_sweep_rejects_an_exhaustive_limit_below_1(limit):
    # a limit of 0 would sample nothing and report ok
    m = hankel(builtin("narayana"), 3)
    with pytest.raises(ValueError, match="exhaustive_limit must be >= 1"):
        positivity_sweep(m, 2, exhaustive_limit=limit)


def test_sweep_provenance_composes_through_submatrices():
    h = hankel(builtin("narayana"), 3)
    sub = submatrix(h, (1, 2, 3), (0, 2, 3))
    result = positivity_sweep(sub, 1)
    assert {r.provenance.rows for r in result.reports} <= {(1,), (2,), (3,)}
    assert {r.provenance.cols for r in result.reports} <= {(0,), (2,), (3,)}
    for report in result.reports:
        assert report.provenance.kind == "submatrix"


def test_report_json_shape():
    m = catalan_stieltjes(builtin("narayana"), 1)
    result = positivity_sweep(m, 1)
    doc = report_json(result.reports[0])
    assert set(doc) == {
        "lambda",
        "value",
        "q_nonnegative",
        "dominance_gap",
        "gap_nonnegative",
        "provenance",
    }
    assert set(doc["provenance"]) == {"family", "kind", "rows", "cols"}


# -- content-keyed sweeps against the per-selection oracle ------------


def assert_sweep_matches_oracle(m, max_size, **kwargs):
    got = positivity_sweep(m, max_size, **kwargs)
    want = sweep_by_selection(m, max_size, **kwargs)
    assert got.exhaustive == want.exhaustive
    assert got.seed == want.seed
    assert got.total_candidates == want.total_candidates
    assert len(got.reports) == len(want.reports)
    for g, w in zip(got.reports, want.reports):
        assert g.lam == w.lam
        assert g.value == w.value
        assert g.q_nonnegative == w.q_nonnegative
        assert g.dominance_gap == w.dominance_gap
        assert g.gap_nonnegative == w.gap_nonnegative
        assert g.provenance == w.provenance
    assert got.ok == want.ok
    assert got.violations() == want.violations()
    assert stdout_of(_sweep_csv, got) == sweep_csv_by_report(want)
    args = argparse.Namespace(matrix=m.kind, n=m.nrows, max_size=max_size)
    assert stdout_of(_write_json, _sweep_json(args, m.family, got)) == sweep_json_by_report(
        m.family.name, m.kind, m.nrows, max_size, want
    )
    return got


@pytest.mark.parametrize("name", ["eulerian", "schroder", "narayana"])
def test_sweep_matches_per_selection_oracle_on_builtins(name):
    f = builtin(name)
    for n in range(7):
        assert_sweep_matches_oracle(catalan_stieltjes(f, n), n + 1)
    for n in range(6):
        assert_sweep_matches_oracle(hankel(f, n), n + 1)
    assert_sweep_matches_oracle(hankel(f, 6), 2)


def test_sampled_sweep_matches_per_selection_oracle():
    m = hankel(builtin("schroder"), 6)
    got = assert_sweep_matches_oracle(m, 4, seed=11, exhaustive_limit=400)
    assert not got.exhaustive
    drawn = {(r.provenance.rows, r.provenance.cols) for r in got.reports}
    assert len(drawn) < 400


POOL = (ZERO, ZERO, ONE, -ONE, Q, ONE + Q, 2 - Q, Q * Q - 3)


def _pool_matrix(rng, n, symmetric=False):
    entries = [[rng.choice(POOL) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                entries[i][j] = entries[j][i]
    offset = rng.randrange(3)
    return CSMatrix(
        tuple(map(tuple, entries)),
        "pool",
        builtin("narayana"),
        tuple(range(offset, offset + n)),
        tuple(range(2 * offset, 2 * offset + n)),
    )


def test_sweep_matches_per_selection_oracle_on_colliding_contents():
    rng = random.Random(71)
    for n in range(1, 6):
        for _ in range(3):
            assert_sweep_matches_oracle(_pool_matrix(rng, n), n)
    symmetric = _pool_matrix(rng, 5, symmetric=True)
    assert any(not r.q_nonnegative for r in assert_sweep_matches_oracle(symmetric, 5).reports)
    sampled = _pool_matrix(rng, 6)
    assert_sweep_matches_oracle(sampled, 6, seed=4, exhaustive_limit=300)


def test_sweep_of_a_submatrix_maps_rows_and_cols_through_their_own_indices():
    # rows and cols come from different, non-identity index maps, so a
    # column set mapped or rendered as a row set shows in the output
    h = hankel(builtin("narayana"), 8)
    m = submatrix(h, (0, 2, 3, 5, 8), (1, 2, 4, 6, 7))
    assert m.row_indices != m.col_indices
    assert_sweep_matches_oracle(m, 5)
    sampled = assert_sweep_matches_oracle(m, 3, seed=5, exhaustive_limit=150)
    drawn = [(r, c) for r, c, _ in sampled.rows]
    assert not sampled.exhaustive and len(set(drawn)) < len(drawn)


def test_sweep_stores_each_row_set_and_column_set_once():
    result = positivity_sweep(catalan_stieltjes(builtin("eulerian"), 6), 7)
    assert result.exhaustive and len(result.rows) == 3431
    # 2**7 - 1 nonempty index sets of a 7x7 matrix, each at one position
    for sets in (result.row_sets, result.col_sets):
        assert len(sets) == len(set(sets)) == 127
    assert {r for r, _, _ in result.rows} == {c for _, c, _ in result.rows} == set(range(127))


def _plain_matrix(entries):
    n = len(entries)
    return CSMatrix(
        tuple(map(tuple, entries)), "plain", builtin("narayana"), tuple(range(n)), tuple(range(n))
    )


def test_sweep_with_a_zero_row_packs_wide_enough_for_the_other_rows():
    # Row 1 is zero.  Its row sum counts as 1 in the width bound: as 0 it
    # would make the bound 0, too narrow for every entry of the other rows.
    big = 10**6
    entries = [
        [QPoly([big + 3, -5]), QPoly([-big, 0, 7]), QPoly([big - 11])],
        [ZERO, ZERO, ZERO],
        [QPoly([big - 2, big]), QPoly([9, -big]), QPoly([-(big + 1), 1])],
    ]
    m = _plain_matrix(entries)
    result = assert_sweep_matches_oracle(m, 3)
    (a, b, _), _, (c, d, _) = entries
    picked = ((0, 2), (0, 1))
    values = {
        r.lam: r.value
        for r in result.reports
        if (r.provenance.rows, r.provenance.cols) == picked
    }
    assert values == {(2,): a * d + b * c, (1, 1): a * d - b * c}
    for r in result.reports:
        if len(r.provenance.rows) == 3:  # holds the zero row
            assert r.value == ZERO == r.dominance_gap


@pytest.mark.parametrize("sign", [1, -1])
def test_sweep_value_meets_its_bound_on_a_diagonal_grid(sign):
    # diag(c, ..., c) with c = +-2**k: only the identity has a nonzero product,
    # so the widest shape's value is D * c**n, the bound D * P on every value
    # (D the largest degree, P = 2**(k n) the product of the row sums).
    for n in range(1, 6):
        widest = max(partitions_of(n), key=degree)
        top = degree(widest)
        for k in (3, 8, 21):
            c = sign * 2**k
            entries = [[QPoly([c]) if i == j else ZERO for j in range(n)] for i in range(n)]
            assert immanant(entries, widest) == QPoly([top * c**n])
            result = assert_sweep_matches_oracle(_plain_matrix(entries), n)
            values = [r.value for r in result.reports if r.lam == widest]
            assert values == [QPoly([top * c**n])]


@pytest.mark.parametrize("sign", [1, -1])
def test_immanant_meets_its_bound(sign):
    # diag(c, ..., c) with c = +-2**k: only the identity has a nonzero product,
    # so the lam-immanant is d_lam c**n, its bound sum |chi^lam(mu)| N_mu itself
    # (N_mu the class sums of the entries' norms: |c|**n at mu = (1, ..., 1),
    # else 0).  [[c, c], [-c, c]] has the determinant 2 c**2, its bound
    # c**2 + |-1| c**2, and the permanent 0.  Over these k, a width from a
    # smaller bound falls a byte short somewhere.
    for k in range(24):
        c = sign * 2**k
        for n in range(1, 7):
            entries = [[QPoly([c]) if i == j else ZERO for j in range(n)] for i in range(n)]
            for lam in partitions_of(n):
                assert immanant(entries, lam) == QPoly([degree(lam) * c**n]), (k, lam)
        entries = [[QPoly([c]), QPoly([c])], [QPoly([-c]), QPoly([c])]]
        assert immanant(entries, (1, 1)) == QPoly([2 * c**2])
        assert immanant(entries, (2,)) == ZERO


@pytest.mark.parametrize("sign", [1, -1])
def test_sweep_gap_meets_its_bound_on_an_antidiagonal_grid(sign):
    # [[0, c], [sign c, 0]] with c = 2**k: the (2) immanant is sign c**2 and
    # the determinant -sign c**2, so the gap is 2 sign c**2, the bound 2 D P
    # on every gap (D = 1, P = c**2).  With k = 3 the gap needs the top bit
    # of its digit width.
    for k in (3, 8, 21):
        c = 2**k
        m = _plain_matrix([[ZERO, QPoly([c])], [QPoly([sign * c]), ZERO]])
        result = assert_sweep_matches_oracle(m, 2)
        whole = [r for r in result.reports if len(r.provenance.rows) == 2]
        assert [(r.lam, r.value, r.dominance_gap) for r in whole] == [
            ((2,), QPoly([sign * c**2]), QPoly([2 * sign * c**2])),
            ((1, 1), QPoly([-sign * c**2]), ZERO),
        ]


def _transpose(grid):
    return [list(col) for col in zip(*grid)]


def _combine(sums, lam):
    """The lam-immanant as the character combination of permutation class sums."""
    total = ZERO
    for mu, value in sums.items():
        total = total + character(lam, mu) * value
    return total


def test_transpose_keeps_every_immanant_and_the_determinant():
    rng = random.Random(72)
    for n in range(7):
        for _ in range(1 if n == 6 else 4):
            grid = random_grid(rng, n, allow_negative=True)
            flipped = _transpose(grid)
            sums = class_sums_by_permutation(grid)
            assert class_sums_by_permutation(flipped) == sums
            for lam in partitions_of(n):
                want = _combine(sums, lam)
                assert immanant(grid, lam) == want
                assert immanant(flipped, lam) == want
            assert determinant(flipped) == determinant(grid)
            assert determinant(grid) == _combine(sums, (1,) * n)


def test_support_without_a_permutation_gives_zero_reports():
    # Rows 2 and 3 are nonzero only in column 1: no permutation avoids a zero.
    grid = [
        [ONE + Q, 2 - Q, Q],
        [-ONE, ZERO, ZERO],
        [Q * Q, ZERO, ZERO],
    ]
    cells, _ = packed_cells(grid, 3)
    assert class_sums_by_plan(cells) == [0, 0, 0]
    assert _plan([cell for row in cells for cell in row]) is None
    result = assert_sweep_matches_oracle(_plain_matrix(grid), 3)
    got = [r for r in result.reports if len(r.provenance.rows) == 3]
    assert got == reports_by_class_sums(grid, got[0].provenance)
    assert [r.lam for r in got] == list(partitions_of(3))
    for report in got:
        assert report.value == ZERO == immanant(grid, report.lam)
        assert report.dominance_gap == ZERO
        assert report.q_nonnegative and report.gap_nonnegative
    assert determinant(grid) == ZERO


# Two 3x3 grids with one support, each of whose rows has two nonzero
# entries: two 3-cycles have nonzero products, which cancel in the first.
CANCELLING = [[ZERO, ONE, -ONE], [-ONE, ZERO, ONE], [ONE, -ONE, ZERO]]
LIVE = [[ZERO, ONE, ONE], [ONE, ZERO, ONE], [ONE, ONE, ZERO]]


@pytest.mark.parametrize("blocks", [(CANCELLING, LIVE), (LIVE, CANCELLING)])
def test_sweep_tells_a_dead_support_from_class_sums_that_cancel(blocks):
    # Deadness is read off the DP, never off all-zero sums: the cancelling
    # grid's support has a plan, so a later grid on it must still be computed.
    for grid in blocks:
        cells, _ = packed_cells(grid, 3)
        assert any(class_sums_by_plan(cells)) == (grid is LIVE)
        assert _plan([cell for row in cells for cell in row]) is not None
    first, second = blocks
    entries = [[ZERO] * 6 for _ in range(6)]  # first at the top left, second below right
    for i in range(3):
        entries[i][:3] = first[i]
        entries[i + 3][3:] = second[i]
    result = assert_sweep_matches_oracle(_plain_matrix(entries), 3)
    whole = {
        r.provenance.rows: r.value
        for r in result.reports
        if r.lam == (3,) and r.provenance.rows == r.provenance.cols
    }
    assert {whole[(0, 1, 2)], whole[(3, 4, 5)]} == {ZERO, QPoly([2])}


def test_sweep_runs_a_plan_on_cells_in_its_key_orientation():
    # The support [[1, 1, 0], [0, 1, 1], [1, 0, 1]] is not symmetric, and
    # its one 3-cycle 0 -> 1 -> 2 -> 0 runs the other way in the transpose.
    # A content is keyed, planned and run in the orientation of the first
    # selection that holds it, row-major here, so cells gathered column-major
    # would feed the plan zeros where it multiplies nonzero entries.
    rng = random.Random(61)
    support = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    for _ in range(3):
        grid = [
            [random_qpoly(rng, allow_negative=True) or ONE if on else ZERO for on in row]
            for row in support
        ]
        result = assert_sweep_matches_oracle(_plain_matrix(grid), 3)
        (a, b, _), (_, c, d), (e, _, f) = grid
        values = {r.lam: r.value for r in result.reports if len(r.provenance.rows) == 3}
        assert values[(3,)] == a * c * f + b * d * e
        assert values[(1, 1, 1)] == a * c * f + b * d * e


def _has_nonzero_permutation(grid) -> bool:
    return any(
        all(row[j] for row, j in zip(grid, perm)) for perm in permutations(range(len(grid)))
    )


def _contents_up_to_transpose(entries, max_size) -> tuple[int, int]:
    """How many contents a sweep stores, and how many it would without transposes.

    Each distinct submatrix is one content, a submatrix and its transpose
    one between them, and every submatrix of one size on a dead support
    (no permutation of nonzero entries) one with all the others of its size.
    """
    live, by_rows, dead_sizes = set(), set(), set()
    for s in range(1, max_size + 1):
        for rows in combinations(range(len(entries)), s):
            for cols in combinations(range(len(entries)), s):
                sub = tuple(tuple(entries[i][j] for j in cols) for i in rows)
                if _has_nonzero_permutation(sub):
                    live.add(frozenset((sub, tuple(zip(*sub)))))
                    by_rows.add(sub)
                else:
                    dead_sizes.add(s)
    return len(live) + len(dead_sizes), len(by_rows) + len(dead_sizes)


@pytest.mark.parametrize(
    "make, max_size",
    [
        (lambda: hankel(builtin("narayana"), 5), 3),
        (lambda: hankel(builtin("eulerian"), 3), 4),
        (lambda: _pool_matrix(random.Random(83), 5, symmetric=True), 4),
    ],
    ids=["narayana-H5", "eulerian-H3", "pool-symmetric"],
)
def test_sweep_of_a_symmetric_matrix_stores_a_content_and_its_transpose_once(make, max_size):
    # On a symmetric matrix the selection (cols, rows) is the transpose of
    # (rows, cols), with its own row-major labels: only the lookup of the
    # transposed labels finds the content that the first one stored.
    m = make()
    assert m.entries == tuple(zip(*m.entries))
    result = positivity_sweep(m, max_size)
    assert result.exhaustive
    want, without_transposes = _contents_up_to_transpose(m.entries, max_size)
    assert len(result.contents) == want < without_transposes


def test_each_support_is_planned_once_per_sweep(monkeypatch):
    # On a lower-triangular grid with distinct entries, many contents share
    # one support, most of them dead.  A sweep plans each support once and
    # runs that plan, or takes zeros, for its other contents.
    n = 6
    entries = [[QPoly([1 + i, j]) if j <= i else ZERO for j in range(n)] for i in range(n)]
    contents = set()  # each content, up to transpose
    dead_contents = set()
    for s in range(1, n + 1):
        for rows in combinations(range(n), s):
            for cols in combinations(range(n), s):
                sub = [[entries[i][j] for j in cols] for i in rows]
                content = min(repr(sub), repr(_transpose(sub)))
                contents.add(content)
                if not _has_nonzero_permutation(sub):
                    dead_contents.add(content)
    module = importlib.import_module("qcatalan.immanant")
    real = module._plan
    planned = []

    def counting(support):
        planned.append(tuple(support))
        return real(support)

    monkeypatch.setattr(module, "_plan", counting)
    for _ in range(2):  # a second sweep plans afresh
        planned.clear()
        result = positivity_sweep(_plain_matrix(entries), n)
        assert planned and len(planned) == len(set(planned))
        assert len(contents) > 4 * len(planned)
        dead = [s for s in planned if real(s) is None]
        assert dead and len(dead_contents) > 2 * len(dead)
    monkeypatch.undo()
    assert result == assert_sweep_matches_oracle(_plain_matrix(entries), n)


def test_equal_values_and_gaps_of_one_sweep_are_one_qpoly():
    result = positivity_sweep(catalan_stieltjes(builtin("narayana"), 5), 6)
    by_coeffs: dict[tuple[int, ...], set[int]] = {}
    held = 0
    for shapes in result.contents:
        for _, value, _, gap, _ in shapes:
            for p in (value, gap):
                by_coeffs.setdefault(p.coeffs, set()).add(id(p))
                held += 1
    assert held > 2 * len(by_coeffs)
    assert all(len(ids) == 1 for ids in by_coeffs.values())


def test_sweeps_at_other_digit_widths_decode_their_own_values():
    # 1 + q packs to 257 at 8 bits, and 257 packs to 257 at 16: each sweep
    # decodes its values at its own width.
    for coeffs in ([1, 1], [257], [1, 1]):
        m = _plain_matrix([[QPoly(coeffs)]])
        result = assert_sweep_matches_oracle(m, 1)
        assert [value for _, value, _, _, _ in result.contents[0]] == [QPoly(coeffs)]
    narrow, wide = _class_sum_width([[QPoly([1, 1])]], 1), _class_sum_width([[QPoly([257])]], 1)
    assert narrow == 8 and wide == 16
    assert _pack((1, 1), narrow) == _pack((257,), wide) == 257


def test_zero_contents_of_one_size_share_one_fields_tuple():
    m = catalan_stieltjes(builtin("narayana"), 5)
    result = positivity_sweep(m, 4)
    zeros: dict[int, dict[tuple, int]] = {}  # size -> content -> position in contents
    for r, c, k in result.rows:
        if all(value.is_zero() for _, value, _, _, _ in result.contents[k]):
            rows, cols = result.row_sets[r], result.col_sets[c]
            content = tuple(m.entries[i][j] for i in rows for j in cols)
            zeros.setdefault(len(rows), {})[content] = k
    assert sorted(zeros) == [1, 2, 3, 4]
    for size, by_content in zeros.items():
        positions = set(by_content.values())
        assert len(positions) == 1, size
        assert len(by_content) >= 2 or size == 1, size
        shapes = result.contents[positions.pop()]
        # the one tuple of the size, held at one position
        assert sum(other is shapes for other in result.contents) == 1, size
        assert [lam for lam, _, _, _, _ in shapes] == list(partitions_of(size))
        assert all(q and g and gap.is_zero() for _, _, q, gap, g in shapes)


# -- cubic inequalities ------------------------------------------------


def _triples(limit):
    return [
        (i, j, k)
        for i in range(limit + 1)
        for j in range(i + 1, limit + 1)
        for k in range(j + 1, limit + 1)
    ]


def test_331_equals_immanant_minus_twice_determinant():
    for name in ("eulerian", "schroder", "narayana"):
        f = builtin(name)
        a = catalan_like(f, 10)
        h = hankel(f, 5)
        for rows in ((0, 1, 2), (0, 2, 4), (1, 3, 5)):
            for cols in ((0, 1, 2), (0, 1, 5), (2, 3, 4)):
                sub = submatrix(h, rows, cols)
                expected = immanant(sub, (2, 1)) - 2 * determinant(sub)
                assert inequality_331(a, rows, cols) == expected


def test_331_diagonal_is_twice_332():
    # an identity of the cubic forms, so it holds for any sequence, including
    # ones with negative coefficients; the inequality sweep relies on it
    rng = random.Random(331)
    names = ("eulerian", "schroder", "narayana")
    sequences = [catalan_like(builtin(name), 10) for name in names]
    sequences += [
        [random_qpoly(rng, max_deg=3, allow_negative=True) for _ in range(11)]
        for _ in range(8)
    ]
    for a in sequences:
        for i, j, k in _triples(5):
            assert inequality_331(a, (i, j, k), (i, j, k)) == 2 * inequality_332(
                a, i, j, k
            )


def test_332_is_q_nonnegative_for_builtins():
    for name in ("eulerian", "schroder", "narayana"):
        a = catalan_like(builtin(name), 10)
        for i, j, k in _triples(5):
            assert inequality_332(a, i, j, k).is_q_nonnegative()


def test_332_anchor_value():
    # With a = (1, q, q + q^2, ...) from the narayana family:
    # a_0 a_3^2 + a_2 a_2^2 + a_4 a_1^2 - 3 a_1 a_2 a_3 at (0, 1, 2).
    a = catalan_like(builtin("narayana"), 4)
    value = (
        a[0] * a[3] ** 2
        + a[2] * a[2] ** 2
        + a[4] * a[1] ** 2
        - 3 * (a[1] * a[2] * a[3])
    )
    assert inequality_332(a, 0, 1, 2) == value
    assert value.is_q_nonnegative()


def test_inequality_sweep_matches_332_on_every_triple():
    rng = random.Random(332)
    names = ("eulerian", "schroder", "narayana")
    sequences = [catalan_like(builtin(name), 12) for name in names]
    big = dict(max_deg=4, max_coeff=10**30, allow_negative=True)
    sequences += [[random_qpoly(rng, **big) for _ in range(13)] for _ in range(6)]
    for a in sequences:
        for top in (2, 3, 6):
            want = [(t, inequality_332(a, *t)) for t in _triples(top)]
            assert _inequality_sweep(a, top) == want


def test_inequality_sweep_holds_every_coefficient_within_its_triple_bound():
    # the cubic on the terms' l1 norms, every sign made positive, bounds each
    # coefficient of its triple's value: the bound the sweep's width holds
    rng = random.Random(3320)
    names = ("eulerian", "schroder", "narayana")
    sequences = [catalan_like(builtin(name), 12) for name in names]
    big = dict(max_deg=4, max_coeff=10**30, allow_negative=True)
    sequences += [[random_qpoly(rng, **big) for _ in range(13)] for _ in range(6)]
    for a in sequences:
        n = [sum(map(abs, p.coeffs)) for p in a]
        for top in (2, 3, 6):
            for (i, j, k), value in _inequality_sweep(a, top):
                bound = (
                    n[2 * i] * n[j + k] ** 2 + n[2 * j] * n[i + k] ** 2
                    + n[2 * k] * n[i + j] ** 2 + 3 * n[i + j] * n[j + k] * n[i + k]
                )
                assert all(abs(c) <= bound for c in value.coeffs), (i, j, k)


def test_inequality_sweep_at_its_coefficient_bound():
    # a = (c, c, c, -c, c): at (0, 1, 2) the value is 3 c^3 + 3 c^3 = 6 c^3, the
    # sweep's bound c^3 + c^3 + c^3 + 3 c^3 on the terms' norms itself, which
    # needs the top bit of its digit width for some k; k = 23 is one where the
    # bound without its cross term 3 c^3 gives a width one byte short
    for k in range(40):
        c = 2**k
        a = [QPoly([x]) for x in (c, c, c, -c, c)]
        assert inequality_332(a, 0, 1, 2) == QPoly([6 * c**3])
        assert _inequality_sweep(a, 2) == [((0, 1, 2), QPoly([6 * c**3]))]
        a = [QPoly([0, -x]) for x in (c, c, c, -c, c)]
        assert _inequality_sweep(a, 2) == [((0, 1, 2), QPoly([0, 0, 0, -6 * c**3]))]


def test_inequality_index_validation():
    a = catalan_like(builtin("narayana"), 5)  # a_0..a_5: 6 terms
    order = "indices must satisfy 0 <= i < j < k, got"
    calls = [
        (lambda: inequality_332(a, 1, 1, 2), f"triple {order} (1, 1, 2)"),
        (lambda: inequality_332(a, 2, 1, 0), f"triple {order} (2, 1, 0)"),
        (lambda: inequality_331(a, (0, 1, 1), (0, 1, 2)), f"row {order} (0, 1, 1)"),
        (lambda: inequality_331(a, (0, 1, 2), (1, 1, 2)), f"col {order} (1, 1, 2)"),
        # too few terms: the message names the largest term the form reads
        (lambda: inequality_332(a, 0, 1, 6), "need terms up to a_12 but only 6 terms were given"),
        (lambda: inequality_332(a, 0, 1, 4), "need terms up to a_8 but only 6 terms were given"),
        (
            lambda: inequality_331(a, (0, 1, 2), (0, 1, 6)),
            "need terms up to a_8 but only 6 terms were given",
        ),
        (
            lambda: inequality_331(a, (0, 1, 3), (0, 1, 3)),
            "need terms up to a_6 but only 6 terms were given",
        ),
    ]
    for call, message in calls:
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            call()


def test_package_attribute_immanant_is_the_function_and_shadows_the_module():
    # README's library tour: the module is reached through importlib
    import qcatalan

    module = importlib.import_module("qcatalan.immanant")
    assert qcatalan.immanant is immanant
    assert not isinstance(qcatalan.immanant, types.ModuleType)
    assert sys.modules["qcatalan.immanant"] is module
    assert isinstance(module, types.ModuleType) and module.immanant is immanant
    namespace = {}
    exec("import qcatalan.immanant as m", namespace)
    assert namespace["m"] is immanant
