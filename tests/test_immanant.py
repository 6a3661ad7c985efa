"""Unit tests for immanants, determinants, sweeps, and cubic inequalities."""

import argparse
import json
import random
from math import comb, factorial

import pytest

from qcatalan.cli import _sweep_csv, _sweep_json
from qcatalan.csmatrix import CSMatrix, catalan_like, catalan_stieltjes, hankel, submatrix
from qcatalan.errors import CapExceeded, ShapeError
from qcatalan.families import FamilySpec, ParamSeq, builtin
from qcatalan.immanant import (
    DEFAULT_SIZE_CAP,
    SIZE_CAP_ENV,
    MatrixProvenance,
    _class_sums,
    _inequality_sweep,
    _packed,
    _reports,
    _selections,
    determinant,
    immanant,
    inequality_331,
    inequality_332,
    positivity_sweep,
)
from qcatalan.qpoly import ONE, Q, ZERO, QPoly, _unpack
from qcatalan.symchar import character, degree, partitions_of

from oracles import (
    class_sums_by_permutation,
    matmul,
    permanent,
    random_grid,
    random_qpoly,
    reports_by_class_sums,
    s3_immanant,
    sweep_by_selection,
)


def control_family() -> FamilySpec:
    """r = 1, s = 0, t = 1 with zero witnesses: fails every condition and
    produces a corner with a negative 2x2 minor."""
    return FamilySpec(
        name="control",
        r_seq=ParamSeq(0, constant=ONE),
        s_seq=ParamSeq(0, constant=ZERO),
        t_seq=ParamSeq(1, constant=ONE),
        witness_b=ParamSeq(0, constant=ZERO),
        witness_c=ParamSeq(0, constant=ZERO),
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


def assert_class_sums_match_oracle(grid):
    n = len(grid)
    expected = class_sums_by_permutation(grid)
    cells, bits = _packed(grid, n)
    got = _class_sums(cells)
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
            assert_class_sums_match_oracle(grid)


@pytest.mark.parametrize("name", ["eulerian", "schroder", "narayana"])
def test_class_sums_match_permutation_oracle_on_builtin_corners(name):
    f = builtin(name)
    for m in (catalan_stieltjes(f, 6), hankel(f, 6)):
        for k in range(1, 8):
            corner = submatrix(m, tuple(range(k)), tuple(range(k)))
            assert_class_sums_match_oracle(corner.entries)


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
    [(18, 2, 1234567, 20000), (9, 4, 3, 500), (6, 6, 0, 300), (12, 3, 99, 2000)],
)
def test_sampled_selections_match_per_draw_weights(n, max_size, seed, limit):
    selections, exhaustive, total = _selections(n, max_size, seed, limit, None)
    assert not exhaustive
    assert total == sum(comb(n, s) ** 2 for s in range(1, min(max_size, n) + 1))
    assert selections == _draws_by_weights(n, max_size, seed, limit)


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
    doc = result.reports[0].to_json_dict()
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
    args = argparse.Namespace(matrix=m.kind, n=m.nrows, max_size=max_size)
    assert _sweep_csv(got) == _sweep_csv(want)
    assert json.dumps(_sweep_json(args, m.family, got)) == json.dumps(
        _sweep_json(args, m.family, want)
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
    cells, bits = _packed(grid, 3)
    assert not any(_class_sums(cells))
    provenance = MatrixProvenance("pool", "pool", (0, 1, 2), (0, 1, 2))
    got = _reports(cells, bits, provenance)
    assert got == reports_by_class_sums(grid, provenance)
    assert [r.lam for r in got] == list(partitions_of(3))
    for report in got:
        assert report.value == ZERO == immanant(grid, report.lam)
        assert report.dominance_gap == ZERO
        assert report.q_nonnegative and report.gap_nonnegative
    assert determinant(grid) == ZERO


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


def test_inequality_sweep_at_its_coefficient_bound():
    # a = (c, c, c, -c, c): at (0, 1, 2) the value is 3 c^3 + 3 c^3 = 6 c^3, the
    # sweep's bound 6 N^3 itself, which needs the top bit of its digit width
    for k in range(12):
        c = 2**k
        a = [QPoly([x]) for x in (c, c, c, -c, c)]
        assert inequality_332(a, 0, 1, 2) == QPoly([6 * c**3])
        assert _inequality_sweep(a, 2) == [((0, 1, 2), QPoly([6 * c**3]))]
        a = [QPoly([0, -x]) for x in (c, c, c, -c, c)]
        assert _inequality_sweep(a, 2) == [((0, 1, 2), QPoly([0, 0, 0, -6 * c**3]))]


def test_inequality_index_validation():
    a = catalan_like(builtin("narayana"), 5)
    with pytest.raises(IndexError):
        inequality_332(a, 1, 1, 2)
    with pytest.raises(IndexError):
        inequality_332(a, 2, 1, 0)
    with pytest.raises(IndexError):
        inequality_332(a, 0, 1, 6)
    with pytest.raises(IndexError):
        inequality_332(a, 0, 1, 4)  # needs a_8
    with pytest.raises(IndexError):
        inequality_331(a, (0, 1, 1), (0, 1, 2))
    with pytest.raises(IndexError):
        inequality_331(a, (0, 1, 2), (0, 1, 6))
    with pytest.raises(IndexError):
        inequality_331(a, (0, 1, 3), (0, 1, 3))  # needs a_6
