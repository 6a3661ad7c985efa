"""Unit tests for the triangular recurrence matrices and Hankel companions."""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

from qcatalan.csmatrix import (
    CSMatrix,
    build_ln,
    catalan_like,
    catalan_stieltjes,
    hankel,
    submatrix,
)
from qcatalan.errors import NonNonnegativeParameter, SequenceExhausted, ShapeError
from qcatalan.families import FamilySpec, ParamSeq, builtin
from qcatalan.immanant import determinant, immanant, positivity_sweep
from qcatalan.qpoly import ONE, Q, ZERO, QPoly

from oracles import (
    conforming_random_family,
    eulerian_poly,
    matmul,
    narayana_poly,
    random_family,
    schroder_poly,
    weighted_path_poly,
)

FAMILIES = [builtin(name) for name in ("eulerian", "schroder", "narayana")]


def test_narayana_corner_frozen():
    m = catalan_stieltjes(builtin("narayana"), 2)
    assert m.entries == (
        (ONE, ZERO, ZERO),
        (Q, ONE, ZERO),
        (QPoly([0, 1, 1]), QPoly([1, 2]), ONE),
    )
    assert m.kind == "catalan_stieltjes"
    assert m.nrows == m.ncols == 3
    assert m.entries[2][1] == QPoly([1, 2])


def test_eulerian_row_three_frozen():
    m = catalan_stieltjes(builtin("eulerian"), 3)
    assert m.entries[3] == (
        QPoly([1, 4, 1]),
        QPoly([7, 10, 1]),
        QPoly([12, 6]),
        QPoly([6]),
    )


@pytest.mark.parametrize(
    "name,closed_form",
    [
        ("eulerian", eulerian_poly),
        ("schroder", schroder_poly),
        ("narayana", narayana_poly),
    ],
)
def test_first_column_closed_forms(name, closed_form):
    seq = catalan_like(builtin(name), 9)
    assert len(seq) == 10
    for n, value in enumerate(seq):
        assert value == closed_form(n), f"{name} first-column term {n}"


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: f.name)
def test_triangle_matches_path_enumeration(f):
    m = catalan_stieltjes(f, 6)
    for n in range(7):
        for k in range(7):
            assert m.entries[n][k] == weighted_path_poly(f, n, k)


def test_triangle_needs_only_the_terms_of_earlier_rows():
    # three explicit terms of r, s and t, no tails: rows 0..3 are defined
    prefix = (QPoly([1]), QPoly([0, 1]), QPoly([1, 2]))
    f = FamilySpec(
        name="three-terms",
        r_seq=ParamSeq(0, prefix),
        s_seq=ParamSeq(0, prefix[::-1]),
        t_seq=ParamSeq(1, prefix),
    )
    m = catalan_stieltjes(f, 3)
    for n in range(4):
        for k in range(n + 1):
            assert m.entries[n][k] == weighted_path_poly(f, n, k)
    with pytest.raises(SequenceExhausted):
        catalan_stieltjes(f, 4)


def _counting(f: FamilySpec):
    """A stand-in for ``f`` whose r/s/t lookups are tallied by (label, index)."""
    reads = Counter()

    def tally(label, term):
        def read(k):
            reads[label, k] += 1
            return term(k)

        return read

    return SimpleNamespace(r=tally("r", f.r), s=tally("s", f.s), t=tally("t", f.t)), reads


def test_triangle_reads_each_term_at_most_once():
    rng = random.Random(31)
    for f in FAMILIES + [random_family(rng, terms=12) for _ in range(3)]:
        for n in range(7):
            for build in (catalan_stieltjes, hankel):
                spy, reads = _counting(f)
                assert build(spy, n).entries == build(f, n).entries
                assert set(reads.values()) <= {1}


def test_triangle_names_the_first_defective_term_in_row_order():
    # entry (2, 1) reads s_1 before entry (3, 3) reads r_2
    short = FamilySpec(
        name="short",
        r_seq=ParamSeq(0, (ONE, ONE)),
        s_seq=ParamSeq(0, (ONE,)),
        t_seq=ParamSeq(1, constant=ONE),
    )
    with pytest.raises(SequenceExhausted, match="only 1 explicit terms .* index 1 unavailable"):
        catalan_stieltjes(short, 3)
    negative = FamilySpec(
        name="negative",
        r_seq=ParamSeq(0, (ONE, ONE), constant=-ONE),
        s_seq=ParamSeq(0, (ONE,), constant=-ONE),
        t_seq=ParamSeq(1, constant=ONE),
    )
    with pytest.raises(NonNonnegativeParameter, match=r"^s_1 = -1 of family 'negative'"):
        catalan_stieltjes(negative, 3)


def test_recurrence_residuals_vanish_on_random_families():
    rng = random.Random(17)
    for trial in range(3):
        f = random_family(rng, terms=12)
        m = catalan_stieltjes(f, 8)
        assert m.entries[0][0] == ONE
        for n in range(1, 9):
            for k in range(9):
                expected = (
                    f.r(k - 1) * (m.entries[n - 1][k - 1] if k >= 1 else ZERO)
                    + f.s(k) * m.entries[n - 1][k]
                    + (f.t(k + 1) * m.entries[n - 1][k + 1] if k + 1 < 9 else ZERO)
                )
                assert m.entries[n][k] == expected, (trial, n, k)


def test_triangle_is_lower_with_running_r_product_diagonal():
    for f in FAMILIES:
        m = catalan_stieltjes(f, 5)
        diag = ONE
        for n in range(6):
            assert m.entries[n][n] == diag
            diag = diag * f.r(n)
            for k in range(n + 1, 6):
                assert m.entries[n][k] == ZERO
    eulerian = catalan_stieltjes(builtin("eulerian"), 5)
    assert [eulerian.entries[n][n] for n in range(6)] == [
        QPoly([1]),
        QPoly([1]),
        QPoly([2]),
        QPoly([6]),
        QPoly([24]),
        QPoly([120]),
    ]


def test_one_step_transfer_identity():
    # The next corner equals the current one (padded by a leading 1 block)
    # times the transfer matrix.
    rng = random.Random(11)
    cases = FAMILIES + [conforming_random_family(rng, 1)]
    for f in cases:
        for n in range(4):
            corner = catalan_stieltjes(f, n)
            padded = [
                [ONE if i == j == 0 else ZERO for j in range(n + 2)]
                for i in range(n + 2)
            ]
            for i in range(n + 1):
                for j in range(n + 1):
                    padded[i + 1][j + 1] = corner.entries[i][j]
            product = matmul(padded, build_ln(f, n))
            bigger = catalan_stieltjes(f, n + 1)
            assert product == [list(row) for row in bigger.entries]


def test_transfer_matrix_entries_frozen():
    q_plus_1 = QPoly([1, 1])
    assert build_ln(builtin("narayana"), 1) == [
        [ONE, ZERO, ZERO],
        [Q, ONE, ZERO],
        [Q, q_plus_1, ONE],
    ]


def test_hankel_frozen_schroder():
    h = hankel(builtin("schroder"), 1)
    q_plus_1 = QPoly([1, 1])
    assert h.entries == ((ONE, q_plus_1), (q_plus_1, QPoly([1, 3, 2])))
    assert h.kind == "hankel"


def test_hankel_layout():
    for f in FAMILIES:
        seq = catalan_like(f, 6)
        h = hankel(f, 3)
        for i in range(4):
            for j in range(4):
                assert h.entries[i][j] == seq[i + j]
                assert h.entries[i][j] == h.entries[j][i]
        assert h.entries[0][0] == ONE


def test_first_column_of_cut_triangle_matches_full_corner():
    # catalan_like builds only the heights its last row needs
    rng = random.Random(808)
    for _ in range(6):
        f = random_family(rng, terms=14)
        for up_to in (0, 1, 2, 7, 12):
            full = catalan_stieltjes(f, up_to)
            assert catalan_like(f, up_to) == [full.entries[m][0] for m in range(up_to + 1)]


def test_first_column_prefix_stability():
    f = builtin("schroder")
    assert catalan_like(f, 8)[:5] == catalan_like(f, 4)


def test_submatrix_entries_and_provenance():
    h = hankel(builtin("narayana"), 3)
    sub = submatrix(h, (1, 3), (0, 2))
    assert sub.kind == "submatrix"
    assert sub.row_indices == (1, 3)
    assert sub.col_indices == (0, 2)
    e = h.entries
    assert sub.entries == ((e[1][0], e[1][2]), (e[3][0], e[3][2]))
    # A submatrix of a submatrix points back at the original coordinates.
    nested = submatrix(sub, (1,), (1,))
    assert nested.row_indices == (3,)
    assert nested.col_indices == (2,)
    assert nested.entries[0][0] == h.entries[3][2]


def test_submatrix_errors():
    h = hankel(builtin("narayana"), 2)
    with pytest.raises(ShapeError):
        submatrix(h, (0, 1), (0,))
    with pytest.raises(ValueError):
        submatrix(h, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        submatrix(h, (0, 0), (0, 1))
    with pytest.raises(IndexError):
        submatrix(h, (0, 3), (0, 1))
    with pytest.raises(IndexError):
        submatrix(h, (-1, 0), (0, 1))


def test_to_csv_rendering():
    m = catalan_stieltjes(builtin("narayana"), 2)
    assert m.to_csv() == "1,0,0\nq,1,0\nq+q^2,1+2q,1\n"


def test_to_json_dict_shape():
    m = catalan_stieltjes(builtin("narayana"), 1)
    assert m.to_json_dict() == {
        "kind": "catalan_stieltjes",
        "family": "narayana",
        "rows": [0, 1],
        "cols": [0, 1],
        "entries": [[[1], []], [[0, 1], [1]]],
    }


def test_non_square_matrix_is_a_shape_error():
    f = builtin("narayana")
    wide = CSMatrix(((ONE, ZERO, Q), (ZERO, ONE, Q)), "submatrix", f, (0, 1), (0, 1, 2))
    assert wide.nrows == 2 and wide.ncols == 3
    for route in (determinant, lambda m: immanant(m, (2,)), lambda m: positivity_sweep(m, 2)):
        with pytest.raises(ShapeError, match="matrix is 2x3, not square"):
            route(wide)
    for route in (determinant, lambda m: immanant(m, (2,))):
        with pytest.raises(ShapeError, match="matrix is 2x3, not square"):
            route(wide.entries)


def test_negative_arguments_rejected():
    f = builtin("narayana")
    with pytest.raises(ValueError):
        catalan_stieltjes(f, -1)
    with pytest.raises(ValueError):
        catalan_like(f, -1)
    with pytest.raises(ValueError):
        hankel(f, -1)
    with pytest.raises(ValueError):
        build_ln(f, -1)
