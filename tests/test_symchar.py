"""Unit tests for partitions and symmetric-group characters."""

import pytest

from qcatalan.errors import NotAPermutation, OutOfRange, ShapeError
from qcatalan.symchar import (
    MAX_PARTITION_N,
    CharacterTable,
    centralizer_order,
    character,
    character_table,
    conjugate,
    cycle_type,
    degree,
    is_partition,
    partitions_of,
    sign_of_class,
)

from oracles import CHI3, partition_count, syt_count
from math import factorial


def test_partition_predicate():
    assert is_partition(())
    assert is_partition((3, 1))
    assert is_partition((2, 2, 2))
    assert not is_partition((1, 3))
    assert not is_partition((3, 0))
    assert not is_partition((3, -1))
    assert not is_partition((True,))
    assert not is_partition((2.0,))
    assert not is_partition([3, 1])


def test_partitions_of_small_anchors():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_of_counts_and_order():
    for n in range(MAX_PARTITION_N + 1):
        parts = partitions_of(n)
        assert len(parts) == partition_count(n)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert is_partition(lam) and sum(lam) == n
        # reverse lexicographic: each partition strictly precedes the next
        assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))


def test_partitions_of_range_errors():
    for bad in (-1, MAX_PARTITION_N + 1, "3", 2.0, True):
        with pytest.raises(OutOfRange):
            partitions_of(bad)


def test_conjugate():
    assert conjugate(()) == ()
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == n


def test_degree_matches_tableau_counts():
    assert degree(()) == 1
    assert degree((3, 2)) == 5
    for n in range(7):
        for lam in partitions_of(n):
            assert degree(lam) == syt_count(lam)


def test_degree_squares_sum_to_group_order():
    for n in range(1, 9):
        assert sum(degree(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_three_letter_table_matches_hand_values():
    table = character_table(3)
    assert table.shapes == ((3,), (2, 1), (1, 1, 1))
    for lam in table.shapes:
        assert table.row(lam) == tuple(CHI3[lam][mu] for mu in table.shapes)
    assert table.row((2, 1)) == (-1, 0, 2)


def test_trivial_and_sign_rows():
    for n in range(1, 8):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
            assert character((1,) * n, mu) == sign_of_class(mu)


def test_standard_representation_row():
    # The (n-1,1) character counts fixed points minus one.
    for n in range(2, 8):
        for mu in partitions_of(n):
            fixed = sum(1 for part in mu if part == 1)
            assert character((n - 1, 1), mu) == fixed - 1


def test_conjugate_shape_twists_by_sign():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert character(conjugate(lam), mu) == sign_of_class(mu) * character(
                    lam, mu
                )


def test_identity_column_gives_degrees():
    for n in range(1, 9):
        ones = (1,) * n
        for lam in partitions_of(n):
            assert character(lam, ones) == degree(lam)


def test_column_orthogonality():
    for n in range(1, 8):
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                dot = sum(character(lam, mu) * character(lam, nu) for lam in parts)
                assert dot == (centralizer_order(mu) if mu == nu else 0)


def test_row_orthogonality():
    for n in range(1, 8):
        parts = partitions_of(n)
        for lam in parts:
            for rho in parts:
                dot = sum(
                    (factorial(n) // centralizer_order(mu))
                    * character(lam, mu)
                    * character(rho, mu)
                    for mu in parts
                )
                assert dot == (factorial(n) if lam == rho else 0)


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        total = sum(factorial(n) // centralizer_order(mu) for mu in partitions_of(n))
        assert total == factorial(n)


def _corner_removals(lam):
    out = []
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            smaller = list(lam)
            smaller[i] -= 1
            out.append(tuple(p for p in smaller if p))
    return out


def test_branching_rule():
    # Appending a fixed point to the cycle type sums the characters of all
    # one-corner-smaller shapes.
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n - 1):
                lhs = character(lam, mu + (1,))
                rhs = sum(character(sub, mu) for sub in _corner_removals(lam))
                assert lhs == rhs


def test_character_validation():
    with pytest.raises(ShapeError):
        character((2, 1), (2, 2))
    with pytest.raises(ValueError):
        character((1, 2), (2, 1))
    with pytest.raises(ValueError):
        character((3,), (2, -1))


def test_cycle_type():
    assert cycle_type([1, 2, 3]) == (1, 1, 1)
    assert cycle_type([2, 1]) == (2,)
    assert cycle_type([2, 3, 1]) == (3,)
    assert cycle_type([2, 1, 4, 3]) == (2, 2)
    assert cycle_type((3, 1, 2, 5, 4)) == (3, 2)
    assert cycle_type([]) == ()
    for bad in ([1, 1], [0, 1], [1, 3], [2]):
        with pytest.raises(NotAPermutation):
            cycle_type(bad)


def test_sign_of_class():
    assert sign_of_class(()) == 1
    assert sign_of_class((2,)) == -1
    assert sign_of_class((3,)) == 1
    assert sign_of_class((2, 1)) == -1
    assert sign_of_class((2, 2)) == 1


def test_centralizer_order():
    # 1^a1 2^a2 ... with order prod i^ai ai!
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 2, 1, 1)) == 16
    assert centralizer_order(()) == 1


def test_table_caching_and_json():
    assert character_table(4) is character_table(4)
    table = CharacterTable(2)
    assert table.to_json_dict() == {
        "n": 2,
        "classes": [[2], [1, 1]],
        "characters": [
            {"shape": [2], "values": [1, 1]},
            {"shape": [1, 1], "values": [-1, 1]},
        ],
    }
