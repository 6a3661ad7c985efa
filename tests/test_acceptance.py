"""Acceptance suite: one test per acceptance criterion, exact arithmetic only.

Every check is an integer or polynomial equality (no tolerances).  Shared
expensive artifacts (networks, sweep results) are cached in module state so
the path-oracle and dominance-gap criteria re-examine exactly the objects
their predecessor criteria built.
"""

import random
import time

import pytest

from qcatalan.csmatrix import catalan_like, catalan_stieltjes, hankel, submatrix
from qcatalan.families import FamilySpec, ParamSeq, builtin, check_condition
from qcatalan.immanant import (
    determinant,
    immanant,
    inequality_331,
    inequality_332,
    positivity_sweep,
)
from qcatalan.network import (
    build_cs_network,
    build_hankel_factored,
    build_hankel_network,
)
from qcatalan.qpoly import ONE, ZERO, QPoly
from qcatalan.symchar import (
    centralizer_order,
    character,
    character_table,
    degree,
    partitions_of,
)

from oracles import (
    eulerian_poly,
    narayana_poly,
    permanent,
    random_grid,
    schroder_poly,
    syt_count,
)
from math import factorial

EUL = builtin("eulerian")
SCH = builtin("schroder")
NAR = builtin("narayana")

# each builtin family with every weight case whose condition it satisfies
FAMILY_CASES = ((EUL, 1), (SCH, 5), (NAR, 2), (NAR, 4), (NAR, 5))

MIXED_CASES = (2, 4, 5, 2, 4)

# artifacts shared across criteria (networks for the path oracle,
# sweep results for the dominance-gap criterion)
CACHE: dict = {}


def entries(m) -> list[list[QPoly]]:
    return [list(row) for row in m.entries]


def test_criterion_01_first_columns_match_closed_forms(criterion):
    criterion(1, "first-column polynomials equal their closed forms for n <= 10")
    start = time.perf_counter()
    oracles = {
        "eulerian": eulerian_poly,
        "schroder": schroder_poly,
        "narayana": narayana_poly,
    }
    for f in (EUL, SCH, NAR):
        seq = catalan_like(f, 10)
        for n in range(11):
            assert seq[n] == oracles[f.name](n), (f.name, n)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_layered_networks_reproduce_corners(criterion):
    criterion(2, "layered networks reproduce the triangular matrices for n <= 5")
    start = time.perf_counter()
    nets = {}
    for f, case in FAMILY_CASES:
        for n in range(1, 6):
            net = build_cs_network(f, n, [case] * n)
            assert net.gf_matrix() == entries(catalan_stieltjes(f, n)), (
                f.name,
                case,
                n,
            )
            nets[(f.name, case, n)] = net
    mixed = build_cs_network(NAR, 5, MIXED_CASES)
    assert mixed.gf_matrix() == entries(catalan_stieltjes(NAR, 5))
    nets[("narayana", "mixed", 5)] = mixed
    CACHE["cs_nets"] = nets
    assert time.perf_counter() - start < 10.0


def test_criterion_03_hankel_networks_reproduce_hankel_matrices(criterion):
    criterion(3, "induced and factored Hankel networks reproduce the Hankel matrices")
    nets = {}
    for f, case in FAMILY_CASES:
        for n in range(4):
            expected = entries(hankel(f, n))
            per_shift = []
            for k in range(3):
                net = build_hankel_network(f, n, k, [case] * (2 * n + k))
                got = net.gf_matrix()
                assert got == expected, (f.name, case, n, k)
                per_shift.append(got)
                nets[("induced", f.name, case, n, k)] = net
            # shift-independence: all three shifts give the same matrix
            assert per_shift[0] == per_shift[1] == per_shift[2]
    for f, case in ((SCH, 5), (NAR, 2), (NAR, 4), (NAR, 5)):
        for n in range(5):
            net = build_hankel_factored(f, n, [case] * n)
            assert net.gf_matrix() == entries(hankel(f, n)), (f.name, case, n)
            nets[("factored", f.name, case, n)] = net
    CACHE["hankel_nets"] = nets


def test_criterion_04_path_enumeration_matches_generating_functions(criterion):
    criterion(4, "enumerated path weights sum to the generating functions")
    if "cs_nets" not in CACHE or "hankel_nets" not in CACHE:
        pytest.fail("network criteria must run first to populate the cache")
    checked = 0
    for net in list(CACHE["cs_nets"].values()) + list(CACHE["hankel_nets"].values()):
        for u in net.sources:
            for v in net.sinks:
                if net.count_paths(u, v) > 100000:
                    continue
                total = ZERO
                for _, weight in net.enumerate_paths(u, v):
                    total = total + weight
                assert total == net.path_gf(u, v), (u, v)
                checked += 1
    assert checked > 0


def test_criterion_05_character_table_exactness(criterion):
    criterion(5, "character values, orthogonality, and degrees are exact")
    start = time.perf_counter()
    # hand-checked three-letter row, listed by class (1,1,1), (2,1), (3)
    row = character_table(3).row((2, 1))
    assert (row[2], row[1], row[0]) == (2, 0, -1)
    for n in range(1, 8):
        parts = partitions_of(n)
        for mu in parts:
            for nu in parts:
                dot = sum(character(lam, mu) * character(lam, nu) for lam in parts)
                assert dot == (centralizer_order(mu) if mu == nu else 0)
        for lam in parts:
            for rho in parts:
                dot = sum(
                    (factorial(n) // centralizer_order(mu))
                    * character(lam, mu)
                    * character(rho, mu)
                    for mu in parts
                )
                assert dot == (factorial(n) if lam == rho else 0)
    for n in range(1, 9):
        for lam in partitions_of(n):
            d = degree(lam)
            assert d == syt_count(lam)
            assert d == character(lam, (1,) * n)
    assert time.perf_counter() - start < 5.0


def test_criterion_06_immanant_identities_on_random_matrices(criterion):
    criterion(6, "determinant, permanent, and degree-sum immanant identities hold")
    rng = random.Random(2026)
    for trial in range(30):
        n = rng.randrange(1, 6)
        grid = random_grid(rng, n, allow_negative=True)
        assert immanant(grid, (1,) * n) == determinant(grid), trial
        assert immanant(grid, (n,)) == permanent(grid), trial
        combo = ZERO
        for lam in partitions_of(n):
            combo = combo + degree(lam) * immanant(grid, lam)
        diag = ONE
        for i in range(n):
            diag = diag * grid[i][i]
        assert combo == factorial(n) * diag, trial


def _run_sweeps():
    results = {}
    for f in (EUL, SCH, NAR):
        results[(f.name, "C")] = positivity_sweep(catalan_stieltjes(f, 5), 4)
        results[(f.name, "H")] = positivity_sweep(hankel(f, 3), 3)
    return results


def test_criterion_07_immanants_of_submatrices_are_q_nonnegative(criterion):
    criterion(7, "all swept submatrix immanants are q-nonnegative")
    start = time.perf_counter()
    results = _run_sweeps()
    CACHE["sweeps"] = results
    for (name, kind), result in results.items():
        assert result.exhaustive, (name, kind)
        expected = 2811 if kind == "C" else 136
        assert len(result.reports) == expected, (name, kind)
        for report in result.reports:
            assert report.q_nonnegative, (name, kind, report)
    assert time.perf_counter() - start < 120.0


def test_criterion_08_dominance_gaps_are_q_nonnegative(criterion):
    criterion(8, "immanant minus degree-times-determinant stays q-nonnegative")
    results = CACHE.get("sweeps") or _run_sweeps()
    for (name, kind), result in results.items():
        for report in result.reports:
            assert report.gap_nonnegative, (name, kind, report)
        assert result.ok
        assert result.violations() == ()


def test_criterion_09_cubic_inequalities(criterion):
    criterion(9, "cubic sequence forms are q-nonnegative and match the immanant route")
    start = time.perf_counter()
    for f in (EUL, SCH, NAR):
        a = catalan_like(f, 10)
        h = hankel(f, 5)
        triples = [
            (i, j, k)
            for i in range(6)
            for j in range(i + 1, 6)
            for k in range(j + 1, 6)
        ]
        for i, j, k in triples:
            value = inequality_332(a, i, j, k)
            assert value.is_q_nonnegative(), (f.name, i, j, k)
            diagonal = inequality_331(a, (i, j, k), (i, j, k))
            assert diagonal == 2 * value, (f.name, i, j, k)
        for rows in triples:
            for cols in (rows, (0, 1, 2), (1, 3, 5)):
                sub = submatrix(h, rows, cols)
                expected = immanant(sub, (2, 1)) - 2 * determinant(sub)
                assert inequality_331(a, rows, cols) == expected, (f.name, rows, cols)
    assert time.perf_counter() - start < 30.0


def test_criterion_10_negative_control_is_detected(criterion):
    criterion(10, "a family failing every condition produces detected violations")
    control = FamilySpec(
        name="control",
        r_seq=ParamSeq(0, tail=(ONE,)),
        s_seq=ParamSeq(0, tail=(ZERO,)),
        t_seq=ParamSeq(1, tail=(ONE,)),
        witness_b=ParamSeq(0, tail=(ZERO,)),
        witness_c=ParamSeq(0, tail=(ZERO,)),
    )
    for which in (1, 2, 3, 4, 5):
        assert not check_condition(control, which, 5).holds, which
    result = positivity_sweep(catalan_stieltjes(control, 2), 2)
    assert not result.ok
    assert result.violations()
