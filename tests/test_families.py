"""Unit tests for parameter families and the five positivity conditions."""

import json
import random
from itertools import combinations

import pytest

from qcatalan.csmatrix import build_ln, catalan_stieltjes, hankel
from qcatalan.errors import (
    MissingWitness,
    NonNonnegativeParameter,
    SchemaError,
    SequenceExhausted,
    UnknownFamily,
)
from qcatalan.families import (
    BUILTIN_NAMES,
    ConditionReport,
    FamilySpec,
    ParamSeq,
    builtin,
    check_condition,
    load_family,
)
from qcatalan.immanant import determinant
from qcatalan.qpoly import ONE, Q, ZERO, QPoly

from oracles import (
    conforming_random_family,
    contiguous_minors,
    derived_witnesses,
    normalized,
    production_tp,
    random_family,
    random_qpoly,
    random_tailed_family,
    swapped,
)


def test_builtin_names():
    assert BUILTIN_NAMES == ("eulerian", "schroder", "narayana")
    for name in BUILTIN_NAMES:
        assert builtin(name).name == name
    with pytest.raises(UnknownFamily):
        builtin("fibonacci")


def test_eulerian_parameters():
    f = builtin("eulerian")
    for k in range(6):
        assert f.r(k) == QPoly([k + 1])
        if k >= 1:
            assert f.t(k) == QPoly([0, k])
    assert f.s(0) == ONE
    assert f.s(2) == QPoly([3, 2])  # 2(q+1) + 1


def test_schroder_parameters():
    f = builtin("schroder")
    assert f.r(7) == ONE
    assert f.s(0) == QPoly([1, 1])
    assert f.s(1) == f.s(9) == QPoly([1, 2])
    assert f.t(1) == QPoly([0, 1, 1])  # q^2 + q


def test_narayana_parameters():
    f = builtin("narayana")
    assert f.r(3) == ONE
    assert f.s(0) == Q
    assert f.s(1) == f.s(5) == QPoly([1, 1])
    assert f.t(4) == Q


def test_conventions_for_out_of_range_indices():
    f = builtin("eulerian")
    assert f.r(-1) == ZERO
    assert f.t(0) == ZERO
    with pytest.raises(ValueError):
        f.r(-2)
    with pytest.raises(ValueError):
        f.t(-1)
    with pytest.raises(ValueError):
        f.s(-1)


def test_param_seq_prefix_then_tail():
    seq = ParamSeq(0, prefix=(ZERO, ONE), tail=(ONE, Q))
    assert seq(0) == ZERO
    assert seq(1) == ONE
    assert seq(2) == QPoly([1, 2])  # 2q + 1
    assert seq(5) == QPoly([1, 5])


def test_param_seq_tail_is_its_polynomial_in_k():
    # Horner's rule against the sum of tail[i] * k**i built term by term
    rng = random.Random(53)
    for _ in range(200):
        start = rng.randrange(2)
        prefix = tuple(random_qpoly(rng, allow_negative=True) for _ in range(rng.randrange(4)))
        tail = tuple(random_qpoly(rng, allow_negative=True) for _ in range(rng.randrange(1, 5)))
        seq = ParamSeq(start, prefix, tail)
        end = start + len(prefix)
        for k in [*range(start, end + 6), 10**6]:
            if k < end:
                expected = prefix[k - start]
            else:
                expected = ZERO
                for i, c in enumerate(tail):
                    expected = expected + QPoly([a * k**i for a in c.coeffs])
            assert seq(k) == expected, (prefix, tail, k)


def test_param_seq_constant_tail_is_the_stored_polynomial():
    c = QPoly([2, 0, 5])
    assert ParamSeq(0, (ONE,), (c,))(9) is c


def test_param_seq_without_tail_is_finite():
    seq = ParamSeq(1, prefix=(Q, Q))
    assert seq(1) == Q
    assert seq(2) == Q
    with pytest.raises(SequenceExhausted):
        seq(3)
    with pytest.raises(ValueError):
        seq(0)


def test_lazy_nonnegativity_check():
    f = FamilySpec(
        name="bad",
        r_seq=ParamSeq(0, tail=(ONE,)),
        s_seq=ParamSeq(0, prefix=(QPoly([-1, 1]),), tail=(ONE,)),
        t_seq=ParamSeq(1, tail=(ONE,)),
    )
    assert f.r(0) == ONE  # fine until the bad term is touched
    with pytest.raises(NonNonnegativeParameter):
        f.s(0)


# -- condition checks ------------------------------------------------


def test_eulerian_satisfies_condition_1_with_equality():
    f = builtin("eulerian")
    report = check_condition(f, 1, 20)
    assert report.holds and report.first_violation is None
    assert report.condition_index == 1
    for k in range(21):
        assert f.s(k) - (f.r(k) + f.t(k)) == ZERO


def test_narayana_satisfies_conditions_2_4_5_with_equality():
    f = builtin("narayana")
    for which in (2, 4, 5):
        assert check_condition(f, which, 20).holds
    for k in range(1, 21):
        assert f.s(k) - (f.r(k - 1) + f.t(k + 1)) == ZERO
        assert f.s(k) - (f.r(k) * f.t(k + 1) + ONE) == ZERO
    assert f.s(0) - f.t(1) == ZERO
    assert f.s(0) - f.r(0) * f.t(1) == ZERO


def test_schroder_satisfies_condition_5():
    f = builtin("schroder")
    assert check_condition(f, 5, 20).holds
    assert f.b(0) == ZERO and f.b(1) == Q
    assert f.c(0) == f.c(9) == QPoly([1, 1])
    for k in range(10):
        assert f.s(k) == f.b(k) + f.c(k)
        assert f.t(k + 1) == f.b(k + 1) * f.c(k)


def test_narayana_fails_condition_1_at_zero():
    report = check_condition(builtin("narayana"), 1, 5)
    assert not report.holds
    assert report.first_violation == (0, QPoly([-1, 1]))  # q - 1


def test_schroder_fails_condition_1_at_one():
    report = check_condition(builtin("schroder"), 1, 5)
    assert not report.holds
    assert report.first_violation == (1, QPoly([0, 1, -1]))  # q - q^2


def test_condition_5_without_witnesses():
    with pytest.raises(MissingWitness):
        check_condition(builtin("eulerian"), 5, 3)


def test_condition_is_monotone_in_truncation_depth():
    # s dips below the condition-1 bound exactly at k = 3.
    two = QPoly([2])
    f = FamilySpec(
        name="dip",
        r_seq=ParamSeq(0, tail=(ONE,)),
        s_seq=ParamSeq(0, prefix=(two, two, two, ZERO), tail=(two,)),
        t_seq=ParamSeq(1, tail=(ONE,)),
    )
    for up_to in range(3):
        assert check_condition(f, 1, up_to).holds
    for up_to in range(3, 8):
        report = check_condition(f, 1, up_to)
        assert not report.holds
        assert report.first_violation == (3, QPoly([-2]))


def test_condition_5_reports_negative_witness():
    f = FamilySpec(
        name="negwitness",
        r_seq=ParamSeq(0, tail=(ONE,)),
        s_seq=ParamSeq(0, tail=(ZERO,)),
        t_seq=ParamSeq(1, tail=(ZERO,)),
        witness_b=ParamSeq(0, prefix=(QPoly([-1]),), tail=(ZERO,)),
        witness_c=ParamSeq(0, tail=(ZERO,)),
    )
    report = check_condition(f, 5, 3)
    assert not report.holds
    assert report.first_violation == (0, QPoly([-1]))


def test_condition_5_reports_factorization_mismatch():
    # r = 1, s = 0 = b + c, but t_{k+1} = 1 != b_{k+1} c_k = 0.
    f = FamilySpec(
        name="control",
        r_seq=ParamSeq(0, tail=(ONE,)),
        s_seq=ParamSeq(0, tail=(ZERO,)),
        t_seq=ParamSeq(1, tail=(ONE,)),
        witness_b=ParamSeq(0, tail=(ZERO,)),
        witness_c=ParamSeq(0, tail=(ZERO,)),
    )
    report = check_condition(f, 5, 3)
    assert not report.holds
    assert report.first_violation == (0, ONE)


def test_condition_5_reports_negative_witness_c():
    # b = 0, so the witness c_0 = -1 is the first thing that fails, before
    # s_0 = 0 differs from b_0 + c_0
    f = FamilySpec(
        name="negc",
        r_seq=ParamSeq(0, tail=(ONE,)),
        s_seq=ParamSeq(0, tail=(ZERO,)),
        t_seq=ParamSeq(1, tail=(ZERO,)),
        witness_b=ParamSeq(0, tail=(ZERO,)),
        witness_c=ParamSeq(0, prefix=(QPoly([-1]),), tail=(ZERO,)),
    )
    assert check_condition(f, 5, 3) == ConditionReport(5, False, (0, QPoly([-1])))


def test_condition_5_reports_s_other_than_b_plus_c():
    # r = 1 and t_{k+1} = 0 = b_{k+1} c_k hold; only s_1 = q differs from b_1 + c_1 = 0
    f = FamilySpec(
        name="s-off",
        r_seq=ParamSeq(0, tail=(ONE,)),
        s_seq=ParamSeq(0, prefix=(ZERO, Q), tail=(ZERO,)),
        t_seq=ParamSeq(1, tail=(ZERO,)),
        witness_b=ParamSeq(0, tail=(ZERO,)),
        witness_c=ParamSeq(0, tail=(ZERO,)),
    )
    assert check_condition(f, 5, 0).holds
    assert check_condition(f, 5, 5) == ConditionReport(5, False, (1, Q))


@pytest.mark.parametrize("name", ["narayana", "schroder"])
def test_declared_witnesses_are_the_derived_ones(name):
    f = builtin(name)
    b, c = derived_witnesses(f, 20)
    assert b == [f.b(k) for k in range(20)]
    assert c == [f.c(k) for k in range(20)]


def test_eulerian_derives_witnesses_kq_and_k_plus_1():
    # r_k = k + 1 is not 1, yet lambda_{k+1} = (k + 1)^2 q splits as b_{k+1} c_k
    b, c = derived_witnesses(builtin("eulerian"), 20)
    assert b == [QPoly([0, k]) for k in range(20)]
    assert c == [QPoly([k + 1]) for k in range(20)]


def test_derived_witnesses_recover_planted_ones_with_any_r():
    # b_{k+1} = r_k beta_{k+1} and t_{k+1} = beta_{k+1} c_k give
    # r_k t_{k+1} = b_{k+1} c_k with r != 1; each c_k is nonzero
    rng = random.Random(43)
    depth = 10
    for _ in range(30):
        r = [random_qpoly(rng) or ONE for _ in range(depth)]
        beta = [random_qpoly(rng) for _ in range(depth)]
        c = [random_qpoly(rng) or ONE for _ in range(depth)]
        b = [ZERO] + [r[k] * beta[k] for k in range(depth - 1)]
        f = FamilySpec(
            name="planted",
            r_seq=ParamSeq(0, tuple(r)),
            s_seq=ParamSeq(0, tuple(b[k] + c[k] for k in range(depth))),
            t_seq=ParamSeq(1, tuple(beta[k] * c[k] for k in range(depth))),
        )
        assert derived_witnesses(f, depth) == (b, c)


def test_normalized_and_swapped_families_are_exact_at_every_k():
    rng = random.Random(47)
    families = [builtin(name) for name in BUILTIN_NAMES]
    families += [random_tailed_family(rng) for _ in range(30)]
    for f in families:
        g, h = normalized(f), swapped(f)
        for k in [*range(41), 10**6]:
            assert g.r(k) == ONE and g.s(k) == h.s(k) == f.s(k)
            assert g.t(k + 1) == f.r(k) * f.t(k + 1), (f.name, k)
            assert h.r(k) == f.t(k + 1), (f.name, k)
            assert h.t(k + 1) == f.r(k), (f.name, k)


@pytest.mark.parametrize("condition", [1, 2, 3, 4, 5])
def test_conforming_random_families_pass_their_condition(condition):
    rng = random.Random(40 + condition)
    for _ in range(5):
        f = conforming_random_family(rng, condition)
        assert check_condition(f, condition, 12).holds


def test_check_condition_argument_validation():
    f = builtin("narayana")
    with pytest.raises(ValueError):
        check_condition(f, 0, 3)
    with pytest.raises(ValueError):
        check_condition(f, 6, 3)
    with pytest.raises(ValueError):
        check_condition(f, 1, -1)


# -- loading ---------------------------------------------------------

NARAYANA_DOC = {
    "name": "narayana-like",
    "r": {"prefix": [[1], [1]], "tail": {"constant": [1]}},
    "s": {"prefix": [[0, 1], [1, 1]], "tail": {"constant": [1, 1]}},
    "t": {"prefix": [[0, 1]], "tail": {"constant": [0, 1]}},
    "witness_b": {"prefix": [[]], "tail": {"constant": [1]}},
    "witness_c": {"tail": {"constant": [0, 1]}},
}


def test_load_family_matches_builtin_terms():
    loaded = load_family(NARAYANA_DOC)
    reference = builtin("narayana")
    assert loaded.name == "narayana-like"
    for k in range(21):
        assert loaded.r(k) == reference.r(k)
        assert loaded.s(k) == reference.s(k)
        assert loaded.b(k) == reference.b(k)
        assert loaded.c(k) == reference.c(k)
    for k in range(1, 21):
        assert loaded.t(k) == reference.t(k)
    assert check_condition(loaded, 5, 15).holds


def test_load_family_from_json_text():
    loaded = load_family(json.dumps(NARAYANA_DOC))
    assert loaded.s(0) == Q


def test_load_family_without_tail_is_finite():
    doc = {
        "name": "finite",
        "r": {"prefix": [[1], [1]]},
        "s": {"prefix": [[1]], "tail": {"constant": [1]}},
        "t": {"prefix": [[0, 1]]},
    }
    f = load_family(doc)
    assert f.r(1) == ONE
    with pytest.raises(SequenceExhausted):
        f.r(2)
    with pytest.raises(SequenceExhausted):
        f.t(2)


def test_load_family_linear_tail():
    doc = {
        "name": "affine",
        "r": {"tail": {"linear": [1], "constant": [1]}},
        "s": {"tail": {"linear": [1, 1], "constant": [1]}},
        "t": {"tail": {"linear": [0, 1]}},
    }
    f = load_family(doc)
    reference = builtin("eulerian")
    for k in range(10):
        assert f.r(k) == reference.r(k)
        assert f.s(k) == reference.s(k)
    for k in range(1, 10):
        assert f.t(k) == reference.t(k)


def test_load_family_rejects_negative_prefix_terms():
    doc = {
        "name": "neg",
        "r": {"tail": {"constant": [1]}},
        "s": {"prefix": [[-1, 1]], "tail": {"constant": [1]}},
        "t": {"tail": {"constant": [1]}},
    }
    with pytest.raises(NonNonnegativeParameter):
        load_family(doc)


def test_load_family_names_the_first_negative_prefix_term():
    doc = {
        "name": "neg",
        "r": {"prefix": [[1], [1, -1]]},
        "s": {"prefix": [[0, -2]]},
        "t": {"prefix": [[1], [-1]]},
    }
    for fixed, message in (
        ("r", "r_1 = 1-q of family 'neg' has a negative coefficient"),
        ("s", "s_0 = -2q of family 'neg' has a negative coefficient"),
        ("t", "t_2 = -1 of family 'neg' has a negative coefficient"),
    ):
        with pytest.raises(NonNonnegativeParameter) as exc:
            load_family(doc)
        assert str(exc.value) == message
        doc[fixed] = {"prefix": [[1]], "tail": {"constant": [-1]}}  # tails stay lazy
    assert load_family(doc).r(0) == ONE


def test_load_family_keeps_other_punctuation_in_names():
    name = "q-Narayana (shifted); v2 'x'|y"
    assert load_family(dict(NARAYANA_DOC, name=name)).name == name


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("name"),
        lambda d: d.pop("t"),
        lambda d: d.update(name=7),
        lambda d: d.update(extra={}),
        lambda d: d.update(r=[1, 2]),
        lambda d: d.update(r={"prefix": [[1]], "bogus": 1}),
        lambda d: d.update(r={"prefix": [[1.5]]}),
        lambda d: d.update(r={"prefix": [[True]]}),
        lambda d: d.update(r={"prefix": "oops"}),
        lambda d: d.update(r={"tail": {}}),
        lambda d: d.update(r={"tail": {"slope": [1]}}),
    ],
)
def test_load_family_schema_errors(mutate):
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in NARAYANA_DOC.items()}
    mutate(doc)
    with pytest.raises(SchemaError):
        load_family(doc)


@pytest.mark.parametrize(
    "key,seq,place",
    [("r", {"prefix": [5]}, "r.prefix[0]"), ("s", {"tail": {"constant": 3}}, "s.tail.constant")],
)
def test_load_family_polynomial_must_be_a_list(key, seq, place):
    with pytest.raises(SchemaError) as exc:
        load_family(dict(NARAYANA_DOC, **{key: seq}))
    assert str(exc.value).startswith(f"{place}: polynomial must be a list of ints")


@pytest.mark.parametrize("part", ["linear", "constant"])
def test_load_family_tail_with_an_empty_part_is_zero_not_finite(part):
    f = load_family(dict(NARAYANA_DOC, s={"prefix": [[1]], "tail": {part: []}}))
    assert f.s_seq.tail
    for k in [*range(1, 41), 10**6]:
        assert f.s(k) == ZERO


def test_load_family_reports_a_malformed_linear_before_a_malformed_constant():
    doc = dict(NARAYANA_DOC, t={"tail": {"constant": [0.5], "linear": "q"}})
    with pytest.raises(SchemaError) as exc:
        load_family(doc)
    assert str(exc.value) == "t.tail.linear: polynomial must be a list of ints, got 'q'"


def test_load_family_rejects_bad_json_text():
    with pytest.raises(SchemaError):
        load_family("{not json")
    with pytest.raises(SchemaError):
        load_family("[1, 2]")


def test_missing_witness_accessors():
    f = builtin("eulerian")
    assert not f.has_witnesses
    with pytest.raises(MissingWitness):
        f.b(0)
    with pytest.raises(MissingWitness):
        f.c(0)


# -- the production matrix -------------------------------------------


def _minors(grid, largest: int):
    """Every minor of ``grid`` with at most ``largest`` rows, as (rows, cols, value)."""
    size = len(grid)
    for k in range(1, largest + 1):
        for rows in combinations(range(size), k):
            for cols in combinations(range(size), k):
                yield rows, cols, determinant([[grid[i][j] for j in cols] for i in rows])


@pytest.mark.parametrize("condition", [1, 2, 3, 4, 5])
def test_conditions_imply_a_totally_positive_production_matrix(condition):
    # under condition i the case-i layer network realizes L_n with
    # q-nonnegative weights, and P_n is a submatrix of L_n (Lindstrom-Gessel-Viennot)
    rng = random.Random(70 + condition)
    for _ in range(5):
        assert production_tp(conforming_random_family(rng, condition), 10)


def test_contiguous_minors_decide_total_positivity_of_the_production_matrix():
    rng = random.Random(77)
    outcomes = set()
    for trial in range(120):
        n = trial % 6
        f = random_family(rng, terms=8) if trial % 3 else conforming_random_family(rng, 1, 8)
        # P_n is L_n on rows 1..n+1 and columns 0..n
        p = [row[: n + 1] for row in build_ln(f, n)[1:]]
        minors = contiguous_minors(f, n)
        for (i, j), d in minors.items():
            span = range(i, j + 1)
            assert d == determinant([[p[a][b] for b in span] for a in span]), (trial, i, j)
        every = all(value.is_q_nonnegative() for _, _, value in _minors(p, n + 1))
        assert production_tp(f, n) == every, trial
        outcomes.add(every)
    assert outcomes == {True, False}


def test_a_production_tp_family_meeting_no_condition_has_nonnegative_minors():
    # r_k = 3, s_k = 1 + 2q + 2q^2, t_k = q^2: totally positive production
    # matrix to depth 14, none of conditions 1-5
    f = FamilySpec(
        name="pinned",
        r_seq=ParamSeq(0, tail=(QPoly([3]),)),
        s_seq=ParamSeq(0, tail=(QPoly([1, 2, 2]),)),
        t_seq=ParamSeq(1, tail=(QPoly([0, 0, 1]),)),
    )
    assert production_tp(f, 14)
    for condition in (1, 2, 3, 4):
        assert not check_condition(f, condition, 14).holds
    assert f.r(0) != ONE  # condition 5 needs r_k = 1
    for m in (catalan_stieltjes(f, 6), hankel(f, 6)):
        for rows, cols, value in _minors(m.entries, 4):
            assert value.is_q_nonnegative(), (m.kind, rows, cols, value)
