"""Unit tests for planar networks, gluing, and the matrix-valued path sums."""

import dataclasses
import json
import random

import pytest

from qcatalan.csmatrix import build_ln, catalan_stieltjes, hankel
from qcatalan.errors import (
    CapExceeded,
    MissingWitness,
    NegativeWeight,
    RequiresUnitGamma,
    ShapeError,
)
from qcatalan.families import (
    WEIGHT_CASES,
    FamilySpec,
    ParamSeq,
    builtin,
    check_condition,
)
from qcatalan.network import (
    Arc,
    P,
    PlanarNetwork,
    Q,
    Vertex,
    build_cs_network,
    build_hankel_factored,
    build_hankel_network,
    build_layer,
    cs_sinks,
    cs_sources,
    export_dot,
    factored_sinks,
    glue,
    hankel_sinks,
    hankel_sources,
    layer_sinks,
    layer_sources,
    mirror,
    mirror_vertex,
)
from qcatalan.qpoly import ONE, Q as QVAR, ZERO, QPoly

from oracles import (
    conforming_random_family,
    glued_cs_network,
    glued_factored_network,
    matmul,
    pruned_hankel_network,
    random_family,
    random_qpoly,
)

NAR = builtin("narayana")
SCH = builtin("schroder")
EUL = builtin("eulerian")

# weight cases compatible with each builtin family
FAMILY_CASES = [(EUL, 1), (SCH, 5), (NAR, 2), (NAR, 4), (NAR, 5)]
# the pairs whose family has r_k = 1, as the factored Hankel network needs
UNIT_R_CASES = [(SCH, 5), (NAR, 2), (NAR, 4), (NAR, 5)]

# r_k = 1, s_0 = 1+q, s_k = 2+q, t_k = 1+q with witnesses b_0 = 0, b_k = 1,
# c_k = 1+q: meets all five conditions, so any case list is allowed.
FIVE = FamilySpec(
    name="fivecase",
    r_seq=ParamSeq(0, constant=ONE),
    s_seq=ParamSeq(0, prefix=(QPoly([1, 1]),), constant=QPoly([2, 1])),
    t_seq=ParamSeq(1, constant=QPoly([1, 1])),
    witness_b=ParamSeq(0, prefix=(ZERO,), constant=ONE),
    witness_c=ParamSeq(0, constant=QPoly([1, 1])),
)

# r = 2, s = 5, t = 1, b = c = 1: q-nonnegative but b + c != s and r != 1,
# so condition 5 fails at index 0 although every witness is q-nonnegative.
UNFACTORED = FamilySpec(
    name="unfactored",
    r_seq=ParamSeq(0, constant=QPoly([2])),
    s_seq=ParamSeq(0, constant=QPoly([5])),
    t_seq=ParamSeq(1, constant=ONE),
    witness_b=ParamSeq(0, constant=ONE),
    witness_c=ParamSeq(0, constant=ONE),
)


# -- core graph machinery ---------------------------------------------


def test_vertex_helpers():
    assert P(2, 1) == Vertex("P", 2, 1)
    assert Q(0, 3) == Vertex("Q", 0, 3)
    assert mirror_vertex(P(2, 1)) == Vertex("Pbar", 2, 1)
    assert mirror_vertex(Vertex("Qbar", 1, 0)) == Q(1, 0)


def test_network_rejects_duplicate_arcs():
    a, b = P(0, 0), P(1, 0)
    with pytest.raises(ValueError):
        PlanarNetwork([Arc(a, b, ONE), Arc(a, b, QVAR)], (a,), (b,))


def test_network_rejects_cycles():
    a, b = P(0, 0), P(1, 0)
    with pytest.raises(ValueError):
        PlanarNetwork([Arc(a, b, ONE), Arc(b, a, ONE)], (a,), (b,))


def test_network_rejects_non_polynomial_weights():
    a, b = P(0, 0), P(1, 0)
    with pytest.raises(TypeError):
        PlanarNetwork([(a, b, 1)], (a,), (b,))


def test_path_gf_on_a_diamond():
    a, b, c, d = P(0, 0), P(1, 1), P(1, 0), P(2, 0)
    net = PlanarNetwork(
        [
            Arc(a, b, QVAR),
            Arc(a, c, ONE),
            Arc(b, d, ONE),
            Arc(c, d, QVAR),
        ],
        (a,),
        (d,),
    )
    assert net.path_gf(a, d) == QPoly([0, 2])  # two paths, weight q each
    assert net.path_gf(a, a) == ONE
    assert net.path_gf(d, a) == ZERO
    assert net.count_paths(a, d) == 2
    assert net.gf_matrix() == [[QPoly([0, 2])]]
    with pytest.raises(ValueError):
        net.path_gf(a, P(9, 9))


def test_zero_weight_arcs_kill_paths_but_stay_in_the_graph():
    a, b, c = P(0, 0), P(1, 0), P(2, 0)
    net = PlanarNetwork([Arc(a, b, ZERO), Arc(b, c, QVAR)], (a,), (c,))
    assert net.path_gf(a, c) == ZERO
    assert net.count_paths(a, c) == 1
    assert len(net.arcs) == 2


def test_enumerate_paths_matches_gf_and_counts():
    net = build_cs_network(NAR, 3, [2, 2, 2])
    for u in net.sources:
        for v in net.sinks:
            paths = net.enumerate_paths(u, v)
            assert len(paths) == net.count_paths(u, v)
            total = ZERO
            for vertices, weight in paths:
                assert vertices[0] == u and vertices[-1] == v
                arc_pairs = {(a.tail, a.head): a.weight for a in net.arcs}
                prod = ONE
                for x, y in zip(vertices, vertices[1:]):
                    assert (x, y) in arc_pairs
                    prod = prod * arc_pairs[(x, y)]
                assert prod == weight
                total = total + weight
            assert total == net.path_gf(u, v)


def test_enumerate_paths_single_vertex_and_cap():
    net = build_cs_network(NAR, 2, [4, 4])
    u = net.sources[-1]
    assert net.enumerate_paths(u, u) == [((u,), ONE)]
    v = net.sinks[0]
    assert net.count_paths(u, v) >= 1
    with pytest.raises(CapExceeded):
        net.enumerate_paths(u, v, cap=0)


def test_json_export_is_sorted_and_stable():
    net = build_cs_network(NAR, 2, [5, 5])
    doc = net.to_json_dict()
    assert set(doc) == {"vertices", "arcs", "sources", "sinks"}
    assert json.dumps(doc) == json.dumps(net.to_json_dict())
    kind_order = {"P": 0, "Q": 1, "Pbar": 2, "Qbar": 3}
    keys = [(v["level"], kind_order[v["kind"]], v["height"]) for v in doc["vertices"]]
    assert keys == sorted(keys)


# -- boundary conventions ---------------------------------------------


def test_boundary_sequences():
    assert layer_sources(1) == (P(1, 2), P(1, 1), P(1, 0))
    assert layer_sinks(1) == (P(2, 2), P(2, 1), P(2, 0))
    assert cs_sources(2) == (P(0, 2), P(0, 1), P(0, 0))
    assert cs_sinks(2) == (P(2, 2), P(2, 1), P(2, 0))
    assert hankel_sources(1, 1) == (P(2, 2), P(1, 1))
    assert hankel_sinks(1, 1) == (P(2, 2), P(3, 3))
    assert factored_sinks(1) == (Vertex("Pbar", 0, 1), Vertex("Pbar", 0, 0))


# -- layer networks ---------------------------------------------------


@pytest.mark.parametrize("f,case", FAMILY_CASES, ids=lambda p: str(p))
def test_layer_gf_equals_transfer_matrix_builtin(f, case):
    for n in range(4):
        layer = build_layer(f, n, case)
        assert layer.gf_matrix() == build_ln(f, n)


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_layer_gf_equals_transfer_matrix_random(case):
    rng = random.Random(100 + case)
    for trial in range(3):
        f = conforming_random_family(rng, case)
        for n in range(3):
            layer = build_layer(f, n, case)
            assert layer.gf_matrix() == build_ln(f, n)


def test_layer_census():
    for f, case in FAMILY_CASES:
        for n in range(3):
            layer = build_layer(f, n, case)
            assert len(layer.vertices) == 3 * (n + 2)
            assert len(layer.arcs) == 5 * n + 7
            assert layer.sources == layer_sources(n)
            assert layer.sinks == layer_sinks(n)


def test_layer_weight_case_mismatches_raise():
    # narayana breaks the case-1 and case-3 bounds at the bottom row,
    # eulerian breaks the case-2 bound.
    with pytest.raises(NegativeWeight):
        build_layer(NAR, 0, 1)
    with pytest.raises(NegativeWeight):
        build_layer(NAR, 0, 3)
    with pytest.raises(NegativeWeight):
        build_layer(EUL, 1, 2)
    with pytest.raises(NegativeWeight):
        build_layer(SCH, 1, 1)


def test_layer_case_5_needs_witnesses():
    with pytest.raises(MissingWitness):
        build_layer(EUL, 0, 5)


def test_layer_case_5_rejects_witnesses_that_do_not_factor():
    assert not check_condition(UNFACTORED, 5, 0).holds
    with pytest.raises(NegativeWeight, match="condition 5 at index 0"):
        build_layer(UNFACTORED, 0, 5)
    with pytest.raises(NegativeWeight):
        build_cs_network(UNFACTORED, 2, [5, 5])


def _witnessed(rng, f, allow_negative):
    """``f`` with random witness sequences attached."""
    b, c = (
        ParamSeq(0, tuple(random_qpoly(rng, allow_negative=allow_negative) for _ in range(8)))
        for _ in range(2)
    )
    return dataclasses.replace(f, witness_b=b, witness_c=c)


def _broken_at(f, index):
    """``f`` with t_index raised by 1, so condition 5 fails at index - 1."""
    terms = list(f.t_seq.prefix)
    terms[index - 1] = terms[index - 1] + ONE
    return dataclasses.replace(f, t_seq=ParamSeq(1, tuple(terms)))


@pytest.mark.parametrize("case", WEIGHT_CASES)
def test_layer_raises_exactly_when_condition_fails(case):
    rng = random.Random(300 + case)
    families = [random_family(rng) for _ in range(6)]
    families += [conforming_random_family(rng, c) for c in WEIGHT_CASES for _ in range(2)]
    families += [_witnessed(rng, random_family(rng), neg) for neg in (False, True)]
    families += [_broken_at(conforming_random_family(rng, 5), i) for i in (2, 4)]
    outcomes = set()
    for f in families:
        for n in range(5):
            try:
                holds = check_condition(f, case, n).holds
            except MissingWitness:
                with pytest.raises(MissingWitness):
                    build_layer(f, n, case)
                continue
            outcomes.add(holds)
            if holds:
                layer = build_layer(f, n, case)
                assert all(a.weight.is_q_nonnegative() for a in layer.arcs)
            else:
                with pytest.raises(NegativeWeight):
                    build_layer(f, n, case)
    assert outcomes == {True, False}


def test_layer_argument_validation():
    with pytest.raises(ValueError):
        build_layer(NAR, -1, 2)
    with pytest.raises(ValueError):
        build_layer(NAR, 0, 7)


# -- gluing -----------------------------------------------------------


def test_glue_multiplies_gf_matrices():
    x = build_cs_network(NAR, 2, [4, 4])
    bridge = PlanarNetwork(
        [
            Arc(P(2, 2), Vertex("Pbar", 2, 2), ONE),
            Arc(P(2, 1), Vertex("Pbar", 2, 1), QVAR),
            Arc(P(2, 0), Vertex("Pbar", 2, 0), QVAR * QVAR),
        ],
        cs_sinks(2),
        tuple(Vertex("Pbar", 2, h) for h in (2, 1, 0)),
    )
    glued = glue(x, bridge)
    assert glued.gf_matrix() == matmul(x.gf_matrix(), bridge.gf_matrix())
    whole = glue(glued, mirror(x))
    expected = matmul(glued.gf_matrix(), mirror(x).gf_matrix())
    assert whole.gf_matrix() == expected
    # the triple product is the Hankel matrix of the family
    assert whole.gf_matrix() == [list(row) for row in hankel(NAR, 2).entries]


def test_glue_is_associative_at_the_gf_level():
    x = build_cs_network(NAR, 2, [2, 2])
    y = PlanarNetwork(
        [Arc(P(2, h), Q(2, h), ONE if h == 2 else QVAR) for h in (2, 1, 0)],
        cs_sinks(2),
        tuple(Q(2, h) for h in (2, 1, 0)),
    )
    z = PlanarNetwork(
        [Arc(Q(2, h), Vertex("Qbar", 2, h), QVAR) for h in (2, 1, 0)],
        tuple(Q(2, h) for h in (2, 1, 0)),
        tuple(Vertex("Qbar", 2, h) for h in (2, 1, 0)),
    )
    left = glue(glue(x, y), z)
    right = glue(x, glue(y, z))
    assert left.gf_matrix() == right.gf_matrix()
    assert left.sources == right.sources
    assert left.sinks == right.sinks


def test_glue_with_identity_pass_through_preserves_gf():
    x = build_cs_network(NAR, 2, [5, 5])
    pass_through = PlanarNetwork(
        [Arc(P(2, h), Q(2, h), ONE) for h in (2, 1, 0)],
        cs_sinks(2),
        tuple(Q(2, h) for h in (2, 1, 0)),
    )
    assert glue(x, pass_through).gf_matrix() == x.gf_matrix()


def test_glue_boundary_length_mismatch():
    with pytest.raises(ShapeError):
        glue(build_layer(NAR, 0, 2), build_layer(NAR, 1, 2))


def test_glue_overlapping_interiors():
    with pytest.raises(ShapeError):
        glue(build_layer(NAR, 0, 2), build_layer(NAR, 0, 2))


def test_glue_rejects_boundary_with_arcs():
    a, b, c = P(0, 0), P(1, 0), P(2, 0)
    through = PlanarNetwork([Arc(a, b, ONE), Arc(b, c, ONE)], (a,), (b,))
    target = PlanarNetwork([Arc(b, c, ONE)], (b,), (c,))
    with pytest.raises(ShapeError):
        glue(through, target)  # declared sink b has an outgoing arc
    left = PlanarNetwork([Arc(a, b, ONE)], (a,), (b,))
    bad_right = PlanarNetwork([Arc(a, b, ONE)], (b,), (b,))
    with pytest.raises(ShapeError):
        glue(left, bad_right)  # declared source b has an incoming arc


def test_glue_rejects_duplicate_boundaries():
    a, b = P(0, 0), P(1, 0)
    x = PlanarNetwork([Arc(a, b, ONE)], (a,), (b, b))
    y = PlanarNetwork([], (P(2, 0), P(2, 1)), (P(2, 0), P(2, 1)))
    with pytest.raises(ShapeError):
        glue(x, y)


def test_mirror_is_an_involution_and_transposes_gf():
    net = build_cs_network(SCH, 2, [5, 5])
    m = mirror(net)
    assert m.sources == tuple(mirror_vertex(v) for v in net.sinks)
    back = mirror(m)
    assert set(back.arcs) == set(net.arcs)
    assert back.sources == net.sources
    assert back.sinks == net.sinks
    gf = net.gf_matrix()
    mgf = m.gf_matrix()
    for i in range(3):
        for j in range(3):
            assert mgf[i][j] == gf[j][i]


# -- triangular-matrix networks ---------------------------------------


@pytest.mark.parametrize("f,case", FAMILY_CASES, ids=lambda p: str(p))
def test_cs_network_reproduces_corner_builtin(f, case):
    for n in range(1, 5):
        net = build_cs_network(f, n, [case] * n)
        assert net.sources == cs_sources(n)
        assert net.sinks == cs_sinks(n)
        expected = [list(row) for row in catalan_stieltjes(f, n).entries]
        assert net.gf_matrix() == expected


def test_cs_network_mixed_cases():
    net = build_cs_network(NAR, 3, [2, 4, 5])
    expected = [list(row) for row in catalan_stieltjes(NAR, 3).entries]
    assert net.gf_matrix() == expected


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_cs_network_random_conforming(case):
    rng = random.Random(200 + case)
    f = conforming_random_family(rng, case)
    for n in range(1, 4):
        net = build_cs_network(f, n, [case] * n)
        expected = [list(row) for row in catalan_stieltjes(f, n).entries]
        assert net.gf_matrix() == expected


def test_cs_network_census():
    net = build_cs_network(NAR, 1, [2])
    assert len(net.vertices) == 6
    assert len(net.arcs) == 7


@pytest.mark.parametrize("f,case", FAMILY_CASES, ids=lambda p: str(p))
def test_cs_network_matches_glued_layers(f, case):
    for n in range(1, 9):
        direct = build_cs_network(f, n, [case] * n)
        glued = glued_cs_network(f, n, [case] * n)
        assert export_dot(direct) == export_dot(glued), n
        assert json.dumps(direct.to_json_dict()) == json.dumps(glued.to_json_dict()), n


def test_cs_network_mixed_cases_match_glued_layers():
    rng = random.Random(404)
    for _ in range(12):
        n = rng.randint(1, 8)
        cases = [rng.choice(WEIGHT_CASES) for _ in range(n)]
        direct = build_cs_network(FIVE, n, cases)
        glued = glued_cs_network(FIVE, n, cases)
        assert export_dot(direct) == export_dot(glued), cases
        assert json.dumps(direct.to_json_dict()) == json.dumps(glued.to_json_dict())
        assert direct.gf_matrix() == [list(r) for r in catalan_stieltjes(FIVE, n).entries]


def test_cs_network_raises_exactly_when_a_layer_condition_fails():
    rng = random.Random(505)
    outcomes = set()
    for _ in range(40):
        f = conforming_random_family(rng, rng.choice((1, 2, 3, 4)))
        n = rng.randint(1, 6)
        cases = [rng.choice((1, 2, 3, 4)) for _ in range(n)]
        fails = any(not check_condition(f, c, i).holds for i, c in enumerate(cases))
        outcomes.add(fails)
        if fails:
            with pytest.raises(NegativeWeight):
                build_cs_network(f, n, cases)
            with pytest.raises(NegativeWeight):
                glued_cs_network(f, n, cases)
        else:
            assert export_dot(build_cs_network(f, n, cases)) == export_dot(
                glued_cs_network(f, n, cases)
            )
    assert outcomes == {True, False}


def test_cs_network_validation():
    with pytest.raises(ValueError):
        build_cs_network(NAR, 0, [])
    with pytest.raises(ShapeError):
        build_cs_network(NAR, 2, [2])


# -- Hankel networks --------------------------------------------------


def hankel_entries(f, n):
    return [list(row) for row in hankel(f, n).entries]


@pytest.mark.parametrize("f,case", FAMILY_CASES, ids=lambda p: str(p))
def test_induced_hankel_network_builtin(f, case):
    for n in range(3):
        for k in range(3):
            net = build_hankel_network(f, n, k, [case] * (2 * n + k))
            assert net.sources == hankel_sources(n, k)
            assert net.sinks == hankel_sinks(n, k)
            assert net.gf_matrix() == hankel_entries(f, n), (n, k)


def test_induced_hankel_shift_independence():
    for k in range(4):
        net = build_hankel_network(NAR, 2, k, [4] * (4 + k))
        assert net.gf_matrix() == hankel_entries(NAR, 2)


def test_induced_hankel_trivial_cases():
    net = build_hankel_network(NAR, 0, 0, [])
    assert net.gf_matrix() == [[ONE]]
    assert len(net.vertices) == 1 and len(net.arcs) == 0
    net = build_hankel_network(NAR, 0, 2, [2, 2])
    assert net.gf_matrix() == [[ONE]]


def test_induced_hankel_census_and_minimality():
    net = build_hankel_network(NAR, 1, 1, [2, 2, 2])
    assert len(net.vertices) == 8
    assert len(net.arcs) == 12
    # every kept arc lies on a corner-to-corner path
    start, end = P(1, 1), P(3, 3)
    used = set()
    for vertices, _ in net.enumerate_paths(start, end):
        used.update(zip(vertices, vertices[1:]))
    assert used == {(a.tail, a.head) for a in net.arcs}


def test_induced_hankel_corner_path_sum_is_preserved():
    cases = [5] * 5
    full = build_cs_network(NAR, 5, cases)
    induced = build_hankel_network(NAR, 2, 1, cases)
    start, end = P(1, 1), P(5, 5)
    assert induced.path_gf(start, end) == full.path_gf(start, end)
    assert induced.count_paths(start, end) == full.count_paths(start, end)


def test_induced_hankel_validation():
    with pytest.raises(ValueError):
        build_hankel_network(NAR, -1, 0, [])
    with pytest.raises(ValueError):
        build_hankel_network(NAR, 0, -1, [])
    with pytest.raises(ShapeError):
        build_hankel_network(NAR, 1, 1, [2, 2])


# -- factored Hankel networks -----------------------------------------


@pytest.mark.parametrize("f,case", UNIT_R_CASES)
def test_factored_hankel_builtin(f, case):
    for n in range(4):
        net = build_hankel_factored(f, n, [case] * n)
        assert net.sources == cs_sources(n)
        assert net.sinks == factored_sinks(n)
        assert net.gf_matrix() == hankel_entries(f, n)


def test_factored_hankel_census():
    net = build_hankel_factored(NAR, 3, [5, 5, 5])
    assert len(net.vertices) == 50
    assert len(net.arcs) == 82


def test_factored_hankel_point_case():
    net = build_hankel_factored(NAR, 0, [])
    assert net.gf_matrix() == [[ONE]]


def test_factored_hankel_requires_unit_up_weights():
    with pytest.raises(RequiresUnitGamma):
        build_hankel_factored(EUL, 1, [1])
    # r_0 = 1 for the eulerian family, so the degenerate case still works
    net = build_hankel_factored(EUL, 0, [])
    assert net.gf_matrix() == [[ONE]]


def test_factored_hankel_random_conforming():
    rng = random.Random(205)
    f = conforming_random_family(rng, 5)
    for n in range(3):
        net = build_hankel_factored(f, n, [5] * n)
        assert net.gf_matrix() == hankel_entries(f, n)


# -- Hankel networks against their composed routes --------------------


def assert_same_exports(direct, oracle, label):
    assert export_dot(direct) == export_dot(oracle), label
    assert json.dumps(direct.to_json_dict()) == json.dumps(oracle.to_json_dict()), label


@pytest.mark.parametrize("f,case", FAMILY_CASES, ids=lambda p: str(p))
def test_induced_hankel_matches_pruned_whole_network(f, case):
    for n in range(5):
        for k in range(3):
            cases = [case] * (2 * n + k)
            direct = build_hankel_network(f, n, k, cases)
            assert_same_exports(direct, pruned_hankel_network(f, n, k, cases), (n, k))


@pytest.mark.parametrize("f,case", UNIT_R_CASES, ids=lambda p: str(p))
def test_factored_hankel_matches_glued_composition(f, case):
    for n in range(9):
        direct = build_hankel_factored(f, n, [case] * n)
        assert_same_exports(direct, glued_factored_network(f, n, [case] * n), n)


def test_hankel_networks_mixed_cases_match_composed_routes():
    rng = random.Random(606)
    for _ in range(10):
        n = rng.randint(0, 6)
        cases = [rng.choice(WEIGHT_CASES) for _ in range(n)]
        direct = build_hankel_factored(FIVE, n, cases)
        assert_same_exports(direct, glued_factored_network(FIVE, n, cases), cases)
        assert direct.gf_matrix() == hankel_entries(FIVE, n)
        n, k = rng.randint(0, 3), rng.randint(0, 2)
        cases = [rng.choice(WEIGHT_CASES) for _ in range(2 * n + k)]
        direct = build_hankel_network(FIVE, n, k, cases)
        assert_same_exports(direct, pruned_hankel_network(FIVE, n, k, cases), cases)
        assert direct.gf_matrix() == hankel_entries(FIVE, n)


# -- DOT export -------------------------------------------------------

EXPECTED_DOT = """digraph {
  P_0_0 [pos="0,0!"];
  P_1_0 [pos="0,1!"];
  Q_0_0 [pos="1,0!"];
  Q_1_0 [pos="1,1!"];
  P_0_1 [pos="2,0!"];
  P_1_1 [pos="2,1!"];
  P_0_0 -> Q_0_0 [label="1"];
  P_0_0 -> Q_1_0 [label="0"];
  P_0_0 -> P_1_1 [label="0"];
  P_1_0 -> Q_1_0 [label="1"];
  Q_0_0 -> P_0_1 [label="1"];
  Q_0_0 -> P_1_1 [label="q"];
  Q_1_0 -> P_1_1 [label="1"];
}
"""


def test_export_dot_frozen_small_network():
    net = build_cs_network(NAR, 1, [2])
    assert export_dot(net) == EXPECTED_DOT


def test_export_dot_is_deterministic_and_total():
    net = build_hankel_factored(SCH, 2, [5, 5])
    text = export_dot(net)
    assert text == export_dot(net)
    node_lines = [l for l in text.splitlines() if "pos=" in l]
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(node_lines) == len(net.vertices)
    assert len(edge_lines) == len(net.arcs)
    # mirrored vertices use the barred name prefixes
    assert any(l.strip().startswith("Pb_") for l in node_lines)
