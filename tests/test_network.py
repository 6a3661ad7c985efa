"""Unit tests for planar networks, gluing, and the matrix-valued path sums."""

import json
import random
from itertools import combinations

import pytest

from qcatalan.csmatrix import _packed_matrix, build_ln, catalan_stieltjes, hankel
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
from qcatalan.immanant import determinant
from qcatalan.network import (
    Arc,
    P,
    PlanarNetwork,
    Q,
    Vertex,
    _first_mismatch,
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
from qcatalan.qpoly import ONE, Q as QVAR, ZERO, QPoly, _pack, _width

from oracles import (
    conforming_random_family,
    gf_matrix_by_source,
    lgv_minor,
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
    r_seq=ParamSeq(0, tail=(ONE,)),
    s_seq=ParamSeq(0, prefix=(QPoly([1, 1]),), tail=(QPoly([2, 1]),)),
    t_seq=ParamSeq(1, tail=(QPoly([1, 1]),)),
    witness_b=ParamSeq(0, prefix=(ZERO,), tail=(ONE,)),
    witness_c=ParamSeq(0, tail=(QPoly([1, 1]),)),
)

# r = 2, s = 5, t = 1, b = c = 1: q-nonnegative but b + c != s and r != 1,
# so condition 5 fails at index 0 although every witness is q-nonnegative.
UNFACTORED = FamilySpec(
    name="unfactored",
    r_seq=ParamSeq(0, tail=(QPoly([2]),)),
    s_seq=ParamSeq(0, tail=(QPoly([5]),)),
    t_seq=ParamSeq(1, tail=(ONE,)),
    witness_b=ParamSeq(0, tail=(ONE,)),
    witness_c=ParamSeq(0, tail=(ONE,)),
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


def test_network_reports_its_first_bad_arc():
    # arcs are checked in order; a cycle is only found once every arc is in
    a, b = P(0, 0), P(1, 0)
    with pytest.raises(ValueError, match="duplicate arc"):
        PlanarNetwork([Arc(b, a, ONE), Arc(a, b, ONE), Arc(a, b, ONE), (a, b, 1)], (a,), (b,))
    with pytest.raises(TypeError):
        PlanarNetwork([Arc(b, a, ONE), (a, b, 1), Arc(b, a, ONE)], (a,), (b,))


def test_network_from_plain_tuples_equals_one_from_arcs():
    rng = random.Random(6063)
    for trial in range(20):
        net = _random_network(rng)
        plain = PlanarNetwork([tuple(a) for a in net.arcs], net.sources, net.sinks)
        assert plain.arcs == net.arcs, trial
        assert all(type(a) is Arc for a in plain.arcs), trial
        assert plain.gf_matrix() == net.gf_matrix(), trial
        again = PlanarNetwork(net.arcs, net.sources, net.sinks)
        assert all(x is y for x, y in zip(again.arcs, net.arcs)), trial


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
    return FamilySpec(f.name, f.r_seq, f.s_seq, f.t_seq, witness_b=b, witness_c=c)


def _broken_at(f, index):
    """``f`` with t_index raised by 1, so condition 5 fails at index - 1."""
    terms = list(f.t_seq.prefix)
    terms[index - 1] = terms[index - 1] + ONE
    return FamilySpec(
        f.name, f.r_seq, f.s_seq, ParamSeq(1, tuple(terms)), f.witness_b, f.witness_c
    )


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


# Each glue test below breaks one of glue's rules and no other: with that rule
# switched off, the glue would succeed.
def _glue_error(x, y) -> str:
    with pytest.raises(ShapeError) as info:
        glue(x, y)
    return str(info.value)


def test_glue_boundary_length_mismatch():
    x = PlanarNetwork([Arc(P(0, 0), P(1, 0), ONE)], (P(0, 0),), (P(1, 0),))
    y = PlanarNetwork([], (Q(2, 0), Q(2, 1)), (Q(2, 0), Q(2, 1)))
    assert _glue_error(x, y) == "cannot glue: 1 sinks against 2 sources"


def test_glue_overlapping_interiors():
    a, b, z, c = P(0, 0), P(1, 0), P(1, 1), Q(2, 0)
    x = PlanarNetwork([Arc(a, b, ONE), Arc(a, z, ONE)], (a,), (b,))
    y = PlanarNetwork([Arc(c, z, ONE)], (c,), (z,))  # z is interior to x
    assert _glue_error(x, y) == f"vertex {z} appears on both sides away from the boundary"


def test_glue_rejects_boundary_with_arcs():
    a, b, c, d, e = P(0, 0), P(1, 0), P(2, 0), Q(3, 0), Q(4, 0)
    through = PlanarNetwork([Arc(a, b, ONE), Arc(b, c, ONE)], (a,), (b,))
    right = PlanarNetwork([Arc(d, e, ONE)], (d,), (e,))
    assert _glue_error(through, right) == f"sink {b} of the left network has outgoing arcs"
    left = PlanarNetwork([Arc(a, b, ONE)], (a,), (b,))
    into = PlanarNetwork([Arc(d, e, ONE)], (e,), (e,))
    assert _glue_error(left, into) == f"source {e} of the right network has incoming arcs"


def test_glue_rejects_duplicate_boundaries():
    a, b = P(0, 0), P(1, 0)
    message = "cannot glue: boundary sequences contain duplicates"
    x = PlanarNetwork([Arc(a, b, ONE)], (a,), (b, b))
    y = PlanarNetwork([], (Q(2, 0), Q(2, 1)), (Q(2, 0), Q(2, 1)))
    assert _glue_error(x, y) == message
    x = PlanarNetwork([Arc(a, b, ONE), Arc(a, P(1, 1), ONE)], (a,), (b, P(1, 1)))
    y = PlanarNetwork([], (Q(2, 0), Q(2, 0)), (Q(2, 0), Q(2, 0)))
    assert _glue_error(x, y) == message


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


# -- vertex sets --------------------------------------------------------


def _arc_ends_and_boundary(net):
    ends = {v for a in net.arcs for v in (a.tail, a.head)}
    return ends | set(net.sources) | set(net.sinks)


def _built_networks():
    for f, case in FAMILY_CASES:
        for n in range(9):
            yield build_cs_network(f, n, [case] * n)
        for n in range(4):
            for k in range(2):
                yield build_hankel_network(f, n, k, [case] * (2 * n + k))
    for f, case in UNIT_R_CASES:
        for n in range(5):
            yield build_hankel_factored(f, n, [case] * n)
            yield glued_factored_network(f, n, [case] * n)


def test_vertices_are_arc_ends_and_boundary():
    for net in _built_networks():
        assert net.vertices == _arc_ends_and_boundary(net)
        mirrored = mirror(net)
        assert mirrored.vertices == {mirror_vertex(v) for v in net.vertices}
        assert mirrored.vertices == _arc_ends_and_boundary(mirrored)


def test_each_construction_holds_one_object_per_vertex():
    cases = [1, 5, 2, 4, 3]
    layered = build_cs_network(FIVE, 5, cases)
    nets = [
        layered,
        mirror(layered),
        build_layer(FIVE, 4, 3),
        build_hankel_network(FIVE, 2, 1, cases),
        build_hankel_factored(FIVE, 5, cases),
    ]
    for net in nets:
        ends = [v for a in net.arcs for v in a[:2]]
        assert len({id(v) for v in ends}) == len(set(ends)) > 0


@pytest.mark.parametrize("f,case", FAMILY_CASES, ids=lambda p: str(p))
def test_glue_keeps_every_vertex_of_both_parts(f, case):
    for n in range(9):
        net = build_cs_network(f, n, [case] * n)
        mirrored = mirror(net)
        glued = glue(net, mirrored)
        renamed = {mirror_vertex(v): v for v in net.sinks}
        assert glued.vertices == net.vertices | {renamed.get(v, v) for v in mirrored.vertices}
        assert glued.vertices == _arc_ends_and_boundary(glued)


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


@pytest.mark.parametrize("f", [NAR, SCH, EUL, FIVE], ids=lambda f: f.name)
def test_cs_network_at_n_0_is_the_point_network(f):
    net = build_cs_network(f, 0, [])
    assert net.vertices == {P(0, 0)} and net.arcs == ()
    assert net.sources == net.sinks == (P(0, 0),)
    assert net.gf_matrix() == [list(row) for row in catalan_stieltjes(f, 0).entries]


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


@pytest.mark.parametrize("f,case", FAMILY_CASES, ids=[f"{f.name}-{c}" for f, c in FAMILY_CASES])
def test_cs_network_reads_each_term_a_bounded_number_of_times(f, case, monkeypatch):
    # each case's weights are built once per index, not once per layer
    reads = []
    for name in ("r", "s", "t", "b", "c"):
        method = getattr(FamilySpec, name)

        def counted(self, k, method=method):
            reads.append(k)
            return method(self, k)

        monkeypatch.setattr(FamilySpec, name, counted)
    n = 40
    build_cs_network(f, n, [case] * n)
    assert 0 < len(reads) <= 8 * (n + 1)


def test_cs_network_validation():
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        build_cs_network(NAR, -1, [])
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


def test_factored_hankel_rejects_a_negative_n():
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        build_hankel_factored(NAR, -1, ())


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


# -- zero-weight arcs ----------------------------------------------------


def _zero_arc_networks():
    """Layered, induced Hankel and factored Hankel networks that hold zero arcs."""
    rng = random.Random(808)
    layered = [(f, case) for f, case in FAMILY_CASES]
    layered += [(FIVE, case) for case in WEIGHT_CASES]
    layered += [(conforming_random_family(rng, case), case) for case in WEIGHT_CASES]
    for f, case in layered:
        for n in range(4):
            yield build_layer(f, n, case)
        for n in range(6):
            yield build_cs_network(f, n, [case] * n)
    for f, case in FAMILY_CASES:
        for n in range(4):
            for k in range(3):
                yield build_hankel_network(f, n, k, [case] * (2 * n + k))
    for f, case in UNIT_R_CASES:
        for n in range(5):
            yield build_hankel_factored(f, n, [case] * n)


def test_dropping_zero_arcs_keeps_the_gf_matrix_and_the_boundary():
    dropped = 0
    for net in _zero_arc_networks():
        kept = [a for a in net.arcs if not a.weight.is_zero()]
        dropped += len(net.arcs) - len(kept)
        pruned = PlanarNetwork(kept, net.sources, net.sinks)
        assert pruned.gf_matrix() == net.gf_matrix()
        assert set(net.sources) | set(net.sinks) <= pruned.vertices
        assert pruned.vertices <= net.vertices
    assert dropped > 0


# -- the packed GF sweep against the per-source oracle -------------------


def assert_gf_matches_oracle(net, label):
    want = gf_matrix_by_source(net)
    assert net.gf_matrix() == want, label
    for i, u in enumerate(net.sources):
        for j, v in enumerate(net.sinks):
            assert net.path_gf(u, v) == want[i][j], (label, u, v)


@pytest.mark.parametrize("f,case", FAMILY_CASES, ids=lambda p: str(p))
def test_packed_gf_matches_oracle_on_layered_networks(f, case):
    for n in range(1, 9):
        assert_gf_matches_oracle(build_cs_network(f, n, [case] * n), n)


@pytest.mark.parametrize("f,case", FAMILY_CASES, ids=lambda p: str(p))
def test_packed_gf_matches_oracle_on_induced_hankel_networks(f, case):
    for n in range(4):
        for k in range(2):
            net = build_hankel_network(f, n, k, [case] * (2 * n + k))
            assert_gf_matches_oracle(net, (n, k))


@pytest.mark.parametrize("f,case", UNIT_R_CASES, ids=lambda p: str(p))
def test_packed_gf_matches_oracle_on_factored_hankel_networks(f, case):
    for n in range(5):
        assert_gf_matches_oracle(build_hankel_factored(f, n, [case] * n), n)


def _random_network(rng):
    """A random acyclic grid network with signed, zero and large weights.

    Arcs run from a lower level to a higher one.  The boundary always has a
    source that is also a sink, a source that another source reaches, and a
    sink that nothing reaches.
    """
    levels, heights = rng.randint(2, 5), rng.randint(1, 3)
    grid = [P(l, h) for l in range(levels) for h in range(heights)]
    weights = {}
    for tail in grid:
        for head in grid:
            if head.level > tail.level and rng.random() < 0.4:
                weight = random_qpoly(rng, max_deg=3, allow_negative=True)
                if rng.random() < 0.1:
                    weight = weight * (10**12 + 1)
                weights[tail, head] = weight
    start, loop = P(0, 0), P(levels - 1, heights - 1)
    weights[start, P(1, 0)] = QPoly([-1, 2])
    arcs = [Arc(tail, head, w) for (tail, head), w in weights.items()]
    lonely = Vertex("Q", levels, 0)
    sources = [start, P(1, 0), loop] + rng.sample(grid, 2)
    sinks = [loop, lonely, P(1, 0)] + rng.sample(grid, 2)
    rng.shuffle(sources)
    rng.shuffle(sinks)
    return PlanarNetwork(arcs, sources, sinks)


def test_packed_gf_matches_oracle_on_random_signed_networks():
    rng = random.Random(6060)
    for trial in range(200):
        assert_gf_matches_oracle(_random_network(rng), trial)


def _reweighed(net, rng, shared):
    """``net`` with each arc's weight drawn from a pool of three signed
    polynomials: the pool's own objects if ``shared``, else an equal new
    object per arc."""
    pool = [random_qpoly(rng, max_deg=3, allow_negative=True) for _ in range(3)]
    arcs = []
    for arc in net.arcs:
        weight = rng.choice(pool)
        arcs.append(arc._replace(weight=weight if shared else QPoly(weight.coeffs)))
    return PlanarNetwork(arcs, net.sources, net.sinks)


def test_packed_gf_matches_oracle_when_arcs_share_weight_objects():
    rng = random.Random(6068)
    for trial in range(100):
        for shared in (True, False):
            assert_gf_matches_oracle(_reweighed(_random_network(rng), rng, shared), trial)


def test_sweep_weighs_each_weight_object_it_walks_once():
    rng = random.Random(6065)
    for trial in range(100):
        net = _reweighed(_random_network(rng), rng, shared=trial % 2 == 0)
        calls = []

        def weigh(p):
            calls.append(id(p))
            return _pack(p.coeffs, 64), sum(map(abs, p.coeffs))

        net._sweep(net.sources, net.sinks, weigh)
        reached = set(net.sources)
        for arc in sorted(net.arcs, key=lambda a: a.tail.level):  # arcs climb levels
            if arc.tail in reached and arc.weight:
                reached.add(arc.head)
        walked = {id(arc.weight) for arc in net.arcs if arc.tail in reached}
        assert sorted(calls) == sorted(walked), trial


def test_packed_path_gf_matches_oracle_between_every_vertex_pair():
    rng = random.Random(6061)
    for trial in range(20):
        net = _random_network(rng)
        every = sorted(net.vertices)
        assert_gf_matches_oracle(PlanarNetwork(net.arcs, every, every), trial)


def test_count_paths_matches_enumeration_between_every_vertex_pair():
    # zero-weight arcs still carry paths; the lonely vertex reaches nothing
    rng = random.Random(6062)
    for _ in range(20):
        net = _random_network(rng)
        arcs = [a._replace(weight=ZERO) if rng.random() < 0.3 else a for a in net.arcs]
        arcs[0] = arcs[0]._replace(weight=ZERO)
        net = PlanarNetwork(arcs, net.sources, net.sinks)
        for u in net.vertices:
            for v in net.vertices:
                assert net.count_paths(u, v) == len(net.enumerate_paths(u, v))


def _assert_minors_are_lgv_sums(net: PlanarNetwork) -> int:
    """Every k x k minor of the GF matrix, k <= 3, against its path families."""
    grid = net.gf_matrix()
    checked = 0
    for k in range(1, 4):
        for rows in combinations(range(len(net.sources)), k):
            for cols in combinations(range(len(net.sinks)), k):
                minor = determinant([[grid[i][j] for j in cols] for i in rows])
                assert minor == lgv_minor(net, rows, cols), (rows, cols)
                checked += 1
    return checked


@pytest.mark.parametrize(
    "f,minors",
    [(EUL, 346), (SCH, 332), (NAR, 956)],
    ids=["eulerian", "schroder", "narayana"],
)
def test_gf_minors_are_lgv_sums_on_layered_networks(f, minors):
    # every weight case the family meets, up to the largest n <= 4 it meets
    # it at: n = 4 gives a 5 x 5 matrix with 25 + 100 + 100 minors
    checked = 0
    for case in WEIGHT_CASES:
        for n in range(5):
            try:
                net = build_cs_network(f, n, [case] * n)
            except (NegativeWeight, MissingWitness):
                break
            checked += _assert_minors_are_lgv_sums(net)
    assert checked == minors


@pytest.mark.parametrize("case", [2, 4, 5])
def test_gf_minors_are_lgv_sums_on_hankel_networks(case):
    for n in range(3):
        _assert_minors_are_lgv_sums(build_hankel_network(NAR, n, 1, [case] * (2 * n + 1)))
        _assert_minors_are_lgv_sums(build_hankel_factored(NAR, n, [case] * n))


def test_packed_gf_on_arcless_networks():
    a, b = P(0, 0), P(1, 0)
    net = PlanarNetwork((), (a, b), (b, a))
    assert net.vertices == {a, b}
    assert net.gf_matrix() == [[ZERO, ONE], [ONE, ZERO]]
    assert net.gf_matrix() == gf_matrix_by_source(net)
    empty = PlanarNetwork((), (), ())
    assert empty.gf_matrix() == [] == gf_matrix_by_source(empty)


def test_packed_gf_cancels_to_zero_exactly():
    a, b, c, d = P(0, 0), P(1, 1), P(1, 0), P(2, 0)
    big = QPoly([10**30, -(10**30)])
    net = PlanarNetwork(
        [Arc(a, b, big), Arc(a, c, -big), Arc(b, d, ONE), Arc(c, d, ONE)],
        (a,),
        (d, b),
    )
    assert net.gf_matrix() == [[ZERO, big]] == gf_matrix_by_source(net)


def assert_bounds_hold(net, label):
    """Each sink's bound B(v) against every coefficient of its GF column."""
    bounds = net._bounds(net.sources, net.sinks)
    for row in gf_matrix_by_source(net):
        for j, (entry, bound) in enumerate(zip(row, bounds)):
            assert all(abs(c) <= bound for c in entry.coeffs), (label, j, bound, entry)


def test_gf_bound_holds_on_random_signed_networks():
    rng = random.Random(6064)
    for trial in range(200):
        assert_bounds_hold(_random_network(rng), trial)


def test_gf_bound_holds_on_every_construction():
    for f, case in FAMILY_CASES:
        for n in range(7):
            assert_bounds_hold(build_cs_network(f, n, [case] * n), (f.name, case, n))
            for k in range(2):
                net = build_hankel_network(f, n, k, [case] * (2 * n + k))
                assert_bounds_hold(net, (f.name, case, n, k))
    for f, case in UNIT_R_CASES:
        for n in range(7):
            assert_bounds_hold(build_hankel_factored(f, n, [case] * n), (f.name, case, n))


def test_packed_pass_returns_the_bounds_of_the_bound_pass():
    rng = random.Random(6066)
    for trial in range(100):
        net = _random_network(rng)
        bounds = net._bounds(net.sources, net.sinks)
        twice = [*net.sources, net.sources[0]]  # a source listed twice counts once
        assert net._bounds(twice, net.sinks) == bounds, trial
        for bits in (8, 64):
            assert net._packed_rows(twice, net.sinks, bits)[1] == bounds, (trial, bits)
    # 256 - q packs to 0 at 8 bits, but still bounds the sink's coefficients
    a, b = P(0, 0), P(1, 0)
    net = PlanarNetwork([Arc(a, b, QPoly([256, -1]))], (a,), (b,))
    assert net._packed_rows((a,), (b,), 8) == ([[0]], [257])


# -- the packed check against the matrix --------------------------------


def _decoded_mismatch(net, f, n, is_hankel):
    """The first row-major entry where the decoded GF matrix and matrix differ."""
    got = net.gf_matrix()
    want = [list(row) for row in (hankel if is_hankel else catalan_stieltjes)(f, n).entries]
    for i, (x, y) in enumerate(zip(got, want)):
        for j in range(len(y)):
            if x[j] != y[j]:
                return i, j, x[j], y[j]
    return None


def _checked_networks():
    """(network, family, n, is_hankel) for every construction at n <= 6."""
    rng = random.Random(3404)
    pairs = FAMILY_CASES + [(conforming_random_family(rng, c), c) for c in WEIGHT_CASES]
    for f, case in pairs:
        for n in range(7):
            yield build_cs_network(f, n, [case] * n), f, n, False
            yield build_hankel_network(f, n, n % 2, [case] * (2 * n + n % 2)), f, n, True
            if all(f.r(k) == ONE for k in range(n + 1)):  # as the factored network needs
                yield build_hankel_factored(f, n, [case] * n), f, n, True


def _doctored(net, rng):
    """``net`` with one arc's weight changed by a signed polynomial."""
    arcs = list(net.arcs)
    if arcs:
        k = rng.randrange(len(arcs))
        change = random_qpoly(rng, allow_negative=True) or -ONE
        arcs[k] = arcs[k]._replace(weight=arcs[k].weight + change)
    return PlanarNetwork(arcs, net.sources, net.sinks)


def test_packed_check_agrees_with_the_decoded_comparison():
    rng = random.Random(3405)
    verdicts = set()
    for net, f, n, is_hankel in _checked_networks():
        for candidate in (net, _doctored(net, rng)):
            mismatch = _first_mismatch(candidate, *_packed_matrix(f, n, is_hankel))
            assert mismatch == _decoded_mismatch(candidate, f, n, is_hankel), (f.name, n)
            verdicts.add(mismatch is None)
    assert verdicts == {True, False}


def _with_arc(net, i, j, weight):
    """``net`` with one more arc, from source i to sink j."""
    arc = Arc(net.sources[i], net.sinks[j], weight)
    return PlanarNetwork(net.arcs + (arc,), net.sources, net.sinks)


def test_packed_check_finds_an_entry_that_aliases_at_the_matrix_width():
    # 2**B - q packs to 0 at the matrix's own width B, so the wrong entry
    # would pack like the right one there; the shared width is wider
    bound, packer = _packed_matrix(NAR, 3, False)
    bits = _width(bound)
    net = _with_arc(build_cs_network(NAR, 3, [4] * 3), 2, 1, QPoly([2**bits, -1]))
    want = catalan_stieltjes(NAR, 3).entries[2][1]
    got = want + QPoly([2**bits, -1])
    assert _pack(got.coeffs, bits) == _pack(want.coeffs, bits)
    assert _first_mismatch(net, bound, packer) == (2, 1, got, want)


def test_packed_check_reads_the_entries_above_the_diagonal():
    net = _with_arc(build_cs_network(NAR, 3, [2] * 3), 0, 2, QVAR)
    assert _first_mismatch(net, *_packed_matrix(NAR, 3, False)) == (0, 2, QVAR, ZERO)


def _record_passes(monkeypatch):
    """The digit width of each packed pass, and the list of all passes."""
    widths, sweeps = [], []
    packed_rows, sweep = PlanarNetwork._packed_rows, PlanarNetwork._sweep

    def record_width(self, starts, ends, bits):
        widths.append(bits)
        return packed_rows(self, starts, ends, bits)

    def record_sweep(self, *args):
        sweeps.append(args)
        return sweep(self, *args)

    monkeypatch.setattr(PlanarNetwork, "_packed_rows", record_width)
    monkeypatch.setattr(PlanarNetwork, "_sweep", record_sweep)
    return widths, sweeps


def test_check_makes_one_pass_when_the_matrix_width_holds_every_sink_bound(monkeypatch):
    widths, sweeps = _record_passes(monkeypatch)
    bound, packer = _packed_matrix(SCH, 40, False)
    assert _first_mismatch(build_cs_network(SCH, 40, [5] * 40), bound, packer) is None
    assert widths == [_width(bound)] == [96]
    assert len(sweeps) == 1


@pytest.mark.parametrize("n,width,entry_width", [(5, 16, 8), (18, 64, 32)])
def test_check_packs_once_at_the_width_of_the_largest_column_sum(
    monkeypatch, n, width, entry_width
):
    # each sink's bound pools every source, so it needs a wider digit than
    # the matrix's largest entry; the matrix's column sums come to the same
    net = build_cs_network(NAR, n, [2] * n)
    bound, packer = _packed_matrix(NAR, n, False)
    largest = max(sum(p.coeffs) for row in catalan_stieltjes(NAR, n).entries for p in row)
    assert _width(largest) == entry_width
    assert max(net._bounds(net.sources, net.sinks)) == bound
    widths, sweeps = _record_passes(monkeypatch)
    assert _first_mismatch(net, bound, packer) is None
    assert widths == [width]
    assert len(sweeps) == 1


def test_check_repacks_once_when_a_sink_bound_needs_a_wider_digit(monkeypatch):
    # detours weighing X and -X from source 0 to sink 0 leave GF(0, 0) as it
    # was and add 2X to that sink's bound
    bound, packer = _packed_matrix(NAR, 3, False)
    bits = _width(bound)
    net = build_cs_network(NAR, 3, [4] * 3)
    u, v = net.sources[0], net.sinks[0]
    detours = []
    for h, sign in enumerate((1, -1)):
        w = Vertex("Q", 9, h)
        detours += [Arc(u, w, QPoly([sign << bits])), Arc(w, v, ONE)]
    net = PlanarNetwork(net.arcs + tuple(detours), net.sources, net.sinks)
    wide = _width(max(net._bounds(net.sources, net.sinks)))
    assert wide > bits
    widths, sweeps = _record_passes(monkeypatch)
    assert _first_mismatch(net, bound, packer) is None
    assert widths == [bits, wide]
    assert len(sweeps) == 2


def test_gf_matrix_packs_without_the_bounds_its_first_pass_gave(monkeypatch):
    pooled, sweep = [], PlanarNetwork._sweep

    def record(self, *args):
        result = sweep(self, *args)
        pooled.append(result[1])
        return result

    monkeypatch.setattr(PlanarNetwork, "_sweep", record)
    net = build_cs_network(NAR, 4, [2] * 4)
    assert net.gf_matrix() == [list(row) for row in catalan_stieltjes(NAR, 4).entries]
    assert len(pooled) == 2
    assert all(pooled[0].get(v) for v in net.sinks)
    assert not any(pooled[1].get(v) for v in net.sinks)


def _compared_width(net, bound, packer):
    """The width at which ``_first_mismatch`` packs the matrix, and its verdict."""
    asked = []

    def record(bits):
        asked.append(bits)
        return packer(bits)

    verdict = _first_mismatch(net, bound, record)
    assert len(asked) == 1
    return asked[0], verdict


def test_check_compares_at_the_width_of_the_larger_bound():
    for net, f, n, is_hankel in _checked_networks():
        bound, packer = _packed_matrix(f, n, is_hankel)
        bounds = net._bounds(net.sources, net.sinks)
        assert bound == max(bounds), (f.name, n, is_hankel)  # the largest column sum
        wide = _width(max([bound, *bounds]))
        assert _compared_width(net, bound, packer) == (wide, None), (f.name, n, is_hankel)
    rng = random.Random(6067)
    for trial in range(200):
        net = _random_network(rng)
        matrix = gf_matrix_by_source(net)
        top = max((abs(c) for row in matrix for p in row for c in p.coeffs), default=0)
        bound = rng.choice([0, top, top << 8, top << 80])  # B(v) holds every entry

        def packer(bits):
            return [[_pack(p.coeffs, bits) for p in row] for row in matrix]

        wide = _width(max([bound, *net._bounds(net.sources, net.sinks)]))
        assert _compared_width(net, bound, packer) == (wide, None), trial


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


EXPECTED_FACTORED_DOT = """digraph {
  P_0_0 [pos="0,0!"];
  P_1_0 [pos="0,1!"];
  Q_0_0 [pos="1,0!"];
  Q_1_0 [pos="1,1!"];
  P_0_1 [pos="2,0!"];
  P_1_1 [pos="2,1!"];
  Pb_0_1 [pos="3,0!"];
  Pb_1_1 [pos="3,1!"];
  Qb_0_0 [pos="4,0!"];
  Qb_1_0 [pos="4,1!"];
  Pb_0_0 [pos="5,0!"];
  Pb_1_0 [pos="5,1!"];
  P_0_0 -> Q_0_0 [label="1"];
  P_0_0 -> Q_1_0 [label="0"];
  P_0_0 -> P_1_1 [label="0"];
  P_1_0 -> Q_1_0 [label="1"];
  Q_0_0 -> P_0_1 [label="1"];
  Q_0_0 -> P_1_1 [label="q"];
  Q_1_0 -> P_1_1 [label="1"];
  P_0_1 -> Pb_0_1 [label="q"];
  P_1_1 -> Pb_1_1 [label="1"];
  Pb_0_1 -> Qb_0_0 [label="1"];
  Pb_1_1 -> Qb_0_0 [label="q"];
  Pb_1_1 -> Qb_1_0 [label="1"];
  Pb_1_1 -> Pb_0_0 [label="0"];
  Qb_0_0 -> Pb_0_0 [label="1"];
  Qb_1_0 -> Pb_0_0 [label="0"];
  Qb_1_0 -> Pb_1_0 [label="1"];
}
"""


def test_export_dot_frozen_barred_network():
    # the barred kinds: Pb_/Qb_ names, drawn mirrored right of the bridge
    net = build_hankel_factored(NAR, 1, [2])
    assert export_dot(net) == EXPECTED_FACTORED_DOT


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
