"""Layered planar networks whose path polynomials reproduce the matrices.

Vertices live on a grid: ``P`` vertices at even columns (one column per
level), ``Q`` vertices between them, and barred kinds (``Pbar``/``Qbar``)
for mirrored copies.  A one-level layer network carries the transfer
matrix L_n as its path generating functions.  Each construction is one
arc list in one graph: the triangular network holds every layer's arcs
plus identity padding rows, and the two Hankel networks hold either the
corner-to-corner arcs of a taller one, or its arcs, a diagonal bridge and
their mirror image (the network ``glue`` and ``mirror`` compose from them).

The generating function GF(u, v) is the sum over all directed u -> v paths
of the product of arc weights, with GF(u, u) = 1.  The whole GF matrix
comes from one pass in topological order that carries, at each vertex, the
path sums from every source with each polynomial packed into the integer
p(2**B) (Kronecker substitution), each distinct weight object packed once.
The same pass carries one more value per vertex, its bound: the path sums
at q = 1 over absolute coefficient sums, pooled over the sources, which
bound every coefficient of every entry and so fix the least B that
decodes them.  ``gf_matrix`` takes the bounds from a first pass and
carries only the packed sums in the second.  The check against C_n or H_n
(``_first_mismatch``) packs at the width of the matrix's largest column
sum, which is the largest sink bound on a network of nonnegative weights
that matches it, and gets the bounds with the rows, repacking in a second
pass only when a sink's bound needs a wider digit; it compares integers,
so only an entry that differs is unpacked.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import CapExceeded, NegativeWeight, RequiresUnitGamma, ShapeError
from .families import FamilySpec, check_condition, condition_difference
from .qpoly import ONE, QPoly, ZERO, _Memo, _canonical, _norm, _pack, _unpack, _width


class _Kind(NamedTuple):
    rank: int  # sort rank among the kinds of one level
    mirror: str  # kind of the mirror image
    dot: str  # DOT name prefix
    column: int  # x = 2 * level + column, or 4 * max_level + 1 minus that if barred
    barred: bool


_KINDS = {
    "P": _Kind(0, "Pbar", "P", 0, False),
    "Q": _Kind(1, "Qbar", "Q", 1, False),
    "Pbar": _Kind(2, "P", "Pb", 0, True),
    "Qbar": _Kind(3, "Q", "Qb", 1, True),
}


class Vertex(NamedTuple):
    kind: str
    level: int
    height: int


class Arc(NamedTuple):
    tail: Vertex
    head: Vertex
    weight: QPoly


def P(level: int, height: int) -> Vertex:
    return Vertex("P", level, height)


def Q(level: int, height: int) -> Vertex:
    return Vertex("Q", level, height)


def mirror_vertex(v: Vertex) -> Vertex:
    return Vertex(_KINDS[v.kind].mirror, v.level, v.height)


def _vkey(v: Vertex) -> tuple[int, int, int]:
    return (v.level, _KINDS[v.kind].rank, v.height)


def _reachable(arcs: Iterable[Arc], origin: Vertex, backward: bool = False) -> set[Vertex]:
    """Vertices reachable from ``origin`` along ``arcs``, or against them."""
    step: dict[Vertex, list[Vertex]] = {}
    for arc in arcs:
        tail, head = (arc.head, arc.tail) if backward else (arc.tail, arc.head)
        step.setdefault(tail, []).append(head)
    seen = {origin}
    stack = [origin]
    while stack:
        for w in step.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


class PlanarNetwork:
    """An acyclic weighted digraph with ordered source and sink sequences.

    Its vertices are the arc endpoints, sources and sinks.  Zero-weight
    arcs are stored like any other arc.  One pass over the arcs checks
    their weights and fills each tail's out-arc map (head -> weight, in arc
    order), which rejects a duplicate arc; Kahn's algorithm on those maps
    then verifies acyclicity, and its topological order is kept for the
    generating-function sweeps.
    """

    def __init__(
        self,
        arcs: Iterable[Arc | tuple],
        sources: Sequence[Vertex],
        sinks: Sequence[Vertex],
    ) -> None:
        self.arcs: tuple[Arc, ...] = tuple(a if isinstance(a, Arc) else Arc(*a) for a in arcs)
        self.sources: tuple[Vertex, ...] = tuple(sources)
        self.sinks: tuple[Vertex, ...] = tuple(sinks)
        adj: dict[Vertex, dict[Vertex, QPoly]] = {v: {} for v in (*self.sources, *self.sinks)}
        indegree: dict[Vertex, int] = dict.fromkeys(adj, 0)
        for tail, head, weight in self.arcs:
            if not isinstance(weight, QPoly):
                raise TypeError(f"arc weight {weight!r} is not a QPoly")
            out = adj.get(tail)
            if out is None:
                out = adj[tail] = {}
            if head in out:
                raise ValueError(f"duplicate arc {tail} -> {head}")
            out[head] = weight
            if head not in adj:
                adj[head] = {}
            indegree[head] = indegree.get(head, 0) + 1
        self.vertices: frozenset[Vertex] = frozenset(adj)
        self._adj = adj

        topo = [v for v in adj if not indegree.get(v)]
        for v in topo:  # grows while it is walked
            for head in adj[v]:
                indegree[head] -= 1
                if not indegree[head]:
                    topo.append(head)
        if len(topo) != len(adj):
            raise ValueError("digraph contains a directed cycle")
        self._topo = tuple(topo)

    # -- path generating functions ------------------------------------

    def _require_vertex(self, v: Vertex) -> None:
        if v not in self.vertices:
            raise ValueError(f"{v} is not a vertex of this network")

    def _sweep(
        self,
        starts: Sequence[Vertex],
        ends: Sequence[Vertex],
        weigh: Callable[[QPoly], tuple[int, int]],
    ) -> tuple[dict[Vertex, dict[int, int]], dict[Vertex, int]]:
        """Every start's path sums, and one pooled sum, at every end, in one
        topological pass.

        ``weigh`` maps an arc weight to a pair of integers (w, n), and runs
        once per distinct weight object: its results are kept by ``id``,
        which is safe since the network holds every weight for the pass.
        The first map sends v to a map from start index i to the sum, over
        starts[i] -> v paths, of the products of the w's; the second sends v
        to the sum over the distinct starts u of the u -> v path sums of the
        products of the n's.  A vertex's sums are dropped once its out-arcs
        are done unless it is an end.  An arc with w = 0 adds nothing to the
        first map, and one with w = 1 adds there without a multiply; an arc
        with n = 0 adds nothing to the second, so a ``weigh`` whose n's are
        all 0 makes a pass that carries no pooled sums.
        """
        keep = set(ends)
        acc: dict[Vertex, dict[int, int]] = {}
        pooled: dict[Vertex, int] = dict.fromkeys(starts, 1)
        for i, u in enumerate(starts):
            acc.setdefault(u, {})[i] = 1
        weighed: dict[int, tuple[int, int]] = {}
        for v in self._topo:
            if v in keep:
                total, value = pooled.get(v, 0), acc.get(v)
            else:
                total, value = pooled.pop(v, 0), acc.pop(v, None)
            if not total and not value:
                continue
            for head, weight in self._adj[v].items():
                key = id(weight)
                pair = weighed.get(key)
                if pair is None:
                    pair = weighed[key] = weigh(weight)
                w, n = pair
                if n and total:
                    pooled[head] = pooled.get(head, 0) + total * n
                if not w or not value:
                    continue
                target = acc.get(head)
                if target is None:
                    acc[head] = (
                        dict(value) if w == 1 else {i: x * w for i, x in value.items()}
                    )
                elif w == 1:
                    for i, x in value.items():
                        target[i] = target.get(i, 0) + x
                else:
                    for i, x in value.items():
                        target[i] = target.get(i, 0) + x * w
        return acc, pooled

    def _bounds(self, starts: Sequence[Vertex], ends: Sequence[Vertex]) -> list[int]:
        """B(v) for each v in ``ends``: the sum over the distinct starts u of
        the u -> v path sums at q = 1, each weight replaced by the sum of its
        absolute coefficients.  B(v) is at least every coefficient of every
        GF(u, v) in absolute value, and costs one pass that carries no
        per-start sums."""
        pooled = self._sweep(starts, ends, lambda p: (0, _norm(p)))[1]
        return [pooled.get(v, 0) for v in ends]

    def _packed_rows(
        self, starts: Sequence[Vertex], ends: Sequence[Vertex], bits: int, bounds: bool = True
    ) -> tuple[list[list[int]], list[int] | None]:
        """GF(u, v) packed as p(2**bits) (Kronecker substitution), for u in
        ``starts`` (rows) and v in ``ends`` (columns), and, when ``bounds``,
        the ends' bounds B(v) (``_bounds``): one pass, in which each arc
        costs one big-integer multiply-add, and one small one for the
        bounds, and each distinct weight is packed once.  The packed values
        are exact at any width, and ``_unpack`` decodes them at ``_width`` of
        the largest B(v) or wider."""
        norm = _norm if bounds else lambda p: 0
        packed, pooled = self._sweep(starts, ends, lambda p: (_pack(p.coeffs, bits), norm(p)))
        columns = [packed.get(v, {}) for v in ends]
        rows = [[column.get(i, 0) for column in columns] for i in range(len(starts))]
        return rows, [pooled.get(v, 0) for v in ends] if bounds else None

    def _gf_rows(
        self, starts: Sequence[Vertex], ends: Sequence[Vertex]
    ) -> list[list[QPoly]]:
        """GF(u, v) for u in ``starts`` (rows) and v in ``ends`` (columns),
        unpacked at the width of the largest end bound B(v) (``_bounds``):
        a pass for the bounds, then one that carries only the packed sums."""
        bits = _width(max(self._bounds(starts, ends), default=0))
        rows = self._packed_rows(starts, ends, bits, bounds=False)[0]
        return [[_unpack(x, bits) for x in row] for row in rows]

    def path_gf(self, u: Vertex, v: Vertex) -> QPoly:
        """Sum of weight products over all directed u -> v paths."""
        self._require_vertex(u)
        self._require_vertex(v)
        return self._gf_rows((u,), (v,))[0][0]

    def gf_matrix(self) -> list[list[QPoly]]:
        """GF(source_i, sink_j) over the ordered boundary sequences."""
        return self._gf_rows(self.sources, self.sinks)

    def count_paths(self, u: Vertex, v: Vertex) -> int:
        """Number of directed u -> v paths (1 when u = v)."""
        self._require_vertex(u)
        self._require_vertex(v)
        return self._sweep((u,), (v,), lambda p: (0, 1))[1].get(v, 0)

    def enumerate_paths(
        self, u: Vertex, v: Vertex, cap: int = 100000
    ) -> list[tuple[tuple[Vertex, ...], QPoly]]:
        """All directed u -> v paths as (vertex tuple, weight product) pairs.

        Refuses to enumerate more than ``cap`` paths.  The single-vertex
        path is returned for u = v, with weight 1.  Paths come in depth-first
        order, each vertex's out-arcs taken in the order of ``self.arcs``.
        """
        total = self.count_paths(u, v)
        if total > cap:
            raise CapExceeded(f"{total} paths from {u} to {v} exceed cap {cap}")
        toward = _reachable(self.arcs, v, backward=True)
        results: list[tuple[tuple[Vertex, ...], QPoly]] = []
        path: list[Vertex] = [u]

        def walk(w: Vertex, weight: QPoly) -> None:
            if w == v:
                results.append((tuple(path), weight))
                return
            for head, arc_weight in self._adj[w].items():
                if head not in toward:
                    continue
                path.append(head)
                walk(head, weight * arc_weight)
                path.pop()

        if u in toward:
            walk(u, ONE)
        return results

    def to_json_dict(self) -> dict:
        def vjson(v: Vertex) -> dict:
            return {"kind": v.kind, "level": v.level, "height": v.height}

        vertices, arcs = _json_order(self)
        return {
            "vertices": [vjson(v) for v in vertices],
            "arcs": [
                {
                    "tail": vjson(a.tail),
                    "head": vjson(a.head),
                    "weight": a.weight.to_json(),
                }
                for a in arcs
            ],
            "sources": [vjson(v) for v in self.sources],
            "sinks": [vjson(v) for v in self.sinks],
        }


def _first_mismatch(net: PlanarNetwork, bound: int, packer) -> tuple | None:
    """The first (i, j), row-major, where GF(source_i, sink_j) differs from a
    matrix packed as ``csmatrix._packed_matrix`` gives it, with both entries;
    None if none does.  Both sides are compared at the width of the larger
    of ``bound`` and every sink's B(v), where p -> p(2**bits) is one-to-one
    on each side's coefficients, so equal integers are equal polynomials.
    One pass packs the GF at the width of ``bound`` and returns the B(v)
    with it; only when they need a wider digit does a second pass repack.
    ``_packed_matrix``'s bound is the matrix's largest column sum, which is
    the largest B(v) on a network of nonnegative weights that matches the
    matrix, so there the first pass is the only one."""
    bits = _width(bound)
    rows, bounds = net._packed_rows(net.sources, net.sinks, bits)
    wide = _width(max([bound, *bounds]))
    if wide > bits:
        bits = wide
        rows = net._packed_rows(net.sources, net.sinks, bits)[0]
    for i, (got, want) in enumerate(zip(rows, packer(bits))):
        if got != want:
            j = next(j for j, (x, y) in enumerate(zip(got, want)) if x != y)
            return i, j, _unpack(got[j], bits), _unpack(want[j], bits)
    return None


def _json_order(net: PlanarNetwork) -> tuple[list[Vertex], list[Arc]]:
    """The vertices and arcs of ``net`` in the order its JSON document lists them.

    Vertices sort by ``_vkey`` and arcs by the ``_vkey``s of their tail, then
    head.  ``_vkey`` is one-to-one, so an arc is keyed by its ends' ranks in
    the sorted vertex list: ``_vkey`` runs once per vertex, not per arc.
    """
    vertices = sorted(net.vertices, key=_vkey)
    rank = {v: i for i, v in enumerate(vertices)}
    return vertices, sorted(net.arcs, key=lambda a: (rank[a.tail], rank[a.head]))


# -- boundary conventions --------------------------------------------
# Matrix row i always corresponds to the i-th entry of the ordered source
# sequence, and column j to the j-th sink; these helpers are the single
# place that fixes which vertex that is.


def layer_sources(n: int) -> tuple[Vertex, ...]:
    """Sources of the level-n layer: P(n, n+1) down to P(n, 0)."""
    return tuple(P(n, h) for h in range(n + 1, -1, -1))


def layer_sinks(n: int) -> tuple[Vertex, ...]:
    """Sinks of the level-n layer: P(n+1, n+1) down to P(n+1, 0)."""
    return tuple(P(n + 1, h) for h in range(n + 1, -1, -1))


def cs_sources(n: int) -> tuple[Vertex, ...]:
    """Row i of the n-th triangular matrix reads from P(0, n-i)."""
    return tuple(P(0, h) for h in range(n, -1, -1))


def cs_sinks(n: int) -> tuple[Vertex, ...]:
    """Column j of the n-th triangular matrix reads into P(n, n-j)."""
    return tuple(P(n, h) for h in range(n, -1, -1))


def hankel_sources(n: int, k: int) -> tuple[Vertex, ...]:
    """Row i of the Hankel matrix reads from the diagonal vertex P(m, m), m = n+k-i."""
    return tuple(P(n + k - i, n + k - i) for i in range(n + 1))


def hankel_sinks(n: int, k: int) -> tuple[Vertex, ...]:
    """Column j of the Hankel matrix reads into P(m, m), m = n+k+j."""
    return tuple(P(n + k + j, n + k + j) for j in range(n + 1))


def factored_sinks(n: int) -> tuple[Vertex, ...]:
    """Column j of the factored Hankel matrix reads into Pbar(0, n-j)."""
    return tuple(Vertex("Pbar", 0, h) for h in range(n, -1, -1))


# -- layer construction ----------------------------------------------


# How each weight case spreads L_n over one layer.  The row of index j
# weighs, at height n - j: the P -> Q and Q -> P halves of the horizontal
# step, the two halves of the diagonal step, and the super-diagonal arc,
# which carries condition i's difference (0 under case 5, whose diagonal
# halves b_j + c_j already make up s_j).  The layer's top horizontal step,
# at index -1, weighs 1 on both halves.
_WEIGHTS = {
    1: lambda f, j: (f.r(j), ONE, f.t(j), ONE, condition_difference(f, 1, j)),
    2: lambda f, j: (ONE, f.r(j), ONE if j else ZERO, f.t(j + 1), condition_difference(f, 2, j)),
    3: lambda f, j: (ONE, f.r(j), f.t(j), ONE, condition_difference(f, 3, j)),
    4: lambda f, j: (f.r(j), ONE, ONE if j else ZERO, f.t(j + 1), condition_difference(f, 4, j)),
    5: lambda f, j: (ONE, ONE, f.b(j), f.c(j), ZERO),
}


def _require_condition(f: FamilySpec, n: int, case: int) -> None:
    """Raise NegativeWeight unless layer n's weights under ``case`` are q-nonnegative.

    Every r/t/b/c half and every super-diagonal difference of layers 0..n
    is q-nonnegative exactly when the matching condition holds for k <= n.
    """
    report = check_condition(f, case, n)
    if not report.holds:
        k, diff = report.first_violation
        raise NegativeWeight(
            f"family {f.name!r} fails condition {case} at index {k} "
            f"(difference {diff}), so weight case {case} would give a layer "
            "a negative arc weight"
        )


def _layer_arcs(
    n: int,
    weights: Sequence[tuple[QPoly, ...]],
    here: Sequence[Vertex],
    there: Sequence[Vertex],
) -> list[Arc]:
    """Arcs of the level-n layer from its case's weight rows for indices 0..n.

    ``here`` and ``there`` hold P(n, k) and P(n+1, k) at index k, for k up to
    at least n + 1, so each vertex is one object in every arc that meets it.
    """
    rows = weights[n::-1]  # rows[k] weighs height k, index n - k
    q = [Q(n, k) for k in range(n + 2)]
    arcs: list[Arc] = []
    for k, (first, second, *_) in enumerate([*rows, (ONE, ONE)]):  # horizontal steps
        arcs.append(Arc(here[k], q[k], first))
        arcs.append(Arc(q[k], there[k], second))
    for k, (_, _, first, second, _) in enumerate(rows):  # diagonal steps from height k
        arcs.append(Arc(here[k], q[k + 1], first))
        arcs.append(Arc(q[k], there[k + 1], second))
    for k, row in enumerate(rows):  # super-diagonal arcs from height k to k+1
        arcs.append(Arc(here[k], there[k + 1], row[4]))
    return arcs


def build_layer(f: FamilySpec, n: int, case: int) -> PlanarNetwork:
    """The one-level network between levels n and n+1 under a weight case.

    Every case distributes r/s/t (or the witnesses b/c, for case 5) over
    the horizontal, diagonal, and super-diagonal arcs so that the path
    generating functions equal the transfer matrix L_n.  All remaining
    arcs carry weight 1.  The layer is built only when condition ``case``
    holds for k <= n, which is when every weight is q-nonnegative;
    otherwise NegativeWeight names the failing index and difference.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    _require_condition(f, n, case)
    weights = [_WEIGHTS[case](f, j) for j in range(n + 1)]
    sources, sinks = layer_sources(n), layer_sinks(n)
    return PlanarNetwork(_layer_arcs(n, weights, sources[::-1], sinks[::-1]), sources, sinks)


# -- composition -----------------------------------------------------


def glue(x: PlanarNetwork, y: PlanarNetwork) -> PlanarNetwork:
    """Identify sink i of x with source i of y; GFs compose like products.

    Requires equal boundary lengths, the sinks of x to be sinks of its
    digraph, and the sources of y to be sources of its digraph.  Apart
    from the identified boundary the vertex sets must be disjoint.
    """
    if len(x.sinks) != len(y.sources):
        raise ShapeError(
            f"cannot glue: {len(x.sinks)} sinks against {len(y.sources)} sources"
        )
    if len(set(x.sinks)) != len(x.sinks) or len(set(y.sources)) != len(y.sources):
        raise ShapeError("cannot glue: boundary sequences contain duplicates")
    for v in x.sinks:
        if x._adj[v]:
            raise ShapeError(f"sink {v} of the left network has outgoing arcs")
    has_in = {a.head for a in y.arcs}
    for v in y.sources:
        if v in has_in:
            raise ShapeError(f"source {v} of the right network has incoming arcs")
    mapping = dict(zip(y.sources, x.sinks))
    boundary = set(y.sources)
    for v in y.vertices:
        if v not in boundary and v in x.vertices:
            raise ShapeError(f"vertex {v} appears on both sides away from the boundary")

    def ren(v: Vertex) -> Vertex:
        return mapping.get(v, v)

    arcs = x.arcs + tuple(Arc(ren(a.tail), ren(a.head), a.weight) for a in y.arcs)
    return PlanarNetwork(arcs, x.sources, tuple(ren(v) for v in y.sinks))


def mirror(net: PlanarNetwork) -> PlanarNetwork:
    """Reverse every arc and bar every vertex; sources and sinks swap."""
    bar = _Memo(mirror_vertex)
    return PlanarNetwork(
        [Arc(bar[a.head], bar[a.tail], a.weight) for a in net.arcs],
        tuple(bar[v] for v in net.sinks),
        tuple(bar[v] for v in net.sources),
    )


def _layered_arcs(
    f: FamilySpec, n: int, cases: Sequence[int]
) -> tuple[list[Arc], list[Vertex]]:
    """Arcs of the n-level network for C_n (n = 0: none), and its top column.

    Gluing layer i onto the levels below it identifies the layer's sources
    with the padded sinks at level i, which are the same vertices; so the
    glued network is the union of the layers' arcs and the identity padding
    arcs P(l, i+1) -> P(l+1, i+1), l < i, that extend each layer's top row
    back to level 0.  Layer i needs its condition and its case's weight rows
    for k <= i, so each case is checked once, and its rows are built once,
    up to the last layer that uses it.  The P vertices of levels 0..n are
    built once, as a grid whose column l holds P(l, h) at index h; the top
    column, level n, is returned with the arcs.
    """
    cases = tuple(cases)
    if len(cases) != n:
        raise ShapeError(f"need exactly {n} weight cases, got {len(cases)}")
    last_layer = {case: i for i, case in enumerate(cases)}
    for case, i in last_layer.items():
        _require_condition(f, i, case)
    weights = {
        case: [_WEIGHTS[case](f, j) for j in range(i + 1)] for case, i in last_layer.items()
    }
    grid = [[P(l, h) for h in range(n + 1)] for l in range(n + 1)]
    arcs: list[Arc] = []
    for i, case in enumerate(cases):
        arcs += _layer_arcs(i, weights[case], grid[i], grid[i + 1])
        arcs += (Arc(grid[l][i + 1], grid[l + 1][i + 1], ONE) for l in range(i))
    return arcs, grid[n]


def build_cs_network(
    f: FamilySpec, n: int, cases: Sequence[int]
) -> PlanarNetwork:
    """The layered network whose GF matrix is the n-th triangular matrix.

    ``cases`` picks the weight case per layer (length n), so mixed-case
    networks are allowed whenever the family satisfies each layer's
    condition.  At n = 0 it is the one-vertex network P(0, 0).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    return PlanarNetwork(_layered_arcs(f, n, cases)[0], cs_sources(n), cs_sinks(n))


def build_hankel_network(
    f: FamilySpec, n: int, k: int, cases: Sequence[int]
) -> PlanarNetwork:
    """Subnetwork of the (2n+k)-level network carrying the Hankel matrix.

    Keeps exactly the arcs lying on directed paths from P(k, k) to
    P(2n+k, 2n+k); sources and sinks run along the main diagonal.  The GF
    matrix is independent of the shift k.
    """
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be >= 0, got n={n!r}, k={k!r}")
    total = 2 * n + k
    arcs = _layered_arcs(f, total, cases)[0]
    forward = _reachable(arcs, P(k, k))
    backward = _reachable(arcs, P(total, total), backward=True)
    kept = [a for a in arcs if a.tail in forward and a.head in backward]
    return PlanarNetwork(kept, hankel_sources(n, k), hankel_sinks(n, k))


def build_hankel_factored(
    f: FamilySpec, n: int, cases: Sequence[int]
) -> PlanarNetwork:
    """Network for the Hankel matrix from C, a diagonal bridge, and the
    mirror of C; requires r_k = 1 for all k <= n.  Bridge arc P(n, i) ->
    Pbar(n, i) weighs t_1 ... t_{n-i}; the parts share their boundary
    vertices, so their arcs form ``glue(glue(C, bridge), mirror(C))``.
    Each vertex is mirrored once, so the copy shares its objects too."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    for k in range(n + 1):
        if f.r(k) != ONE:
            raise RequiresUnitGamma(
                f"family {f.name!r} has r_{k} = {f.r(k)}; the factored "
                "construction needs r_k = 1"
            )
    layered, top = _layered_arcs(f, n, cases)
    products = [ONE]
    for m in range(1, n + 1):
        products.append(products[-1] * f.t(m))
    bar = _Memo(mirror_vertex)
    bridge = [Arc(top[i], bar[top[i]], products[n - i]) for i in range(n + 1)]
    arcs = layered + bridge + [Arc(bar[a.head], bar[a.tail], a.weight) for a in layered]
    return PlanarNetwork(arcs, cs_sources(n), factored_sinks(n))


# -- DOT export ------------------------------------------------------


def _positions(net: PlanarNetwork) -> dict[Vertex, tuple[int, int]]:
    max_level = max((v.level for v in net.vertices), default=0)
    pos: dict[Vertex, tuple[int, int]] = {}
    for v in net.vertices:
        kind = _KINDS[v.kind]
        x = 2 * v.level + kind.column
        pos[v] = (4 * max_level + 1 - x if kind.barred else x, v.height)
    return pos


def _dot_name(v: Vertex) -> str:
    return f"{_KINDS[v.kind].dot}_{v.height}_{v.level}"


def export_dot(net: PlanarNetwork) -> str:
    """Deterministic Graphviz text with pinned grid positions."""
    pos = _positions(net)
    names = {v: _dot_name(v) for v in net.vertices}
    labels = _Memo(lambda coeffs: str(_canonical(coeffs)))  # by coefficient tuple
    lines = ["digraph {"]
    for v in sorted(net.vertices, key=lambda v: (pos[v], names[v])):
        x, y = pos[v]
        lines.append(f'  {names[v]} [pos="{x},{y}!"];')
    for tail, head, weight in sorted(net.arcs, key=lambda a: (pos[a.tail], pos[a.head])):
        lines.append(f'  {names[tail]} -> {names[head]} [label="{labels[weight.coeffs]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
