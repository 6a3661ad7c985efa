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
p(2**B) (Kronecker substitution); a first pass at q = 1 over absolute
coefficient sums bounds the coefficients and so fixes B.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import CapExceeded, NegativeWeight, RequiresUnitGamma, ShapeError
from .families import FamilySpec, check_condition, condition_difference
from .qpoly import ONE, QPoly, ZERO, _pack, _unpack, _width


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


def _mirror_arc(a: Arc) -> Arc:
    return Arc(mirror_vertex(a.head), mirror_vertex(a.tail), a.weight)


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
    arcs are stored like any other arc; acyclicity is verified by
    topological sort at construction and the sorted order is cached for
    the generating-function sweeps.
    """

    def __init__(
        self,
        arcs: Iterable[Arc | tuple],
        sources: Sequence[Vertex],
        sinks: Sequence[Vertex],
    ) -> None:
        self.arcs: tuple[Arc, ...] = tuple(Arc(*a) for a in arcs)
        seen_pairs: set[tuple[Vertex, Vertex]] = set()
        for arc in self.arcs:
            if not isinstance(arc.weight, QPoly):
                raise TypeError(f"arc weight {arc.weight!r} is not a QPoly")
            pair = (arc.tail, arc.head)
            if pair in seen_pairs:
                raise ValueError(f"duplicate arc {arc.tail} -> {arc.head}")
            seen_pairs.add(pair)
        self.sources: tuple[Vertex, ...] = tuple(sources)
        self.sinks: tuple[Vertex, ...] = tuple(sinks)
        verts: set[Vertex] = set(self.sources)
        verts.update(self.sinks)
        for arc in self.arcs:
            verts.add(arc.tail)
            verts.add(arc.head)
        self.vertices: frozenset[Vertex] = frozenset(verts)

        adj: dict[Vertex, list[tuple[Vertex, QPoly]]] = {v: [] for v in verts}
        indegree: dict[Vertex, int] = {v: 0 for v in verts}
        for arc in self.arcs:
            adj[arc.tail].append((arc.head, arc.weight))
            indegree[arc.head] += 1
        for heads in adj.values():
            heads.sort(key=lambda hw: _vkey(hw[0]))
        self._adj = adj

        ready = [v for v in verts if indegree[v] == 0]
        heapify(ready)
        topo: list[Vertex] = []
        while ready:
            v = heappop(ready)
            topo.append(v)
            for head, _ in adj[v]:
                indegree[head] -= 1
                if indegree[head] == 0:
                    heappush(ready, head)
        if len(topo) != len(verts):
            raise ValueError("digraph contains a directed cycle")
        self._topo = tuple(topo)
        self._order = {v: i for i, v in enumerate(topo)}

    # -- path generating functions ------------------------------------

    def _require_vertex(self, v: Vertex) -> None:
        if v not in self.vertices:
            raise ValueError(f"{v} is not a vertex of this network")

    def _sweep(
        self,
        starts: Sequence[Vertex],
        ends: Sequence[Vertex],
        weigh: Callable[[QPoly], int],
    ) -> dict[Vertex, dict[int, int]]:
        """Every start's path sums at every end, in one topological pass.

        Each arc weight is mapped to an integer by ``weigh`` (once per
        distinct weight); the value at v maps start index i to the sum,
        over starts[i] -> v paths, of the products of those integers.  A
        vertex's map is dropped once its out-arcs are done unless it is an
        end; arcs weighing 0 are skipped and arcs weighing 1 add without a
        multiply.
        """
        keep = set(ends)
        acc: dict[Vertex, dict[int, int]] = {}
        for i, u in enumerate(starts):
            acc.setdefault(u, {})[i] = 1
        first = min((self._order[u] for u in starts), default=len(self._topo))
        weights: dict[QPoly, int] = {}
        for v in self._topo[first:]:
            value = acc.get(v) if v in keep else acc.pop(v, None)
            if not value:
                continue
            for head, weight in self._adj[v]:
                w = weights.get(weight)
                if w is None:
                    w = weights[weight] = weigh(weight)
                if not w:
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
        return acc

    def _gf_rows(
        self, starts: Sequence[Vertex], ends: Sequence[Vertex]
    ) -> list[list[QPoly]]:
        """GF(u, v) for u in ``starts`` (rows) and v in ``ends`` (columns).

        One pass at q = 1 with every weight replaced by the sum of its
        absolute coefficients bounds every coefficient of every GF(u, v);
        that bound fixes the digit width, and a second pass carries each
        weight packed as p(2**bits) (Kronecker substitution), so each arc
        costs one big-integer multiply-add.  Only the end values are
        unpacked.
        """
        bound = self._sweep(starts, ends, lambda p: sum(map(abs, p.coeffs)))
        top = max((x for v in ends for x in bound.get(v, {}).values()), default=0)
        bits = _width(top)
        packed = self._sweep(starts, ends, lambda p: _pack(p.coeffs, bits))
        columns = [packed.get(v, {}) for v in ends]
        return [
            [_unpack(column.get(i, 0), bits) for column in columns]
            for i in range(len(starts))
        ]

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
        return self._sweep((u,), (v,), lambda p: 1).get(v, {}).get(0, 0)

    def enumerate_paths(
        self, u: Vertex, v: Vertex, cap: int = 100000
    ) -> list[tuple[tuple[Vertex, ...], QPoly]]:
        """All directed u -> v paths as (vertex tuple, weight product) pairs.

        Refuses to enumerate more than ``cap`` paths.  The single-vertex
        path is returned for u = v, with weight 1.
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
            for head, arc_weight in self._adj[w]:
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

        return {
            "vertices": [vjson(v) for v in sorted(self.vertices, key=_vkey)],
            "arcs": [
                {
                    "tail": vjson(a.tail),
                    "head": vjson(a.head),
                    "weight": a.weight.to_json(),
                }
                for a in sorted(self.arcs, key=lambda a: (_vkey(a.tail), _vkey(a.head)))
            ],
            "sources": [vjson(v) for v in self.sources],
            "sinks": [vjson(v) for v in self.sinks],
        }


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


class _Split(NamedTuple):
    """How a weight case spreads L_n over the arcs of one layer.

    ``r_half`` is the half (0: P -> Q, 1: Q -> P) of the horizontal step at
    index j that carries r_j, or None when both halves weigh 1;
    ``diagonal(f, j)`` gives the two halves of the diagonal step at index j.
    The super-diagonal arc at index j carries condition i's difference at j
    (0 under case 5, whose diagonal halves b_j + c_j already make up s_j).
    """

    r_half: int | None
    diagonal: Callable[[FamilySpec, int], tuple[QPoly, QPoly]]


_SPLITS = {
    1: _Split(0, lambda f, j: (f.t(j), ONE)),
    2: _Split(1, lambda f, j: (ONE if j else ZERO, f.t(j + 1))),
    3: _Split(1, lambda f, j: (f.t(j), ONE)),
    4: _Split(0, lambda f, j: (ONE if j else ZERO, f.t(j + 1))),
    5: _Split(None, lambda f, j: (f.b(j), f.c(j))),
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


def _layer_arcs(f: FamilySpec, n: int, case: int) -> list[Arc]:
    """Arcs of the level-n layer under a weight case (validated by the caller)."""
    split = _SPLITS[case]
    arcs: list[Arc] = []
    for k in range(n + 2):  # horizontal steps at height k
        j = n - k
        halves = [ONE, ONE]
        if split.r_half is not None and j >= 0:
            halves[split.r_half] = f.r(j)
        arcs.append(Arc(P(n, k), Q(n, k), halves[0]))
        arcs.append(Arc(Q(n, k), P(n + 1, k), halves[1]))
    for k in range(n + 1):  # diagonal steps from height k to k+1
        first, second = split.diagonal(f, n - k)
        arcs.append(Arc(P(n, k), Q(n, k + 1), first))
        arcs.append(Arc(Q(n, k), P(n + 1, k + 1), second))
    for k in range(n + 1):  # super-diagonal arcs from height k to k+1
        weight = ZERO if case == 5 else condition_difference(f, case, n - k)
        arcs.append(Arc(P(n, k), P(n + 1, k + 1), weight))
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
    return PlanarNetwork(_layer_arcs(f, n, case), layer_sources(n), layer_sinks(n))


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
    has_out = {a.tail for a in x.arcs}
    for v in x.sinks:
        if v in has_out:
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
    return PlanarNetwork(
        map(_mirror_arc, net.arcs),
        tuple(mirror_vertex(v) for v in net.sinks),
        tuple(mirror_vertex(v) for v in net.sources),
    )


def _layered_arcs(f: FamilySpec, n: int, cases: Sequence[int]) -> list[Arc]:
    """Arcs of the n-level network for C_n (n = 0: none).

    Gluing layer i onto the levels below it identifies the layer's sources
    with the padded sinks at level i, which are the same vertices; so the
    glued network is the union of the layers' arcs and the identity padding
    arcs P(l, i+1) -> P(l+1, i+1), l < i, that extend each layer's top row
    back to level 0.  Layer i needs its condition for k <= i, so each case
    is checked once, up to the last layer that uses it.
    """
    cases = tuple(cases)
    if len(cases) != n:
        raise ShapeError(f"need exactly {n} weight cases, got {len(cases)}")
    last_layer = {case: i for i, case in enumerate(cases)}
    for case, i in last_layer.items():
        _require_condition(f, i, case)
    arcs: list[Arc] = []
    for i, case in enumerate(cases):
        arcs += _layer_arcs(f, i, case)
        arcs += (Arc(P(l, i + 1), P(l + 1, i + 1), ONE) for l in range(i))
    return arcs


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
    return PlanarNetwork(_layered_arcs(f, n, cases), cs_sources(n), cs_sinks(n))


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
    arcs = _layered_arcs(f, total, cases)
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
    vertices, so their arcs form ``glue(glue(C, bridge), mirror(C))``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    for k in range(n + 1):
        if f.r(k) != ONE:
            raise RequiresUnitGamma(
                f"family {f.name!r} has r_{k} = {f.r(k)}; the factored "
                "construction needs r_k = 1"
            )
    layered = _layered_arcs(f, n, cases)
    products = [ONE]
    for m in range(1, n + 1):
        products.append(products[-1] * f.t(m))
    bridge = [Arc(P(n, i), Vertex("Pbar", n, i), products[n - i]) for i in range(n + 1)]
    arcs = layered + bridge + [_mirror_arc(a) for a in layered]
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
    lines = ["digraph {"]
    for v in sorted(net.vertices, key=lambda v: (pos[v], _dot_name(v))):
        x, y = pos[v]
        lines.append(f'  {_dot_name(v)} [pos="{x},{y}!"];')
    for arc in sorted(net.arcs, key=lambda a: (pos[a.tail], pos[a.head])):
        lines.append(
            f'  {_dot_name(arc.tail)} -> {_dot_name(arc.head)} [label="{arc.weight}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
