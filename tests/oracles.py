"""Independent closed-form and brute-force oracles used across the test suite.

Everything here recomputes expected values by a route different from the
package code: closed-form coefficient formulas, direct permutation sums,
hand-entered small character values, and corner-removal tableau counts.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations
from math import comb, prod

from qcatalan.csmatrix import CSMatrix
from qcatalan.families import FamilySpec, ParamSeq
from qcatalan.immanant import (
    ImmanantReport,
    MatrixProvenance,
    SweepResult,
    _as_entries,
    _class_sums,
    _selections,
    _shapes,
)
from qcatalan.network import (
    Arc,
    P,
    PlanarNetwork,
    Vertex,
    build_cs_network,
    build_layer,
    cs_sinks,
    glue,
    hankel_sinks,
    hankel_sources,
    mirror,
)
from qcatalan.qpoly import ONE, QPoly, ZERO, _pack, _unpack, _width
from qcatalan.symchar import cycle_type


# -- closed forms for the builtin first columns -----------------------


def eulerian_poly(n: int) -> QPoly:
    """n-th Eulerian polynomial via (1-q)^(n+1) * sum (k+1)^n q^k, truncated.

    The product is a polynomial of degree < n+2, so truncating the series
    at degree n+1 is exact.
    """
    top = n + 1
    coeffs = []
    for d in range(top + 1):
        c = sum(
            (-1) ** i * comb(n + 1, i) * (d - i + 1) ** n
            for i in range(min(d, n + 1) + 1)
        )
        coeffs.append(c)
    return QPoly(coeffs)


def _catalan(k: int) -> int:
    return comb(2 * k, k) - comb(2 * k, k + 1)


def schroder_poly(n: int) -> QPoly:
    """n-th Schroder polynomial: sum_k C(n+k, n-k) * Catalan(k) * q^k."""
    return QPoly([comb(n + k, n - k) * _catalan(k) for k in range(n + 1)])


def narayana_poly(n: int) -> QPoly:
    """n-th Narayana polynomial: sum_{k>=1} (1/n) C(n,k-1) C(n,k) q^k."""
    if n == 0:
        return ONE
    coeffs = [0]
    for k in range(1, n + 1):
        num = comb(n, k - 1) * comb(n, k)
        assert num % n == 0
        coeffs.append(num // n)
    return QPoly(coeffs)


# -- matrix brute force ----------------------------------------------


def matmul(a: list[list[QPoly]], b: list[list[QPoly]]) -> list[list[QPoly]]:
    assert len(a[0]) == len(b)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def permanent(grid) -> QPoly:
    """Direct permutation-sum permanent."""
    n = len(grid)
    total = ZERO
    for perm in permutations(range(n)):
        prod = ONE
        for i, j in enumerate(perm):
            prod = prod * grid[i][j]
        total = total + prod
    return total


def class_sums_by_permutation(grid) -> dict[tuple[int, ...], QPoly]:
    """Per-cycle-type sums of diagonal products, walking all n! permutations.

    Only cycle types that occur get a key; a type whose products cancel
    maps to the zero polynomial.
    """
    sums: dict[tuple[int, ...], QPoly] = {}
    for perm in permutations(range(len(grid))):
        prod = ONE
        for i, j in enumerate(perm):
            prod = prod * grid[i][j]
        mu = cycle_type([j + 1 for j in perm])
        sums[mu] = sums.get(mu, ZERO) + prod
    return sums


_PERM3_TYPES = {
    (0, 1, 2): (1, 1, 1),
    (0, 2, 1): (2, 1),
    (1, 0, 2): (2, 1),
    (1, 2, 0): (3,),
    (2, 0, 1): (3,),
    (2, 1, 0): (2, 1),
}

# Hand-entered irreducible character values for the symmetric group on 3
# letters, keyed by shape then by cycle type.
CHI3 = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}


def s3_immanant(grid, lam) -> QPoly:
    """3x3 immanant from the hand-entered character values."""
    assert len(grid) == 3
    total = ZERO
    for perm, ctype in _PERM3_TYPES.items():
        prod = ONE
        for i, j in enumerate(perm):
            prod = prod * grid[i][j]
        total = total + CHI3[lam][ctype] * prod
    return total


# -- random data -----------------------------------------------------


def random_qpoly(
    rng: random.Random, max_deg: int = 2, max_coeff: int = 3, allow_negative: bool = False
) -> QPoly:
    lo = -max_coeff if allow_negative else 0
    deg = rng.randrange(max_deg + 1)
    return QPoly([rng.randint(lo, max_coeff) for _ in range(deg + 1)])


def random_grid(rng: random.Random, n: int, **kwargs) -> list[list[QPoly]]:
    return [[random_qpoly(rng, **kwargs) for _ in range(n)] for _ in range(n)]


def random_family(rng: random.Random, terms: int = 40, name: str = "random") -> FamilySpec:
    """Arbitrary q-nonnegative parameters (no condition guaranteed)."""
    return FamilySpec(
        name=name,
        r_seq=ParamSeq(0, tuple(random_qpoly(rng) for _ in range(terms))),
        s_seq=ParamSeq(0, tuple(random_qpoly(rng) for _ in range(terms))),
        t_seq=ParamSeq(1, tuple(random_qpoly(rng) for _ in range(terms))),
    )


def conforming_random_family(
    rng: random.Random, condition: int, terms: int = 40
) -> FamilySpec:
    """Random family built to satisfy the given positivity condition.

    s is assembled as the condition's lower bound plus a random
    q-nonnegative slack, so the matching network weight case stays
    q-nonnegative by construction.
    """
    name = f"random-cond{condition}"
    if condition == 5:
        b = [random_qpoly(rng) for _ in range(terms + 1)]
        c = [random_qpoly(rng) for _ in range(terms)]
        return FamilySpec(
            name=name,
            r_seq=ParamSeq(0, tuple(ONE for _ in range(terms))),
            s_seq=ParamSeq(0, tuple(b[k] + c[k] for k in range(terms))),
            t_seq=ParamSeq(1, tuple(b[k + 1] * c[k] for k in range(terms))),
            witness_b=ParamSeq(0, tuple(b)),
            witness_c=ParamSeq(0, tuple(c)),
        )
    r = [random_qpoly(rng) for _ in range(terms)]
    tt = [random_qpoly(rng) for _ in range(terms)]  # tt[k] holds t_{k+1}
    slack = [random_qpoly(rng) for _ in range(terms)]
    s: list[QPoly] = []
    for k in range(terms):
        if condition == 1:
            base = r[k] if k == 0 else r[k] + tt[k - 1]
        elif condition == 2:
            base = tt[0] if k == 0 else r[k - 1] + tt[k]
        elif condition == 3:
            base = ONE if k == 0 else r[k - 1] * tt[k - 1] + ONE
        elif condition == 4:
            base = r[0] * tt[0] if k == 0 else r[k] * tt[k] + ONE
        else:
            raise ValueError(condition)
        s.append(base + slack[k])
    return FamilySpec(
        name=name,
        r_seq=ParamSeq(0, tuple(r)),
        s_seq=ParamSeq(0, tuple(s)),
        t_seq=ParamSeq(1, tuple(tt)),
    )


def weighted_path_poly(f: FamilySpec, n: int, k: int) -> QPoly:
    """Triangle entry by brute-force height-path enumeration.

    Sums the weight of every length-n step sequence +1/0/-1 from height 0
    to height k that never dips below 0, where an up step from height h
    weighs r_h, a level step at h weighs s_h, and a down step from h
    weighs t_h.  Independent of the recurrence implementation.
    """
    total = ZERO

    def walk(pos: int, height: int, weight: QPoly) -> None:
        nonlocal total
        if pos == n:
            if height == k:
                total = total + weight
            return
        walk(pos + 1, height + 1, weight * f.r(height))
        walk(pos + 1, height, weight * f.s(height))
        if height > 0:
            walk(pos + 1, height - 1, weight * f.t(height))

    walk(0, 0, ONE)
    return total


# -- networks built another way ----------------------------------------


def glued_cs_network(f: FamilySpec, n: int, cases) -> PlanarNetwork:
    """The n-level network for C_n glued one layer at a time.

    Each round pads the network so far with the identity row at height i+1
    across levels 0..i, then glues the one-level network of layer i onto its
    sinks: n - 1 glues of separately built and validated networks, where
    ``build_cs_network`` assembles every arc into one graph.
    """
    net = build_layer(f, 0, cases[0])
    for i in range(1, n):
        padding = tuple(Arc(P(l, i + 1), P(l + 1, i + 1), ONE) for l in range(i))
        padded = PlanarNetwork(
            net.arcs + padding,
            (P(0, i + 1),) + net.sources,
            (P(i, i + 1),) + net.sinks,
        )
        net = glue(padded, build_layer(f, i, cases[i]))
    return net


def glued_factored_network(f: FamilySpec, n: int, cases) -> PlanarNetwork:
    """The factored Hankel network as three networks glued together.

    C_n's network, the bridge P(n, i) -> Pbar(n, i) weighted t_1 ... t_{n-i}
    (each product formed afresh), and the mirror of C_n's network, joined by
    two ``glue`` calls; the caller checks r_k = 1.
    """
    cs = build_cs_network(f, n, cases)
    bridge_arcs = []
    for i in range(n + 1):
        weight = ONE
        for m in range(1, n - i + 1):
            weight = weight * f.t(m)
        bridge_arcs.append(Arc(P(n, i), Vertex("Pbar", n, i), weight))
    bridge = PlanarNetwork(
        bridge_arcs, cs_sinks(n), tuple(Vertex("Pbar", n, h) for h in range(n, -1, -1))
    )
    return glue(glue(cs, bridge), mirror(cs))


def pruned_hankel_network(f: FamilySpec, n: int, k: int, cases) -> PlanarNetwork:
    """The induced Hankel network cut out of the whole (2n+k)-level network.

    Builds the whole network, then keeps each arc u -> w with at least one
    path from P(k, k) to u and one from w to P(2n+k, 2n+k), counted by
    ``count_paths`` rather than found by a reachability sweep.
    """
    total = 2 * n + k
    whole = build_cs_network(f, total, cases)
    start, end = P(k, k), P(total, total)
    kept = [
        a
        for a in whole.arcs
        if whole.count_paths(start, a.tail) and whole.count_paths(a.head, end)
    ]
    return PlanarNetwork(kept, hankel_sources(n, k), hankel_sinks(n, k))


def gf_matrix_by_source(net: PlanarNetwork) -> list[list[QPoly]]:
    """GF(source_i, sink_j) by one topological sweep per source on QPoly values.

    Each sweep starts from one source and adds value * weight along every
    arc, with coefficient lists throughout: no packing, no shared pass.
    """
    rows = []
    for u in net.sources:
        acc: dict[Vertex, QPoly] = {u: ONE}
        for v in net._topo[net._order[u]:]:
            value = acc.get(v)
            if value is None or value.is_zero():
                continue
            for head, weight in net._adj[v]:
                acc[head] = acc.get(head, ZERO) + value * weight
        rows.append([acc.get(v, ZERO) for v in net.sinks])
    return rows


# -- positivity sweeps -------------------------------------------------


def sweep_by_selection(
    m: CSMatrix, max_size: int, seed: int = 0, exhaustive_limit: int = 20000
) -> SweepResult:
    """``positivity_sweep`` computed afresh for every distinct selection.

    Nothing is keyed by content: every (rows, cols) pair runs the class-sum
    DP and the full character combination (``reports_by_class_sums``), even
    when its submatrix repeats another or has no nonzero permutation.  Each
    submatrix is packed at its own width, not at the sweep's.
    """
    grid = _as_entries(m)
    selections, exhaustive, total = _selections(
        len(grid), max_size, seed, exhaustive_limit, None
    )
    done: dict[tuple[tuple[int, ...], tuple[int, ...]], list[ImmanantReport]] = {}
    reports: list[ImmanantReport] = []
    for rows, cols in selections:
        found = done.get((rows, cols))
        if found is None:
            sub = [[grid[i][j] for j in cols] for i in rows]
            provenance = MatrixProvenance(
                m.family.name,
                m.kind,
                tuple(m.row_indices[i] for i in rows),
                tuple(m.col_indices[j] for j in cols),
            )
            found = done[rows, cols] = reports_by_class_sums(sub, provenance)
        reports.extend(found)
    return SweepResult(tuple(reports), exhaustive, seed, total)


def reports_by_class_sums(grid, provenance: MatrixProvenance) -> list[ImmanantReport]:
    """Every shape's immanant and gap of one QPoly submatrix, always by the full route.

    The class-sum DP runs on the entries packed at this submatrix's own
    width: every class sum coefficient is at most the permanent of the
    matrix of absolute coefficient sums, so at most the product of its row
    sums.  Each class sum is unpacked, and the character rows combine them
    with ``QPoly`` arithmetic, not packed.
    """
    bits = _width(prod(sum(sum(map(abs, cell.coeffs)) for cell in row) for row in grid))
    packed = [[_pack(cell.coeffs, bits) for cell in row] for row in grid]
    sums = [_unpack(value, bits) for value in _class_sums(packed)]
    shapes = _shapes(len(grid))

    def combine(row: tuple[int, ...]) -> QPoly:
        return sum((c * p for c, p in zip(row, sums)), ZERO)

    det = combine(shapes[-1][1])  # shape (1,...,1): the sign character
    out = []
    for lam, row, deg in shapes:
        value = combine(row)
        gap = value - deg * det
        out.append(
            ImmanantReport(
                lam=lam,
                value=value,
                q_nonnegative=value.is_q_nonnegative(),
                dominance_gap=gap,
                gap_nonnegative=gap.is_q_nonnegative(),
                provenance=provenance,
            )
        )
    return out


# -- combinatorial counts --------------------------------------------


@lru_cache(maxsize=None)
def syt_count(shape: tuple[int, ...]) -> int:
    """Standard tableau count by corner-removal recursion."""
    if sum(shape) == 0:
        return 1
    total = 0
    for i in range(len(shape)):
        if shape[i] and (i == len(shape) - 1 or shape[i] > shape[i + 1]):
            smaller = list(shape)
            smaller[i] -= 1
            total += syt_count(tuple(p for p in smaller if p))
    return total


def partition_count(n: int) -> int:
    """Number of partitions of n by the classic coin-style DP."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]
