"""Independent closed-form and brute-force oracles used across the test suite.

Everything here recomputes expected values by a route different from the
package code: closed-form coefficient formulas, the triangle recurrence
run on unpacked ``QPoly`` values, direct permutation sums, hand-entered
small character values, corner-removal tableau counts, polynomials rendered
one term at a time, grids rendered one cell at a time, and matrix and
sweep documents built from coefficient lists and rendered through
``json.dumps``, a sweep one report at a time, and the production matrix's
minors by their three-term recurrence.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from functools import lru_cache
from itertools import permutations, product
from math import comb, prod

from qcatalan.csmatrix import CSMatrix
from qcatalan.families import FamilySpec, ParamSeq
from qcatalan.immanant import (
    ImmanantReport,
    MatrixProvenance,
    SweepResult,
    _as_entries,
    _class_positions,
    _plan,
    _run,
    _selections,
    _shapes,
    determinant,
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


def random_tailed_family(rng: random.Random) -> FamilySpec:
    """q-nonnegative parameters at every k: prefixes of 0-3 terms, tails of degree 0-3 in k."""

    def seq(start: int) -> ParamSeq:
        prefix = tuple(random_qpoly(rng) for _ in range(rng.randrange(4)))
        return ParamSeq(start, prefix, tuple(random_qpoly(rng) for _ in range(rng.randrange(1, 5))))

    return FamilySpec(name="random tailed", r_seq=seq(0), s_seq=seq(0), t_seq=seq(1))


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


def triangle_by_qpoly(f: FamilySpec, n: int, top: int) -> list[list[QPoly]]:
    """Rows 0..n of the recurrence triangle, cut to what row ``top`` needs.

    The recurrence run entry by entry on ``QPoly`` values, with no packing:
    row m holds c_{m,0}..c_{m,h} with h = min(m, top - m).
    """
    rows: list[list[QPoly]] = [[ONE]]
    for m in range(1, n + 1):
        prev = rows[-1]
        row = []
        for k in range(min(m, top - m) + 1):
            value = f.r(k - 1) * prev[k - 1] if k else ZERO
            if k < len(prev):
                value = value + f.s(k) * prev[k]
            if k + 1 < len(prev):
                value = value + f.t(k + 1) * prev[k + 1]
            row.append(value)
        rows.append(row)
    return rows


def shifted_tail(tail: tuple[QPoly, ...], d: int) -> tuple[QPoly, ...]:
    """The tail P(k + d) of the tail P(k), each a coefficient tuple in powers of k.

    Horner's rule on polynomials in k: multiply by (k + d), add the next
    coefficient down.  ``()``, the tail of a finite sequence, stays ``()``.
    """
    out: list[QPoly] = []
    for c in reversed(tail):
        out = [ZERO, *out]  # times k
        for i in range(len(out) - 1):
            out[i] = out[i] + d * out[i + 1]
        out[0] = out[0] + c
    return tuple(out)


def tail_product(a: tuple[QPoly, ...], b: tuple[QPoly, ...]) -> tuple[QPoly, ...]:
    """The tail P(k) Q(k) of two tails; ``()`` when either is finite."""
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def swapped(f: FamilySpec) -> FamilySpec:
    """The family whose production matrix is the transpose of ``f``'s.

    r~_k = t_{k+1}, s~_k = s_k and t~_k = r_{k-1}, for every k: the same
    prefixes from an index one lower or higher, and tails shifted to match.
    Its triangle C~ gives every Hankel matrix as H = C C~^T over Z[q], for
    any r; with r = 1 it is Aigner's H = C D C^T.
    """
    r, t = f.r_seq, f.t_seq
    return FamilySpec(
        name=f"swapped {f.name}",
        r_seq=ParamSeq(0, t.prefix, shifted_tail(t.tail, 1)),
        s_seq=f.s_seq,
        t_seq=ParamSeq(1, r.prefix, shifted_tail(r.tail, -1)),
    )


def normalized(f: FamilySpec) -> FamilySpec:
    """The family with r = 1, ``f``'s s and t'_k = lambda_k = r_{k-1} t_k.

    t' has a prefix as long as r's and t's, and the product of their tails
    (r's shifted by one), for every k; it is finite when r or t is, at the
    shorter finite length.  With rho_k = r_0 ... r_{k-1}, its triangle
    gives C_f = C_g diag(rho), and its Hankel matrix is f's: H depends only
    on s_k and lambda_k (Flajolet 1980; Aigner 1999).
    """
    r, t = f.r_seq, f.t_seq
    finite = [len(seq.prefix) for seq in (r, t) if not seq.tail]
    depth = min(finite) if finite else max(len(r.prefix), len(t.prefix))
    return FamilySpec(
        name=f"normalized {f.name}",
        r_seq=ParamSeq(0, tail=(ONE,)),
        s_seq=f.s_seq,
        t_seq=ParamSeq(
            1,
            tuple(r(k - 1) * t(k) for k in range(1, depth + 1)),
            tail_product(shifted_tail(r.tail, -1), t.tail),
        ),
    )


def derived_witnesses(f: FamilySpec, depth: int) -> tuple[list[QPoly], list[QPoly]]:
    """Condition-5 witnesses b_0..b_{depth-1}, c_0..c_{depth-1} forced by b_0 = 0.

    s_k = b_k + c_k and lambda_{k+1} = r_k t_{k+1} = b_{k+1} c_k give
    c_k = s_k - b_k and b_{k+1} = lambda_{k+1} / c_k, by ``exact_div``: the
    S-fraction contraction of the J-fraction (Petreolle, Sokal and Zhu).
    Raises ZeroDivisionError at a c_k of 0, which leaves b_{k+1} free, and
    ValueError when c_k does not divide lambda_{k+1}.  Nothing here checks
    that the witnesses are q-nonnegative.
    """
    b, c = [ZERO], []
    for k in range(depth):
        c.append(f.s(k) - b[k])
        if k + 1 < depth:
            b.append((f.r(k) * f.t(k + 1)).exact_div(c[k]))
    return b[:depth], c


def hankel_determinant(f: FamilySpec, n: int) -> QPoly:
    """det H_n as prod_{k=1..n} prod_{i=1..k} r_{i-1} t_i (Flajolet 1980).

    Reads the family's terms only: no matrix and no recurrence.
    """
    value = ONE
    for k in range(1, n + 1):
        for i in range(1, k + 1):
            value = value * f.r(i - 1) * f.t(i)
    return value


def jfraction(a: list[QPoly], n: int) -> tuple[list[QPoly], list[QPoly]]:
    """s_0..s_n and beta_1..beta_n, beta_k = r_{k-1} t_k, from a_0..a_{2n+1}.

    The inverse of ``catalan_like`` by Hankel determinants (Flajolet 1980,
    Aigner 1999).  With Delta_m = det (a_{i+j})_{i,j<=m} (Delta_{-1} =
    Delta_{-2} = 1) and chi_m the same determinant with its last column
    shifted one index (a_{i+m+1}), beta_m = Delta_m Delta_{m-2} /
    Delta_{m-1}**2 and s_0 + ... + s_m = chi_m / Delta_m.  The determinants
    come from Bareiss elimination (``determinant``) and every quotient is
    exact (``QPoly.exact_div``).  Since Delta_m = prod_{k<=m} beta_k**(m+1-k),
    the recovery stops at the first m with Delta_m = 0, the first zero
    beta_m: it returns s_0..s_{m-1} and beta_1..beta_{m-1}.
    """
    deltas = [ONE, ONE]  # Delta_{-2}, Delta_{-1}, Delta_0, ...
    s: list[QPoly] = []
    beta: list[QPoly] = []
    total = ZERO  # s_0 + ... + s_{m-1}
    for m in range(n + 1):
        delta = determinant([[a[i + j] for j in range(m + 1)] for i in range(m + 1)])
        if delta.is_zero():
            break
        if m:
            beta.append((delta * deltas[-2]).exact_div(deltas[-1] * deltas[-1]))
        chi = determinant([[a[i + j + (j == m)] for j in range(m + 1)] for i in range(m + 1)])
        s.append(chi.exact_div(delta) - total)
        total += s[-1]
        deltas.append(delta)
    return s, beta


# -- the production matrix ------------------------------------------------


def contiguous_minors(f: FamilySpec, n: int) -> dict[tuple[int, int], QPoly]:
    """Every contiguous principal minor D(i, j), 0 <= i <= j <= n, of f's production matrix.

    The production matrix P is tridiagonal with P[k][k] = s_k,
    P[k][k+1] = r_k and P[k+1][k] = t_{k+1}, so that c_n = c_{n-1} P
    (Deutsch, Ferrari and Rinaldi 2005).  Expanding D(i, j) along its last
    row gives D(i, i-1) = 1, D(i, i) = s_i and
    D(i, j) = s_j D(i, j-1) - r_{j-1} t_j D(i, j-2).
    """
    minors = {}
    for i in range(n + 1):
        before, last = ONE, f.s(i)
        minors[i, i] = last
        for j in range(i + 1, n + 1):
            before, last = last, f.s(j) * last - f.r(j - 1) * f.t(j) * before
            minors[i, j] = last
    return minors


def production_tp(f: FamilySpec, n: int) -> bool:
    """Whether P on indices 0..n is coefficientwise totally positive.

    P's entries are q-nonnegative (a family's accessors reject any other),
    and a tridiagonal matrix with such entries is totally positive exactly
    when its contiguous principal minors are (Gantmacher and Krein; Pinkus,
    "Totally Positive Matrices", 2010).
    """
    return all(d.is_q_nonnegative() for d in contiguous_minors(f, n).values())


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
    """GF(source_i, sink_j) by memoized recursion over in-arcs, on QPoly values.

    GF(u, v) is 1 if v = u, else 0, plus GF(u, t) * weight over every arc
    t -> v.  The in-arcs come from the public ``arcs`` field alone, so the
    network's own topological order and out-arc maps are not read; there is
    no packing and no pass shared between sources.  Acyclicity ends the
    recursion.
    """
    into: dict[Vertex, list[Arc]] = {}
    for arc in net.arcs:
        into.setdefault(arc.head, []).append(arc)
    rows = []
    for u in net.sources:
        memo: dict[Vertex, QPoly] = {}

        def gf(v: Vertex) -> QPoly:
            if v not in memo:
                total = ONE if v == u else ZERO
                for arc in into.get(v, ()):
                    total = total + gf(arc.tail) * arc.weight
                memo[v] = total
            return memo[v]

        rows.append([gf(v) for v in net.sinks])
    return rows


def lgv_minor(net: PlanarNetwork, rows, cols) -> QPoly:
    """The minor of the GF matrix at ``rows`` x ``cols``, summed over path families.

    For each permutation sigma, every choice of one path source[rows[i]] ->
    sink[cols[sigma(i)]] per i from ``enumerate_paths`` whose paths share no
    vertex adds its weight product times sign(sigma).  By the
    Lindstrom-Gessel-Viennot lemma this equals the determinant of that
    submatrix on any acyclic digraph.
    """
    paths = {
        (i, j): net.enumerate_paths(net.sources[i], net.sinks[j]) for i in rows for j in cols
    }
    total = ZERO
    for perm in permutations(range(len(cols))):
        inversions = sum(a > b for x, a in enumerate(perm) for b in perm[x + 1 :])
        sign = -1 if inversions % 2 else 1
        choices = [paths[i, cols[s]] for i, s in zip(rows, perm)]
        for family in product(*choices):
            vertices = [v for path, _ in family for v in path]
            if len(set(vertices)) == len(vertices):
                total = total + sign * prod((w for _, w in family), start=ONE)
    return total


# -- positivity sweeps -------------------------------------------------


def sweep_by_selection(
    m: CSMatrix, max_size: int, seed: int = 0, exhaustive_limit: int = 20000
) -> SweepResult:
    """``positivity_sweep`` computed afresh for every selection.

    Nothing is keyed by content: every (rows, cols) pair runs the class-sum
    DP and the full character combination (``reports_by_class_sums``), even
    when its submatrix repeats another or has no nonzero permutation.  Each
    submatrix is packed at its own width, not at the sweep's.  The result
    has the sweep's tables, but nothing in them is shared: selection i has
    its own row set, column set and content, each at position i.
    """
    grid = _as_entries(m)
    row_sets, col_sets, pairs, exhaustive, total = _selections(
        len(grid), max_size, seed, exhaustive_limit, None
    )
    own_rows, own_cols, contents = [], [], []
    for r, c in pairs:
        rows, cols = row_sets[r], col_sets[c]
        provenance = MatrixProvenance(
            m.family.name,
            m.kind,
            tuple(m.row_indices[i] for i in rows),
            tuple(m.col_indices[j] for j in cols),
        )
        reports = reports_by_class_sums([[grid[i][j] for j in cols] for i in rows], provenance)
        own_rows.append(provenance.rows)
        own_cols.append(provenance.cols)
        contents.append(
            tuple(
                (x.lam, x.value, x.q_nonnegative, x.dominance_gap, x.gap_nonnegative)
                for x in reports
            )
        )
    return SweepResult(
        m.family.name,
        m.kind,
        tuple(own_rows),
        tuple(own_cols),
        tuple(contents),
        tuple((i, i, i) for i in range(len(pairs))),
        exhaustive,
        seed,
        total,
    )


def class_sums_by_plan(cells: list[list[int]]) -> list[int]:
    """Per-cycle-type sums of the permutation diagonal products, by ``_plan``.

    ``cells`` and the sums are packed polynomials; the sums are indexed like
    partitions_of(n), and all 0 on a dead support.
    """
    flat = [cell for row in cells for cell in row]
    plan = _plan(flat)
    if plan is None:
        return [0] * len(_class_positions(len(cells)))
    return _run(plan, flat)


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
    sums = [_unpack(value, bits) for value in class_sums_by_plan(packed)]
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


# -- polynomials and grids, one term and one cell at a time -------------


def str_by_term(p: QPoly) -> str:
    """``str(p)`` built term by term: a sign, then a magnitude and a power of q."""
    if not p.coeffs:
        return "0"
    out = ""
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "q" if i == 1 else f"q^{i}"
            body = var if mag == 1 else f"{mag}{var}"
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += ("-" if c < 0 else "+") + body
    return out


def grid_by_cell(entries, sep: str, pad: bool) -> str:
    """Text (``pad``) or CSV grid output, every cell rendered on its own.

    Built whole: with ``pad`` each cell is right-justified to its column's
    widest, and an empty grid is empty; without, an empty grid is one empty
    line.
    """
    cells = [[str(p) for p in row] for row in entries]
    if pad:
        if not cells:
            return ""
        widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
        cells = [[c.rjust(w) for c, w in zip(row, widths)] for row in cells]
    return "\n".join(sep.join(row) for row in cells) + "\n"


# -- JSON documents and sweep output, one report at a time --------------


def stdout_of(write, *args) -> str:
    """What ``write(*args)`` prints to stdout."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        write(*args)
    return buf.getvalue()


def sweep_csv_by_report(result: SweepResult) -> str:
    """``verify --format csv`` output, every line built from its own report."""
    lines = ["family,kind,rows,cols,lambda,value,q_nonnegative,dominance_gap,gap_nonnegative"]
    for r in result.reports:
        p = r.provenance
        fields = [p.family, p.kind] + ["|".join(map(str, x)) for x in (p.rows, p.cols, r.lam)]
        fields += [str(r.value), str(r.q_nonnegative).lower()]
        fields += [str(r.dominance_gap), str(r.gap_nonnegative).lower()]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def matrix_json(m: CSMatrix) -> dict:
    """``matrix --format json``'s document, each entry as its coefficient list."""
    return {
        "kind": m.kind,
        "family": m.family.name,
        "rows": list(m.row_indices),
        "cols": list(m.col_indices),
        "entries": [[p.to_json() for p in row] for row in m.entries],
    }


def provenance_json(p: MatrixProvenance) -> dict:
    """A provenance's JSON object, from its public fields."""
    return {"family": p.family, "kind": p.kind, "rows": list(p.rows), "cols": list(p.cols)}


def report_json(r: ImmanantReport) -> dict:
    """A report's JSON object, from its public fields, with its provenance last."""
    return {
        "lambda": list(r.lam),
        "value": r.value.to_json(),
        "q_nonnegative": r.q_nonnegative,
        "dominance_gap": r.dominance_gap.to_json(),
        "gap_nonnegative": r.gap_nonnegative,
        "provenance": provenance_json(r.provenance),
    }


def sweep_json_by_report(
    family: str, matrix: str, n: int, max_size: int, result: SweepResult
) -> str:
    """``verify --format json`` output through ``json.dumps`` and each report's dict."""
    doc = {
        "family": family,
        "matrix": matrix,
        "n": n,
        "max_size": max_size,
        "seed": result.seed,
        "exhaustive": result.exhaustive,
        "total_candidates": result.total_candidates,
        "report_count": len(result.reports),
        "ok": result.ok,
        "violations": [report_json(r) for r in result.violations()],
        "reports": [report_json(r) for r in result.reports],
    }
    return json.dumps(doc, indent=2) + "\n"


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
