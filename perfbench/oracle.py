"""Independent arithmetic for checking qcatalan's outputs.

Nothing here imports qcatalan.  Polynomials are evaluated at integer
points of q with plain Python ints, or kept as ascending coefficient
lists; the families, closed forms, partitions and path sums are written
out from their definitions rather than taken from the program.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial

# -- polynomials as ascending coefficient lists -------------------------


def poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def parse_poly(text: str) -> list[int]:
    """Read the canonical rendering ``1+4q+q^2`` / ``-1+q`` / ``0``.

    Raises ValueError on anything that is not canonical: a zero
    coefficient, exponents out of ascending order, or stray characters.
    """
    if text == "0":
        return []
    if not text or text[-1] in "+-":
        raise ValueError(f"bad polynomial {text!r}")
    terms = text.replace("-", "+-").split("+")
    if terms[0] == "":
        terms = terms[1:]
    coeffs: list[int] = []
    for term in terms:
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        head, has_q, tail = term.partition("q")
        if not has_q:
            exp, mag = 0, int(head)
        else:
            if tail == "":
                exp = 1
            elif tail[0] == "^" and tail[1:].isdigit():
                exp = int(tail[1:])
                if exp < 2:
                    raise ValueError(f"bad exponent in {text!r}")
            else:
                raise ValueError(f"bad term in {text!r}")
            if head == "":
                mag = 1
            elif head.isdigit() and int(head) > 1:
                mag = int(head)
            else:
                raise ValueError(f"bad coefficient in {text!r}")
        if mag == 0 or (not head.isdigit() and not has_q) or exp < len(coeffs):
            raise ValueError(f"non-canonical polynomial {text!r}")
        coeffs.extend([0] * (exp - len(coeffs)))
        coeffs.append(sign * mag)
    return coeffs


def is_canonical(coeffs) -> bool:
    return all(type(c) is int for c in coeffs) and (not coeffs or coeffs[-1] != 0)


# -- families at an integer point ---------------------------------------


class Family:
    """r_k, s_k, t_k as polynomials (coefficient lists) of a family.

    The builtins are typed in from their definitions; a custom family is
    read from the same JSON document the program is given.
    """

    def __init__(self, name: str, r, s, t) -> None:
        self.name = name
        self._r, self._s, self._t = r, s, t

    def r(self, k: int):
        return [] if k < 0 else self._r(k)

    def s(self, k: int):
        return self._s(k)

    def t(self, k: int):
        return [] if k <= 0 else self._t(k)


def builtin_family(name: str) -> Family:
    if name == "eulerian":  # r_k = k+1, s_k = k(q+1)+1, t_k = kq
        return Family(name, lambda k: [k + 1], lambda k: [k + 1, k], lambda k: [0, k])
    if name == "schroder":  # r_k = 1, s_0 = 1+q, s_k = 1+2q, t_k = q+q^2
        return Family(
            name, lambda k: [1], lambda k: [1, 1] if k == 0 else [1, 2], lambda k: [0, 1, 1]
        )
    if name == "narayana":  # r_k = 1, s_0 = q, s_k = 1+q, t_k = q
        return Family(
            name, lambda k: [1], lambda k: [0, 1] if k == 0 else [1, 1], lambda k: [0, 1]
        )
    raise KeyError(name)


def _doc_seq(obj: dict, start: int):
    prefix = obj.get("prefix", [])
    tail = obj.get("tail", {})
    linear, constant = tail.get("linear", []), tail.get("constant", [])

    def term(k: int):
        i = k - start
        if i < len(prefix):
            return list(prefix[i])
        size = max(len(linear), len(constant))
        out = [
            k * (linear[d] if d < len(linear) else 0)
            + (constant[d] if d < len(constant) else 0)
            for d in range(size)
        ]
        while out and out[-1] == 0:
            out.pop()
        return out

    return term


def document_family(doc: dict) -> Family:
    return Family(doc["name"], _doc_seq(doc["r"], 0), _doc_seq(doc["s"], 0), _doc_seq(doc["t"], 1))


def triangle_at(f: Family, n: int, x: int) -> list[list[int]]:
    """Rows 0..n of c_{m,k}(x) by the three-term recurrence in plain ints."""
    r = [poly_eval(f.r(k), x) for k in range(n + 1)]
    s = [poly_eval(f.s(k), x) for k in range(n + 1)]
    t = [0] + [poly_eval(f.t(k), x) for k in range(1, n + 2)]
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1] + [0, 0]
        row = []
        for k in range(m + 1):
            v = s[k] * prev[k] + t[k + 1] * prev[k + 1]
            if k:
                v += r[k - 1] * prev[k - 1]
            row.append(v)
        rows.append(row)
    return rows


def cs_matrix_at(f: Family, n: int, x: int) -> list[list[int]]:
    tri = triangle_at(f, n, x)
    return [[tri[i][j] if j <= i else 0 for j in range(n + 1)] for i in range(n + 1)]


def hankel_at(f: Family, n: int, x: int) -> list[list[int]]:
    a = [row[0] for row in triangle_at(f, 2 * n, x)]
    return [[a[i + j] for j in range(n + 1)] for i in range(n + 1)]


def diagonal_product(f: Family, m: int):
    """c_{m,m} = r_0 r_1 ... r_{m-1} as a coefficient list."""
    out = [1]
    for k in range(m):
        out = poly_mul(out, f.r(k))
    return out


# -- closed forms of the builtin first columns --------------------------


def closed_form(name: str, n: int) -> list[int]:
    """a_n as a coefficient list, from the combinatorial closed form."""
    if n == 0:
        return [1]
    if name == "eulerian":  # Eulerian numbers A(n, k), k = 0..n-1
        return [
            sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))
            for k in range(n)
        ]
    if name == "narayana":  # N(n, k) = C(n,k) C(n,k-1) / n, k = 1..n
        return [0] + [comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1)]
    if name == "schroder":  # sum_k C(n+k, 2k) Cat_k q^k
        return [comb(n + k, 2 * k) * comb(2 * k, k) // (k + 1) for k in range(n + 1)]
    raise KeyError(name)


# -- partitions and characters --------------------------------------------


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, largest first part first."""
    out: list[tuple[int, ...]] = []

    def gen(rem: int, cap: int, pre: tuple[int, ...]) -> None:
        if rem == 0:
            out.append(pre)
            return
        for p in range(min(rem, cap), 0, -1):
            gen(rem - p, p, pre + (p,))

    gen(n, n, ())
    return out


def hook_degree(lam) -> int:
    n = sum(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            below = sum(1 for r in lam[i + 1:] if r > j)
            hooks *= row - j + below
    return factorial(n) // hooks


def perm_sums(m: list[list[int]]) -> tuple[int, int]:
    """(determinant, permanent) of an integer matrix by direct permutation sum."""
    n = len(m)
    det = per = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= m[i][j]
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        det += -prod if inversions % 2 else prod
        per += prod
    return det, per


# -- networks ---------------------------------------------------------------


def path_sums(arcs, sources, sinks, x: int) -> list[list[int]]:
    """GF(source_i, sink_j) at q = x over an acyclic arc list.

    ``arcs`` holds (tail, head, weight_at_x) triples of hashable vertices.
    """
    adj: dict = {}
    indeg: dict = {}
    for tail, head, w in arcs:
        adj.setdefault(tail, []).append((head, w))
        adj.setdefault(head, [])
        indeg[head] = indeg.get(head, 0) + 1
        indeg.setdefault(tail, 0)
    for v in list(sources) + list(sinks):
        adj.setdefault(v, [])
        indeg.setdefault(v, 0)
    order = [v for v, d in indeg.items() if d == 0]
    for v in order:
        for head, _ in adj[v]:
            indeg[head] -= 1
            if indeg[head] == 0:
                order.append(head)
    if len(order) != len(adj):
        raise ValueError("network has a directed cycle")
    rank = {v: i for i, v in enumerate(order)}
    out = []
    for u in sources:
        acc = {u: 1}
        for v in order[rank[u]:]:
            val = acc.get(v)
            if not val:
                continue
            for head, w in adj[v]:
                acc[head] = acc.get(head, 0) + val * w
        out.append([acc.get(v, 0) for v in sinks])
    return out
