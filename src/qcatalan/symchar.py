"""Integer partitions and symmetric-group irreducible characters.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  Character values chi^lambda(mu) are
computed by the border-strip (Murnaghan-Nakayama) recursion, memoized on
the (shape, cycle-type) pair.  Partition lists are always produced in
reverse lexicographic order -- (n) first, (1,...,1) last -- so every table
and report downstream is deterministically ordered.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .errors import NotAPermutation, OutOfRange, ShapeError

Partition = tuple[int, ...]

MAX_PARTITION_N = 20


def is_partition(parts: tuple) -> bool:
    """True for a tuple of weakly decreasing positive ints (or the empty tuple)."""
    if not isinstance(parts, tuple):
        return False
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
            return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def _validate_partition(lam: Partition) -> None:
    if not is_partition(lam):
        raise ValueError(f"{lam!r} is not a partition (weakly decreasing positive ints)")


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order."""
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_PARTITION_N:
        raise OutOfRange(f"partitions_of supports 0 <= n <= {MAX_PARTITION_N}, got {n!r}")
    result: list[Partition] = []

    def gen(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for p in range(min(max_part, remaining), 0, -1):
            prefix.append(p)
            gen(remaining - p, p, prefix)
            prefix.pop()

    gen(n, n, [])
    return tuple(result)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    _validate_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def degree(lam: Partition) -> int:
    """Dimension of the irreducible indexed by lam, via the hook length formula."""
    _validate_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return factorial(n) // hooks


def _strip_removals(lam: Partition, size: int) -> list[tuple[int, Partition]]:
    """All ways to remove a border strip of the given size from lam.

    Returns (sign, smaller_partition) pairs where sign = (-1)**(height-1).
    Implemented with first-column hook (beta) numbers: removing a strip of
    length ``size`` means lowering one beta number by ``size`` onto a free
    slot, and the sign counts the beta numbers jumped over.
    """
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    out: list[tuple[int, Partition]] = []
    for b in beta:
        nb = b - size
        if nb < 0 or nb in bset:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        parts = tuple(
            p for i in range(ell) if (p := newbeta[i] - (ell - 1 - i)) > 0
        )
        out.append(((-1) ** crossed, parts))
    return out


@cache
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    head, rest = mu[0], mu[1:]
    return sum(sign * _mn(sub, rest) for sign, sub in _strip_removals(lam, head))


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value chi^lam on the class of cycle type mu."""
    _validate_partition(lam)
    _validate_partition(mu)
    if sum(lam) != sum(mu):
        raise ShapeError(
            f"shape {lam} and cycle type {mu} partition different integers"
        )
    return _mn(lam, mu)


def cycle_type(pi: list[int] | tuple[int, ...]) -> Partition:
    """Cycle type of a permutation given as the image list of 1..n."""
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise NotAPermutation(f"{pi!r} is not a bijection on 1..{n}")
    seen = [False] * (n + 1)
    lengths: list[int] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = pi[j - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def sign_of_class(mu: Partition) -> int:
    """Sign of any permutation with cycle type mu."""
    _validate_partition(mu)
    return (-1) ** (sum(mu) - len(mu))


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation with cycle type mu.

    The class of cycle type mu in the symmetric group on |mu| letters has
    n!/centralizer_order(mu) elements.
    """
    _validate_partition(mu)
    order = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        order *= part**m * factorial(m)
    return order


class CharacterTable:
    """All irreducible character values for the symmetric group on n letters.

    Rows and columns are both indexed by partitions_of(n) in reverse
    lexicographic order: rows by shape lam, columns by cycle type mu.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.shapes = partitions_of(n)
        self._rows = {
            lam: tuple(character(lam, mu) for mu in self.shapes) for lam in self.shapes
        }

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self._rows[lam]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "classes": [list(mu) for mu in self.shapes],
            "characters": [
                {"shape": list(lam), "values": list(self.row(lam))}
                for lam in self.shapes
            ],
        }


@cache
def character_table(n: int) -> CharacterTable:
    """Cached character table; built once per n on first use."""
    return CharacterTable(n)
