"""Parameter families (r_k, s_k, t_k) and their five positivity conditions.

A family is three sequences of q-nonnegative polynomials indexed by k:
r_k and s_k from k = 0, t_k from k = 1 (t_0 and r_{-1} are 0 by convention).
Optionally a family carries witness sequences b_k, c_k used by the fifth
condition and by the corresponding network weighting.

Each sequence is an explicit prefix followed by an optional tail, a
polynomial in k whose coefficients are polynomials in q; a sequence without
a tail is finite and raises SequenceExhausted past its prefix.  r/s/t terms
are checked lazily on access: a term with a negative coefficient raises
NonNonnegativeParameter.
"""

from __future__ import annotations

import json

from .errors import (
    MissingWitness,
    NonNonnegativeParameter,
    SchemaError,
    SequenceExhausted,
    UnknownFamily,
)
from .qpoly import ONE, QPoly, ZERO, _Frozen

# Positivity condition i goes with weight case i of a network layer.
WEIGHT_CASES = (1, 2, 3, 4, 5)


class ParamSeq(_Frozen):
    """One parameter sequence: an explicit prefix, then an optional tail.

    ``start`` is the index of the first term (0 for r/s and witnesses, 1 for
    t).  Past the prefix, the term at index k is the tail polynomial
    ``tail[0] + tail[1]*k + tail[2]*k**2 + ...``, evaluated by Horner's rule
    from the top coefficient, so a constant tail returns its one stored
    polynomial.  An empty tail means the sequence ends with its prefix.
    """

    _fields = ("start", "prefix", "tail")

    def __init__(
        self, start: int, prefix: tuple[QPoly, ...] = (), tail: tuple[QPoly, ...] = ()
    ) -> None:
        _Frozen.__init__(self, start, prefix, tail)

    def __call__(self, k: int) -> QPoly:
        i = k - self.start
        if i < 0:
            raise ValueError(f"index {k} precedes sequence start {self.start}")
        if i < len(self.prefix):
            return self.prefix[i]
        if not self.tail:
            n = len(self.prefix)
            raise SequenceExhausted(
                f"the sequence has only {n} explicit term{'' if n == 1 else 's'} "
                f"(from index {self.start}) and no tail"
            )
        *lower, value = self.tail
        for c in reversed(lower):
            value = value * k + c
        return value


class FamilySpec(_Frozen):
    """A named parameter family with optional condition-5 witnesses.

    Compared and hashed by identity.
    """

    _fields = ("name", "r_seq", "s_seq", "t_seq", "witness_b", "witness_c")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        name: str,
        r_seq: ParamSeq,
        s_seq: ParamSeq,
        t_seq: ParamSeq,
        witness_b: ParamSeq | None = None,
        witness_c: ParamSeq | None = None,
    ) -> None:
        _Frozen.__init__(self, name, r_seq, s_seq, t_seq, witness_b, witness_c)

    def _term(self, seq: ParamSeq, label: str, k: int) -> QPoly:
        try:
            return seq(k)
        except SequenceExhausted as exc:
            raise SequenceExhausted(
                f"{label}_{k} of family {self.name!r} is unavailable: {exc}"
            ) from None

    def _checked(self, seq: ParamSeq, label: str, k: int) -> QPoly:
        value = self._term(seq, label, k)
        if not value.is_q_nonnegative():
            raise NonNonnegativeParameter(
                f"{label}_{k} = {value} of family {self.name!r} has a negative coefficient"
            )
        return value

    def r(self, k: int) -> QPoly:
        """r_k for k >= 0; r(-1) is 0 by convention."""
        if k == -1:
            return ZERO
        return self._checked(self.r_seq, "r", k)

    def s(self, k: int) -> QPoly:
        """s_k for k >= 0."""
        return self._checked(self.s_seq, "s", k)

    def t(self, k: int) -> QPoly:
        """t_k for k >= 1; t(0) is 0 by convention."""
        if k == 0:
            return ZERO
        return self._checked(self.t_seq, "t", k)

    @property
    def has_witnesses(self) -> bool:
        return self.witness_b is not None and self.witness_c is not None

    def b(self, k: int) -> QPoly:
        """Witness b_k; unlike r/s/t its sign is reported, not an error."""
        if self.witness_b is None:
            raise MissingWitness(f"family {self.name!r} has no witness_b sequence")
        return self._term(self.witness_b, "witness b", k)

    def c(self, k: int) -> QPoly:
        """Witness c_k; unlike r/s/t its sign is reported, not an error."""
        if self.witness_c is None:
            raise MissingWitness(f"family {self.name!r} has no witness_c sequence")
        return self._term(self.witness_c, "witness c", k)


class ConditionReport(_Frozen):
    """Outcome of checking one positivity condition up to a truncation depth.

    ``first_violation`` is None when the condition holds; otherwise it is a
    pair (k, difference) naming the smallest failing index and the offending
    difference polynomial.
    """

    _fields = ("condition_index", "holds", "first_violation")

    def __init__(
        self,
        condition_index: int,
        holds: bool,
        first_violation: tuple[int, QPoly] | None = None,
    ) -> None:
        _Frozen.__init__(self, condition_index, holds, first_violation)


# Lower bound that condition i (1-4) puts on s_k.
_LOWER_BOUNDS = {
    1: lambda f, k: f.r(k) + f.t(k),
    2: lambda f, k: f.r(k - 1) + f.t(k + 1),
    3: lambda f, k: f.r(k - 1) * f.t(k) + ONE,
    4: lambda f, k: f.r(k) * f.t(k + 1) + (ONE if k else ZERO),
}


def condition_difference(f: FamilySpec, which: int, k: int) -> QPoly:
    """Condition ``which``'s difference at index k, for conditions 1-4.

    It is s_k minus the condition's lower bound; the condition holds at k
    when it is q-nonnegative.  Weight case ``which`` of a network layer puts
    exactly this polynomial on its super-diagonal arc at index k.
    """
    return f.s(k) - _LOWER_BOUNDS[which](f, k)


def check_condition(f: FamilySpec, which: int, up_to: int) -> ConditionReport:
    """Check one of the five sufficient positivity conditions for k <= up_to.

    Conditions 1-4 compare s_k against combinations of neighbouring r/t
    terms (see ``condition_difference``); condition 5 verifies the witness
    factorization r_k = 1, s_k = b_k + c_k, t_{k+1} = b_{k+1} c_k with
    q-nonnegative witnesses.
    """
    if which not in WEIGHT_CASES:
        raise ValueError(f"condition index must be 1..5, got {which!r}")
    if up_to < 0:
        raise ValueError(f"up_to must be >= 0, got {up_to!r}")

    def fail(k: int, diff: QPoly) -> ConditionReport:
        return ConditionReport(which, False, (k, diff))

    if which == 5:
        if not f.has_witnesses:
            raise MissingWitness(
                f"family {f.name!r} carries no witness sequences for condition 5"
            )
        for k in range(up_to + 1):
            b, c = f.b(k), f.c(k)
            if not b.is_q_nonnegative():
                return fail(k, b)
            if not c.is_q_nonnegative():
                return fail(k, c)
            diff = f.r(k) - ONE
            if not diff.is_zero():
                return fail(k, diff)
            diff = f.s(k) - (b + c)
            if not diff.is_zero():
                return fail(k, diff)
            diff = f.t(k + 1) - f.b(k + 1) * c
            if not diff.is_zero():
                return fail(k, diff)
        return ConditionReport(which, True)

    for k in range(up_to + 1):
        diff = condition_difference(f, which, k)
        if not diff.is_q_nonnegative():
            return fail(k, diff)
    return ConditionReport(which, True)


# -- builtin families ------------------------------------------------


# Each builtin is a family document without its name (see ``load_family``).
_BUILTINS = {
    # r_k = k + 1, s_k = k(q+1) + 1, t_k = k q
    "eulerian": {
        "r": {"tail": {"linear": [1], "constant": [1]}},
        "s": {"tail": {"linear": [1, 1], "constant": [1]}},
        "t": {"tail": {"linear": [0, 1]}},
    },
    # r_k = 1, s_0 = q + 1, s_k = 2q + 1, t_k = q^2 + q
    "schroder": {
        "r": {"tail": {"constant": [1]}},
        "s": {"prefix": [[1, 1]], "tail": {"constant": [1, 2]}},
        "t": {"tail": {"constant": [0, 1, 1]}},
        "witness_b": {"prefix": [[]], "tail": {"constant": [0, 1]}},
        "witness_c": {"tail": {"constant": [1, 1]}},
    },
    # r_k = 1, s_0 = q, s_k = q + 1, t_k = q
    "narayana": {
        "r": {"tail": {"constant": [1]}},
        "s": {"prefix": [[0, 1]], "tail": {"constant": [1, 1]}},
        "t": {"tail": {"constant": [0, 1]}},
        "witness_b": {"prefix": [[]], "tail": {"constant": [1]}},
        "witness_c": {"tail": {"constant": [0, 1]}},
    },
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> FamilySpec:
    """Return one of the builtin families: eulerian, schroder, narayana."""
    try:
        document = _BUILTINS[name]
    except KeyError:
        raise UnknownFamily(
            f"unknown builtin family {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
    return load_family({"name": name, **document})


# -- loading from documents ------------------------------------------

_SEQ_KEYS = {"prefix", "tail"}
_TAIL_KEYS = {"linear", "constant"}
_DOC_KEYS = {"name", "r", "s", "t", "witness_b", "witness_c"}
_NAME_FORBIDDEN = ',"\n\r'  # CSV output writes family names unquoted


def _parse_poly(obj: object, where: str) -> QPoly:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: polynomial must be a list of ints, got {obj!r}")
    for c in obj:
        if not isinstance(c, int) or isinstance(c, bool):
            raise SchemaError(f"{where}: coefficient {c!r} is not an int")
    return QPoly(obj)


def _parse_seq(obj: object, start: int, where: str) -> ParamSeq:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: sequence must be an object, got {obj!r}")
    extra = set(obj) - _SEQ_KEYS
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")
    prefix_obj = obj.get("prefix", [])
    if not isinstance(prefix_obj, list):
        raise SchemaError(f"{where}.prefix: must be a list of polynomials")
    prefix = tuple(
        _parse_poly(p, f"{where}.prefix[{i}]") for i, p in enumerate(prefix_obj)
    )
    coeffs = ()
    if "tail" in obj:
        tail = obj["tail"]
        if not isinstance(tail, dict):
            raise SchemaError(f"{where}.tail: must be an object, got {tail!r}")
        extra = set(tail) - _TAIL_KEYS
        if extra:
            raise SchemaError(f"{where}.tail: unknown keys {sorted(extra)}")
        if not tail:
            raise SchemaError(f"{where}.tail: needs 'linear' and/or 'constant'")
        constant = ZERO
        if "linear" in tail:
            coeffs = (_parse_poly(tail["linear"], f"{where}.tail.linear"),)
        if "constant" in tail:
            constant = _parse_poly(tail["constant"], f"{where}.tail.constant")
        # slot i holds the coefficient of k**i
        coeffs = (constant, *coeffs)
    return ParamSeq(start=start, prefix=prefix, tail=coeffs)


def load_family(document: str | dict) -> FamilySpec:
    """Build a FamilySpec from a JSON document (text or already-parsed dict).

    The document shape is ``{name, r, s, t, witness_b?, witness_c?}`` where
    each sequence is ``{prefix?: [poly...], tail?: {linear?: poly,
    constant?: poly}}`` and a polynomial is its ascending coefficient list.
    Declared r/s/t prefix terms must be q-nonnegative, and the name may not
    hold a comma, a double quote or a line break.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"family document is not valid JSON: {exc}") from None
        except ValueError:  # an int literal past the interpreter's digit limit
            raise SchemaError("family document has an integer too long to read") from None
        except RecursionError:
            raise SchemaError("family document is nested too deeply to read") from None
    if not isinstance(document, dict):
        raise SchemaError(f"family document must be an object, got {document!r}")
    extra = set(document) - _DOC_KEYS
    if extra:
        raise SchemaError(f"family document has unknown keys {sorted(extra)}")
    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("family document needs a nonempty string 'name'")
    bad = next((ch for ch in name if ch in _NAME_FORBIDDEN), None)
    if bad is not None:
        raise SchemaError(
            f"family name {name!r} contains {bad!r}; a name may not hold "
            "a comma, a double quote or a line break"
        )
    for key in ("r", "s", "t"):
        if key not in document:
            raise SchemaError(f"family document is missing the {key!r} sequence")
    r_seq = _parse_seq(document["r"], 0, "r")
    s_seq = _parse_seq(document["s"], 0, "s")
    t_seq = _parse_seq(document["t"], 1, "t")
    witness_b = witness_c = None
    if "witness_b" in document:
        witness_b = _parse_seq(document["witness_b"], 0, "witness_b")
    if "witness_c" in document:
        witness_c = _parse_seq(document["witness_c"], 0, "witness_c")
    spec = FamilySpec(
        name=name,
        r_seq=r_seq,
        s_seq=s_seq,
        t_seq=t_seq,
        witness_b=witness_b,
        witness_c=witness_c,
    )
    # Validate the declared prefixes eagerly; tails stay lazy.
    for term, seq in ((spec.r, r_seq), (spec.s, s_seq), (spec.t, t_seq)):
        for k in range(seq.start, seq.start + len(seq.prefix)):
            term(k)
    return spec
