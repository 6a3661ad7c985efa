"""The package's seven record classes, and what importing the package loads.

``ParamSeq``, ``FamilySpec``, ``ConditionReport``, ``CSMatrix``,
``MatrixProvenance``, ``ImmanantReport`` and ``SweepResult`` are plain
immutable classes on ``qpoly._Frozen``.  These tests pin their constructors,
``repr`` texts, equality, hashing, immutability and pickling, and check that
importing the CLI loads none of the modules a ``dataclasses`` import brings.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qcatalan.csmatrix import CSMatrix
from qcatalan.families import ConditionReport, FamilySpec, ParamSeq
from qcatalan.immanant import ImmanantReport, MatrixProvenance, SweepResult, positivity_sweep
from qcatalan.qpoly import ONE, Q, ZERO

SRC = Path(__file__).resolve().parent.parent / "src"

# what ``import dataclasses`` loads, none of which the package needs
STARTUP_EXCLUDED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_dataclasses():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import qcatalan.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    added = set(proc.stdout.split())
    assert "qcatalan.cli" in added
    assert not added & set(STARTUP_EXCLUDED), sorted(added & set(STARTUP_EXCLUDED))


def _seq():
    return ParamSeq(0, (ONE, Q), (ONE + Q,))


def _family():
    return FamilySpec(
        "tiny",
        ParamSeq(0, (), (ONE,)),
        ParamSeq(0, (ONE + Q,)),
        ParamSeq(1, (Q,), (ZERO, ONE)),
        witness_b=ParamSeq(0, (ONE,)),
    )


def _matrix(family=None):
    entries = ((ONE, Q), (ZERO, 2 + Q))
    return CSMatrix(entries, "pool", family or _family(), (1, 2), (0, 2))


def _provenance():
    return MatrixProvenance("tiny", "pool", (1,), (0, 2))


def _report():
    return ImmanantReport((2, 1), Q, True, -Q, False, _provenance())


def _sweep():
    return positivity_sweep(_matrix(), 2)


FAMILY_REPR = (
    "FamilySpec(name='tiny', r_seq=ParamSeq(start=0, prefix=(), tail=(QPoly([1]),)), "
    "s_seq=ParamSeq(start=0, prefix=(QPoly([1, 1]),), tail=()), "
    "t_seq=ParamSeq(start=1, prefix=(QPoly([0, 1]),), tail=(QPoly([]), QPoly([1]))), "
    "witness_b=ParamSeq(start=0, prefix=(QPoly([1]),), tail=()), witness_c=None)"
)
PROVENANCE_REPR = "MatrixProvenance(family='tiny', kind='pool', rows=(1,), cols=(0, 2))"

# the texts the dataclass versions of these classes printed
REPRS = [
    (_seq, "ParamSeq(start=0, prefix=(QPoly([1]), QPoly([0, 1])), tail=(QPoly([1, 1]),))"),
    (lambda: ParamSeq(1), "ParamSeq(start=1, prefix=(), tail=())"),
    (_family, FAMILY_REPR),
    (
        lambda: ConditionReport(3, False, (2, 1 - Q)),
        "ConditionReport(condition_index=3, holds=False, first_violation=(2, QPoly([1, -1])))",
    ),
    (
        lambda: ConditionReport(1, True),
        "ConditionReport(condition_index=1, holds=True, first_violation=None)",
    ),
    (
        _matrix,
        "CSMatrix(entries=((QPoly([1]), QPoly([0, 1])), (QPoly([]), QPoly([2, 1]))), "
        f"kind='pool', family={FAMILY_REPR}, row_indices=(1, 2), col_indices=(0, 2))",
    ),
    (_provenance, PROVENANCE_REPR),
    (
        _report,
        "ImmanantReport(lam=(2, 1), value=QPoly([0, 1]), q_nonnegative=True, "
        "dominance_gap=QPoly([0, -1]), gap_nonnegative=False, "
        f"provenance={PROVENANCE_REPR})",
    ),
    (
        _sweep,
        "SweepResult(family='tiny', kind='pool', row_sets=((1,), (2,), (1, 2)), "
        "col_sets=((0,), (2,), (0, 2)), contents=("
        "(((1,), 1, True, 0, True),), "
        "(((1,), 256, True, 0, True),), "
        "(((1,), 0, True, 0, True),), "
        "(((1,), 258, True, 0, True),), "
        "(((2,), 258, True, 0, True), "
        "((1, 1), 258, True, 0, True))), "
        "rows=((0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3), (2, 2, 4)), "
        "exhaustive=True, seed=0, total_candidates=5, bits=8)",
    ),
    (
        lambda: _sweep().reports[0],
        "ImmanantReport(lam=(1,), value=QPoly([1]), q_nonnegative=True, "
        "dominance_gap=QPoly([]), gap_nonnegative=True, "
        "provenance=MatrixProvenance(family='tiny', kind='pool', rows=(1,), cols=(0,)))",
    ),
]


@pytest.mark.parametrize("make, text", REPRS)
def test_repr_text_is_the_dataclass_text(make, text):
    assert repr(make()) == text


# one maker per value class, and a different value for each of its fields
VALUES = {
    ParamSeq: (_seq, {"start": 1, "prefix": (ONE,), "tail": ()}),
    ConditionReport: (
        lambda: ConditionReport(3, False, (2, 1 - Q)),
        {"condition_index": 4, "holds": True, "first_violation": (2, Q)},
    ),
    MatrixProvenance: (
        _provenance,
        {"family": "other", "kind": "C", "rows": (2,), "cols": (0, 1)},
    ),
    ImmanantReport: (
        _report,
        {
            "lam": (3,),
            "value": ONE,
            "q_nonnegative": False,
            "dominance_gap": Q,
            "gap_nonnegative": True,
            "provenance": MatrixProvenance("tiny", "pool", (0,), (0, 2)),
        },
    ),
    SweepResult: (
        _sweep,
        {
            "family": "other",
            "kind": "C",
            "row_sets": (),
            "col_sets": (),
            "contents": (),
            "rows": (),
            "exhaustive": False,
            "seed": 1,
            "total_candidates": 6,
            "bits": 16,
        },
    ),
}


def _fields(obj) -> dict:
    return {name: getattr(obj, name) for name in type(obj)._fields}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_classes_compare_and_hash_by_field(cls):
    make, changes = VALUES[cls]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != tuple(_fields(a).values())
    assert list(_fields(a)) == list(changes)  # every field, in constructor order
    for name, value in changes.items():
        other = cls(**{**_fields(a), name: value})
        assert other != a and not other == a, name


@pytest.mark.parametrize("make", [_family, _matrix], ids=["FamilySpec", "CSMatrix"])
def test_families_and_matrices_compare_by_identity(make):
    a, b = make(), make()
    assert repr(a) == repr(b)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


ALL = [_seq, _family, lambda: ConditionReport(1, True), _matrix, _provenance, _report, _sweep]
IDS = [
    "ParamSeq", "FamilySpec", "ConditionReport", "CSMatrix", "MatrixProvenance",
    "ImmanantReport", "SweepResult",
]


@pytest.mark.parametrize("make", ALL, ids=IDS)
def test_records_refuse_assignment_and_deletion(make):
    obj = make()
    before = repr(obj)
    for name in (*type(obj)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == before
    assert not hasattr(obj, "extra")


@pytest.mark.parametrize("make", ALL, ids=IDS)
def test_records_survive_pickling(make):
    obj = make()
    copy = pickle.loads(pickle.dumps(obj))
    assert copy is not obj and type(copy) is type(obj)
    assert repr(copy) == repr(obj)
    if type(obj) in VALUES:
        assert copy == obj and hash(copy) == hash(obj)


def test_sweep_pickles_without_its_cached_reports():
    result = _sweep()
    reports = result.reports
    assert result.reports is reports and result.failing is result.failing
    copy = pickle.loads(pickle.dumps(result))
    assert "reports" not in vars(copy)
    assert copy.reports == reports and copy.failing == result.failing
    assert copy.ok and copy.violations() == ()


def test_constructor_defaults_and_keywords():
    assert ParamSeq(2) == ParamSeq(2, (), ()) == ParamSeq(start=2, tail=(), prefix=())
    assert ParamSeq(0, tail=(Q,)) == ParamSeq(0, (), (Q,))
    family = FamilySpec("f", _seq(), _seq(), _seq())
    assert family.witness_b is None and family.witness_c is None
    by_keyword = FamilySpec(
        t_seq=_seq(), s_seq=_seq(), r_seq=_seq(), name="f", witness_c=ParamSeq(0)
    )
    assert repr(by_keyword) == repr(FamilySpec("f", _seq(), _seq(), _seq(), None, ParamSeq(0)))
    assert ConditionReport(1, True) == ConditionReport(holds=True, condition_index=1)
    assert ConditionReport(1, True).first_violation is None
    fam = _family()
    m = CSMatrix(
        col_indices=(0, 2), row_indices=(1, 2), family=fam, kind="pool",
        entries=_matrix(fam).entries,
    )
    assert repr(m) == repr(_matrix(fam))
    assert MatrixProvenance(cols=(0, 2), rows=(1,), kind="pool", family="tiny") == _provenance()
    report = _report()
    assert ImmanantReport(**_fields(report)) == report
    result = _sweep()
    assert SweepResult(**_fields(result)) == result
    for cls in (ParamSeq, FamilySpec, ConditionReport, CSMatrix, MatrixProvenance,
                ImmanantReport, SweepResult):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*range(len(cls._fields) + 1))
        with pytest.raises(TypeError):
            cls(*range(len(cls._fields)), unknown=1)


@pytest.mark.parametrize("make", [_matrix, _sweep], ids=["CSMatrix", "SweepResult"])
def test_matrices_and_sweeps_are_not_sequences(make):
    obj = make()
    with pytest.raises(TypeError):
        len(obj)
    with pytest.raises(TypeError):
        obj[0]
    with pytest.raises(TypeError):
        iter(obj)
