"""Property tests: the CLI's writers match ``json.dumps(indent=2)``, with each
``QPoly`` as its coefficient list, and per-report sweep rendering (needs
hypothesis)."""

import argparse
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qcatalan import cli
from qcatalan.csmatrix import CSMatrix
from qcatalan.families import FamilySpec, builtin
from qcatalan.immanant import positivity_sweep
from qcatalan.qpoly import ONE, Q, ZERO, QPoly

from oracles import stdout_of, sweep_csv_by_report, sweep_json_by_report, sweep_text_by_report

# every code point, lone surrogates and control characters included
strings = st.text(st.characters(exclude_categories=()), max_size=12)
ints = st.one_of(
    st.integers(-(2**16), 2**16),
    st.integers(-(2**200), 2**200),
    st.sampled_from([2**63, 2**64, -(2**64) - 1, 0, -1]),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    strings,
    # all-int lists take the writer's joined path; a bool among ints must not
    st.lists(ints, max_size=6),
    st.lists(st.one_of(ints, st.booleans()), max_size=6),
    # zero polynomials included, which render as []
    st.lists(ints, max_size=6).map(QPoly),
)
documents = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5), st.dictionaries(strings, kids, max_size=5)
    ),
    max_leaves=40,
)


def coefficient_lists(doc):
    """``doc`` with every ``QPoly`` replaced by its coefficient list."""
    if isinstance(doc, QPoly):
        return doc.to_json()
    if isinstance(doc, list):
        return [coefficient_lists(x) for x in doc]
    if isinstance(doc, dict):
        return {k: coefficient_lists(x) for k, x in doc.items()}
    return doc


@settings(max_examples=200)
@given(documents)
def test_writer_matches_indented_json_dumps(doc):
    want = json.dumps(coefficient_lists(doc), indent=2) + "\n"
    assert stdout_of(cli._write_json, doc) == want


# zeros make empty contents; -1 and 2 - q make violations; few entries collide
POOL = (ZERO, ZERO, ONE, -ONE, Q, ONE + Q, 2 - Q, Q * Q)


@st.composite
def sweeps(draw):
    """A sweep of a small pool matrix, exhaustive or sampled with repeated draws."""
    n = draw(st.integers(1, 4))
    entries = tuple(
        tuple(draw(st.sampled_from(POOL)) for _ in range(n)) for _ in range(n)
    )
    # any name, non-ASCII, escapes and CSV separators included
    f = builtin("narayana")
    family = FamilySpec(draw(strings), f.r_seq, f.s_seq, f.t_seq, f.witness_b, f.witness_c)
    offset = draw(st.integers(0, 3))
    m = CSMatrix(entries, "pool", family, tuple(range(offset, offset + n)), tuple(range(n)))
    max_size = draw(st.integers(1, n))
    # a small limit samples with replacement, so draws repeat
    limit = draw(st.sampled_from([3, 12, 40, 20000]))
    seed = draw(st.integers(0, 9))
    return m, max_size, positivity_sweep(m, max_size, seed=seed, exhaustive_limit=limit)


@settings(max_examples=150, deadline=None)
@given(sweeps())
def test_sweep_writers_match_per_report_rendering(case):
    m, max_size, result = case
    assert stdout_of(cli._sweep_csv, result) == sweep_csv_by_report(result)
    args = argparse.Namespace(matrix=m.kind, n=m.nrows, max_size=max_size)
    doc = cli._sweep_json(args, m.family, result)
    want = sweep_json_by_report(m.family.name, m.kind, m.nrows, max_size, result)
    assert stdout_of(cli._write_json, doc) == want
    assert stdout_of(cli._sweep_text, result) == sweep_text_by_report(result)
