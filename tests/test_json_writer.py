"""Property test: the CLI's JSON writer matches ``json.dumps(indent=2)`` (needs hypothesis)."""

import io
import json
from contextlib import redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qcatalan import cli

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
)
documents = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5), st.dictionaries(strings, kids, max_size=5)
    ),
    max_leaves=40,
)


def written(doc) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli._write_json(doc)
    return buf.getvalue()


@settings(max_examples=200)
@given(documents)
def test_writer_matches_indented_json_dumps(doc):
    assert written(doc) == json.dumps(doc, indent=2) + "\n"
