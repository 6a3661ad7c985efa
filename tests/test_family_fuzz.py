"""Fuzz tests for family documents: ``load_family`` raises only ``FamilyError``
(needs hypothesis)."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qcatalan.errors import FamilyError
from qcatalan.families import FamilySpec, load_family

VALID = {
    "name": "fuzz",
    "r": {"prefix": [[1], [1]], "tail": {"constant": [1]}},
    "s": {"prefix": [[0, 1], [1, 1]], "tail": {"linear": [0, 1], "constant": [1, 1]}},
    "t": {"prefix": [[0, 1]], "tail": {"constant": [0, 1]}},
    "witness_b": {"prefix": [[]], "tail": {"constant": [1]}},
    "witness_c": {"tail": {"constant": [0, 1]}},
}

KEYS = st.sampled_from(
    ["name", "r", "s", "t", "witness_b", "witness_c", "prefix", "tail", "linear",
     "constant", "x"]
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(KEYS | st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


def assert_only_family_errors(document) -> None:
    """Load ``document`` and read a few terms; any failure must be a FamilyError."""
    try:
        f = load_family(document)
    except FamilyError:
        return
    assert isinstance(f, FamilySpec)
    assert isinstance(f.name, str) and f.name
    for k in range(4):
        for read in (lambda: f.r(k), lambda: f.s(k), lambda: f.t(k + 1)):
            try:
                read()
            except FamilyError:
                pass


@settings(deadline=None)
@given(json_values)
def test_arbitrary_values_raise_only_family_errors(value):
    assert_only_family_errors(value)
    assert_only_family_errors(json.dumps(value))


@settings(deadline=None)
@given(st.text(max_size=60))
def test_arbitrary_text_raises_only_family_errors(text):
    assert_only_family_errors(text)


def _paths(node, path=()):
    """Every key path into ``node``, parents before their children."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], path + (key,))


PATHS = list(_paths(VALID))


@st.composite
def mutated_documents(draw):
    """VALID with one node, drawn uniformly, replaced, deleted, or given a sibling."""
    doc = json.loads(json.dumps(VALID))
    *parents, key = draw(st.sampled_from(PATHS))
    node = doc
    for step in parents:
        node = node[step]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        node[key] = draw(json_values)
    elif action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[draw(KEYS | st.text(max_size=4))] = draw(json_values)
    else:
        node.append(draw(json_values))
    return doc


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_mutated_documents_raise_only_family_errors(doc):
    assert_only_family_errors(doc)
    assert_only_family_errors(json.dumps(doc))


@settings(deadline=None)
@given(st.integers(0, 200), st.integers(0, 20), st.text(max_size=6))
def test_spliced_document_text_raises_only_family_errors(at, cut, insert):
    text = json.dumps(VALID)
    assert_only_family_errors(text[:at] + insert + text[at + cut:])


def test_valid_document_loads():
    f = load_family(VALID)
    assert f.name == "fuzz"
    assert f.s(5).coeffs == (1, 6)
