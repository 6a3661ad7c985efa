"""Property tests for polynomial rendering and the streamed grid writer
behind ``matrix``, ``hankel`` and ``chars`` text and CSV output (needs
hypothesis)."""

import io
import tracemalloc
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from qcatalan import cli, qpoly
from qcatalan.csmatrix import catalan_stieltjes
from qcatalan.families import builtin
from qcatalan.qpoly import QPoly

from oracles import grid_by_cell, stdout_of, str_by_term

# constants, +-1, zeros between terms, and coefficients of any sign and size
coefficients = st.one_of(
    st.sampled_from([0, 1, -1]), st.integers(-(10**30), 10**30), st.integers(-9, 9)
)
# a run of zeros carries the last terms past the labels built at import
polys = st.one_of(
    st.lists(coefficients, max_size=3),
    st.lists(coefficients, max_size=120),
    st.builds(
        lambda low, gap, high: [*low, *[0] * gap, *high],
        st.lists(coefficients, max_size=4),
        st.integers(256, 300),
        st.lists(coefficients, max_size=4),
    ),
).map(QPoly)


@given(polys)
def test_str_matches_the_term_by_term_rendering(p):
    assert str(p) == str_by_term(p)


def test_str_past_the_label_table_extends_it():
    size = len(qpoly._LABELS)
    for coeffs in ([0] * size + [-1], [-1] + [0] * size + [1, -2], [3] * (size + 2)):
        p = QPoly(coeffs)
        assert str(p) == str_by_term(p)
    # the longest of them has size + 3 coefficients
    assert qpoly._LABELS[size:] == [f"q^{i}" for i in (size, size + 1, size + 2)]


@st.composite
def grids(draw):
    """A grid that repeats some cell objects: polynomials, ints and strings."""
    pool = draw(
        st.lists(
            st.one_of(polys, st.integers(-50, 50), st.text(max_size=4)), min_size=1, max_size=6
        )
    )
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 6))
    cell = st.one_of(
        st.sampled_from(pool),  # the same object in many cells
        polys,  # a fresh object, possibly equal to a pooled one
    )
    return [draw(st.lists(cell, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@given(grids(), st.sampled_from([("  ", True), (",", False)]))
def test_grid_writer_matches_the_cell_by_cell_rendering(grid, layout):
    sep, pad = layout
    assert stdout_of(cli._write_grid, grid, sep, pad) == grid_by_cell(grid, sep, pad)


class _LargestWrite(io.StringIO):
    """A stdout that records the length of its largest single write."""

    largest = 0

    def write(self, s):
        self.largest = max(self.largest, len(s))
        return super().write(s)


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["matrix", "--family", "eulerian", "--n", "80", "--format", "text"], 81),
        (["hankel", "--family", "schroder", "--n", "48", "--format", "csv"], 49),
    ],
)
def test_grid_output_streams_one_row_per_write(argv, rows, monkeypatch):
    out = _LargestWrite()
    monkeypatch.setattr("sys.stdout", out)
    assert cli.main(argv) == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert len(lines) == rows
    assert out.largest <= max(map(len, lines))


@given(st.one_of(polys, st.integers(), st.text(max_size=8)))
@example(QPoly([1] * 300))  # 1+q+q^2+...+q^299: mostly labels
def test_str_bound_is_never_below_the_text_length(cell):
    bound = qpoly._str_bound(cell)
    text = str(cell)
    assert bound >= len(text)
    if type(cell) is not QPoly or len(cell.coeffs) < 2:
        assert bound == len(text)  # ints, strings and constants exactly


def test_grid_widths_come_from_texts_not_from_bounds():
    # a zero-padded q^300 has the largest bound in its column, but the
    # constant below it has the longer text
    q300 = QPoly([0] * 300 + [1])
    grid = [[q300, QPoly([1, 1])], [10**12, "x"], [QPoly([7]), q300]]
    assert qpoly._str_bound(q300) > len(str(10**12)) > len(str(q300))
    assert stdout_of(cli._write_grid, grid, "  ", True) == grid_by_cell(grid, "  ", True)


class _Sink:
    """A stdout that drops what it is given."""

    def write(self, s):
        return len(s)


@pytest.mark.parametrize("sep, pad", [("  ", True), (",", False)])
def test_grid_writer_holds_about_one_row_of_texts(sep, pad, monkeypatch):
    # the 6561 cells render to 35 MB of text, 8.4 MB of it distinct
    entries = catalan_stieltjes(builtin("eulerian"), 80).entries
    monkeypatch.setattr("sys.stdout", _Sink())
    tracemalloc.start()
    try:
        cli._write_grid(entries, sep, pad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.mark.parametrize(
    "argv, distinct",
    [
        (["matrix", "--family", "eulerian", "--n", "80", "--format", "text"], 3322),
        (["hankel", "--family", "schroder", "--n", "48", "--format", "csv"], 97),
    ],
)
def test_grid_writer_renders_each_distinct_cell_once(argv, distinct, monkeypatch):
    renders = Counter()
    plain = QPoly.__str__

    def counted(p):
        renders[id(p)] += 1
        return plain(p)

    monkeypatch.setattr(QPoly, "__str__", counted)
    monkeypatch.setattr("sys.stdout", _Sink())
    assert cli.main(argv) == 0
    assert len(renders) == distinct
    assert set(renders.values()) == {1}
