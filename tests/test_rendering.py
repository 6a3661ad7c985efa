"""Property tests for polynomial rendering and the streamed grid writer
behind ``matrix``, ``hankel`` and ``chars`` text and CSV output (needs
hypothesis)."""

import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from qcatalan import cli, qpoly
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
