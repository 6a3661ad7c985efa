"""Golden bytes for CLI commands: sha256 of stdout and stderr, and the exit code.

The corpus covers JSON, text, CSV and DOT output: every JSON command, the
``inequality`` sweep with and without ``--show``, its single-triple modes,
large ``matrix``/``hankel`` renderings, small text and CSV grids of an empty
selection, a submatrix, shared Hankel cells, unit and interior-zero
coefficients and a character table, a family that fails the cubic
inequality, CSV ``verify`` sweeps up to 6x6 and 7x7 submatrices, one of
them at 96-bit digits and one sampled, that sampled sweep and the 7x7
sweep as JSON, sampled sweeps whose draws take each branch of
``random.sample`` (a 25x25 matrix, and draws of six indices), violating
and non-ASCII sweeps as CSV and text, a violating sweep whose selections mix passing and
failing shapes as JSON, CSV and text, a sampled violating sweep as text, a layered, an induced and a factored
network as DOT, a network that mixes all five weight cases as JSON and
DOT, zero-layer networks of all three constructions, the benchmark's two
largest network JSON jobs, jobs on its affine and five-case families, and
error exits, flag rejections and argparse usage errors among them. The
hashes in ``golden/json_sha256.json`` pin the exact bytes each command prints on
both streams (``network --check`` writes its check line to stderr), so a
change to arithmetic, rendering or a message that moves one byte fails
here. The temporary directory's path is replaced by ``<tmp>`` before
hashing, and ``COLUMNS`` is fixed so that argparse's usage text wraps the
same on every terminal. After a deliberate output change, rewrite the file
with ``PYTHONPATH=src python tests/test_golden_json.py`` and review the diff.
"""

import hashlib
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qcatalan import cli
from qcatalan.immanant import SIZE_CAP_ENV
from qcatalan.network import PlanarNetwork
from qcatalan.qpoly import QPoly

from test_cli import CONTROL_FAMILY

GOLDEN = Path(__file__).parent / "golden" / "json_sha256.json"
USAGE_COLUMNS = "80"  # argparse wraps its usage text to the terminal width

# Family documents written to a file; "@name" in an argv stands for its path,
# and "@" alone for the directory that holds them.  A string is written as is.
FAMILY_DOCS = {
    # its C_2 has a negative 2x2 minor, so a sweep over it reports violations
    "control": CONTROL_FAMILY,
    # a name that needs \uXXXX escapes, a surrogate pair and control escapes
    "unicode": {
        "name": "Schröder–Łukasiewicz 𝔮\t\\é",
        "r": {"tail": {"constant": [1]}},
        "s": {"tail": {"constant": [0, 1]}},
        "t": {"tail": {"constant": [1]}},
    },
    # s_0 = 2q, s_1 = 0: the cubic inequality at triple (1,2,3) has a -4q term
    "dip": {
        "name": "dip",
        "r": {"tail": {"constant": [1]}},
        "s": {"prefix": [[0, 2], [0, 0]], "tail": {"constant": [1]}},
        "t": {"tail": {"constant": [1]}},
    },
    # s has one term and no tail: H_2 needs s_1
    "short": {
        "name": "short",
        "r": {"prefix": [[1], [1]]},
        "s": {"prefix": [[1]]},
        "t": {"tail": {"constant": [1]}},
    },
    # tails with negative, +-1 and interior-zero coefficients whose terms stay
    # q-nonnegative up to k = 6 (s) and k = 8 (t), so C_5 renders unit and
    # interior-zero coefficients
    "neg": {
        "name": "neg",
        "r": {"tail": {"constant": [1]}},
        "s": {
            "prefix": [[0, 1], [1, 0, 0, 1]],
            "tail": {"linear": [0, 0, -1], "constant": [1, 0, 6]},
        },
        "t": {"tail": {"linear": [-1, 1], "constant": [8, 0, 0, 1]}},
    },
    # the benchmark's seed-1 documents: a family meeting all five weight
    # conditions, and one with affine tails
    "fivecase": {
        "name": "fivecase",
        "r": {"tail": {"constant": [1]}},
        "s": {"prefix": [[3, 3, 2]], "tail": {"constant": [4, 3, 2]}},
        "t": {"tail": {"constant": [3, 3, 2]}},
        "witness_b": {"prefix": [[]], "tail": {"constant": [1]}},
        "witness_c": {"tail": {"constant": [3, 3, 2]}},
    },
    "affine": {
        "name": "affine",
        "r": {"tail": {"linear": [1], "constant": [1]}},
        "s": {"prefix": [[3, 3]], "tail": {"linear": [1, 2], "constant": [2, 3]}},
        "t": {"tail": {"linear": [0, 3]}},
    },
    "malformed": '{"name": "malformed", "r": ',
}

CASES = {
    "verify-narayana-C6-s3": [
        "verify", "--family", "narayana", "--matrix", "C", "--n", "6",
        "--max-size", "3", "--format", "json",
    ],
    "verify-schroder-C6-s3": [
        "verify", "--family", "schroder", "--matrix", "C", "--n", "6",
        "--max-size", "3", "--format", "json",
    ],
    "verify-eulerian-C6-s3": [
        "verify", "--family", "eulerian", "--matrix", "C", "--n", "6",
        "--max-size", "3", "--format", "json",
    ],
    "verify-narayana-H5-s3": [
        "verify", "--family", "narayana", "--matrix", "H", "--n", "5",
        "--max-size", "3", "--format", "json",
    ],
    "network-schroder-40-case5-check": [
        "network", "--family", "schroder", "--n", "40", "--case", "5",
        "--check", "--format", "json",
    ],
    "hankel-schroder-40": [
        "hankel", "--family", "schroder", "--n", "40", "--format", "json",
    ],
    "inequality-narayana-16": [
        "inequality", "--family", "narayana", "--max-index", "16", "--format", "json",
    ],
    "chars-6": ["chars", "--n", "6", "--format", "json"],
    "verify-control-violations": [
        "verify", "--family", "@control", "--matrix", "C", "--n", "2",
        "--max-size", "2", "--format", "json",
    ],
    "verify-unicode-name": [
        "verify", "--family", "@unicode", "--matrix", "C", "--n", "3",
        "--max-size", "2", "--format", "json",
    ],
    "matrix-unicode-name": [
        "matrix", "--family", "@unicode", "--n", "3", "--format", "json",
    ],
    "inequality-eulerian-13-show": [
        "inequality", "--family", "eulerian", "--max-index", "13", "--show",
    ],
    "inequality-narayana-16-text": [
        "inequality", "--family", "narayana", "--max-index", "16",
    ],
    "inequality-narayana-triple": [
        "inequality", "--family", "narayana", "--triple", "1", "3", "5",
    ],
    "inequality-schroder-rows-cols": [
        "inequality", "--family", "schroder", "--rows", "0", "1", "3",
        "--cols", "1", "2", "4",
    ],
    "matrix-eulerian-80-text": [
        "matrix", "--family", "eulerian", "--n", "80", "--format", "text",
    ],
    "hankel-schroder-48-csv": [
        "hankel", "--family", "schroder", "--n", "48", "--format", "csv",
    ],
    "inequality-dip-8-show": [
        "inequality", "--family", "@dip", "--max-index", "8", "--show",
    ],
    "inequality-dip-8-json": [
        "inequality", "--family", "@dip", "--max-index", "8", "--format", "json",
    ],
    "inequality-dip-triple": [
        "inequality", "--family", "@dip", "--triple", "1", "2", "3",
    ],
    "verify-narayana-H5-s6-csv": [
        "verify", "--family", "narayana", "--matrix", "H", "--n", "5",
        "--max-size", "6", "--format", "csv",
    ],
    "verify-eulerian-C6-s7-csv": [
        "verify", "--family", "eulerian", "--matrix", "C", "--n", "6",
        "--max-size", "7", "--format", "csv",
    ],
    # every selection up to 7x7 as JSON: 127 row sets and 127 column sets
    "verify-eulerian-C6-s7-json": [
        "verify", "--family", "eulerian", "--matrix", "C", "--n", "6",
        "--max-size", "7", "--format", "json",
    ],
    # packed at 96-bit digits
    "verify-narayana-H6-s6-csv": [
        "verify", "--family", "narayana", "--matrix", "H", "--n", "6",
        "--max-size", "6", "--format", "csv",
    ],
    # 20000 sampled draws out of more than 20000 selections
    "verify-schroder-C17-s2-sampled-csv": [
        "verify", "--family", "schroder", "--matrix", "C", "--n", "17",
        "--max-size", "2", "--seed", "12345", "--format", "csv",
    ],
    # the same draws as JSON, with repeated draws
    "verify-schroder-C17-s2-sampled-json": [
        "verify", "--family", "schroder", "--matrix", "C", "--n", "17",
        "--max-size", "2", "--seed", "12345", "--format", "json",
    ],
    # a 25x25 matrix: draws of 2 from 25 indices take sample's set branch
    "verify-narayana-C24-s2-sampled-csv": [
        "verify", "--family", "narayana", "--matrix", "C", "--n", "24",
        "--max-size", "2", "--seed", "99", "--format", "csv",
    ],
    # draws of size 6, where sample's set-size threshold is 85
    "verify-narayana-C8-s6-sampled-json": [
        "verify", "--family", "narayana", "--matrix", "C", "--n", "8",
        "--max-size", "6", "--seed", "3", "--format", "json",
    ],
    "verify-control-violations-csv": [
        "verify", "--family", "@control", "--matrix", "C", "--n", "2",
        "--max-size", "2", "--format", "csv",
    ],
    "verify-control-violations-text": [
        "verify", "--family", "@control", "--matrix", "C", "--n", "2",
        "--max-size", "2", "--format", "text",
    ],
    # 15 selections mix passing and failing shapes, so the violations are a
    # filtered subset of each selection's reports
    "verify-control-C4-s3": [
        "verify", "--family", "@control", "--matrix", "C", "--n", "4",
        "--max-size", "3", "--format", "json",
    ],
    "verify-control-C4-s3-csv": [
        "verify", "--family", "@control", "--matrix", "C", "--n", "4",
        "--max-size", "3", "--format", "csv",
    ],
    "verify-control-C4-s3-text": [
        "verify", "--family", "@control", "--matrix", "C", "--n", "4",
        "--max-size", "3", "--format", "text",
    ],
    # 20000 draws over 13498 distinct selections, 282 of their fields failing
    "verify-control-C17-s2-sampled-text": [
        "verify", "--family", "@control", "--matrix", "C", "--n", "17",
        "--max-size", "2", "--seed", "5", "--format", "text",
    ],
    # raw UTF-8 (no escapes) in the family field of every CSV line
    "verify-unicode-name-csv": [
        "verify", "--family", "@unicode", "--matrix", "C", "--n", "3",
        "--max-size", "2", "--format", "csv",
    ],
    # DOT on stdout, the check line on stderr
    "network-narayana-4-case5-check-dot": [
        "network", "--family", "narayana", "--n", "4", "--case", "5",
        "--check", "--format", "dot",
    ],
    "network-narayana-3-induced-k1-dot": [
        "network", "--family", "narayana", "--n", "3", "--k", "1",
        "--case", "5", "--hankel-induced",
    ],
    "network-schroder-3-factored-dot": [
        "network", "--family", "schroder", "--n", "3", "--case", "5",
        "--hankel-factored",
    ],
    "network-eulerian-4-case1-json": [
        "network", "--family", "eulerian", "--n", "4", "--format", "json",
    ],
    "network-fivecase-25-case3-check-dot": [
        "network", "--family", "@fivecase", "--n", "25", "--case", "3",
        "--check", "--format", "dot",
    ],
    # every weight case in one network, each layer under its own
    "network-fivecase-10-mixed-check-json": [
        "network", "--family", "@fivecase", "--n", "10",
        "--case", "1,2,3,4,5,5,4,3,2,1", "--check", "--format", "json",
    ],
    "network-fivecase-10-mixed-check-dot": [
        "network", "--family", "@fivecase", "--n", "10",
        "--case", "1,2,3,4,5,5,4,3,2,1", "--check", "--format", "dot",
    ],
    # cases 2 and 4 over narayana's s prefix, and mixed Hankel constructions
    "network-narayana-6-cases-2-4-5-check-json": [
        "network", "--family", "narayana", "--n", "6", "--case", "2,4,4,2,5,2",
        "--check", "--format", "json",
    ],
    "network-narayana-3-induced-k1-mixed-check-dot": [
        "network", "--family", "narayana", "--n", "3", "--k", "1", "--hankel-induced",
        "--case", "2,4,5,2,4,5,2", "--check", "--format", "dot",
    ],
    "network-narayana-5-factored-mixed-check-json": [
        "network", "--family", "narayana", "--n", "5", "--hankel-factored",
        "--case", "4,2,5,4,2", "--check", "--format", "json",
    ],
    # the benchmark's factored JSON job at full size (1888 arcs)
    "network-narayana-17-factored-case4-check-json": [
        "network", "--family", "narayana", "--n", "17", "--case", "4",
        "--hankel-factored", "--check", "--format", "json",
    ],
    # zero layers: a one-value case list, and an induced list of 2n + k values
    "network-narayana-0-case4-check-json": [
        "network", "--family", "narayana", "--n", "0", "--case", "4",
        "--check", "--format", "json",
    ],
    "network-schroder-0-induced-check-dot": [
        "network", "--family", "schroder", "--n", "0", "--hankel-induced",
        "--check", "--format", "dot",
    ],
    "network-eulerian-0-factored-check-json": [
        "network", "--family", "eulerian", "--n", "0", "--hankel-factored",
        "--check", "--format", "json",
    ],
    "network-narayana-0-induced-k2-cases-2-4-check-json": [
        "network", "--family", "narayana", "--n", "0", "--k", "2", "--hankel-induced",
        "--case", "2,4", "--check", "--format", "json",
    ],
    "hankel-affine-42": [
        "hankel", "--family", "@affine", "--n", "42", "--format", "json",
    ],
    # one-entry triangles: the recurrence runs no row past row 0
    "matrix-narayana-0-text": ["matrix", "--family", "narayana", "--n", "0"],
    "hankel-narayana-0-json": [
        "hankel", "--family", "narayana", "--n", "0", "--format", "json",
    ],
    # first-column coefficients up to 157 bits
    "hankel-eulerian-30-csv": [
        "hankel", "--family", "eulerian", "--n", "30", "--format", "csv",
    ],
    "matrix-affine-60-csv": [
        "matrix", "--family", "@affine", "--n", "60", "--format", "csv",
    ],
    # an empty selection: CSV prints one empty line, text prints nothing
    "matrix-narayana-2-empty-csv": [
        "matrix", "--family", "narayana", "--n", "2", "--rows", "", "--cols", "",
        "--format", "csv",
    ],
    "matrix-narayana-2-empty-text": [
        "matrix", "--family", "narayana", "--n", "2", "--rows", "", "--cols", "",
    ],
    # every antidiagonal holds one shared cell object, padded per column
    "hankel-narayana-6-text": [
        "hankel", "--family", "narayana", "--n", "6", "--format", "text",
    ],
    "hankel-schroder-6-submatrix-text": [
        "hankel", "--family", "schroder", "--n", "6", "--rows", "0,2,5",
        "--cols", "1,2,4", "--format", "text",
    ],
    "hankel-schroder-6-submatrix-csv": [
        "hankel", "--family", "schroder", "--n", "6", "--rows", "0,2,5",
        "--cols", "1,2,4", "--format", "csv",
    ],
    "matrix-neg-5-text": ["matrix", "--family", "@neg", "--n", "5"],
    "matrix-neg-5-csv": ["matrix", "--family", "@neg", "--n", "5", "--format", "csv"],
    "chars-6-text": ["chars", "--n", "6"],
    "error-unknown-family": ["hankel", "--family", "no-such-family", "--n", "2"],
    "error-factored-needs-unit-r": [
        "network", "--family", "eulerian", "--n", "3", "--hankel-factored",
    ],
    "error-size-cap": [
        "verify", "--family", "narayana", "--n", "12", "--max-size", "10",
    ],
    "error-chars-13": ["chars", "--n", "13"],
    "error-failed-condition": [
        "network", "--family", "eulerian", "--n", "3", "--case", "2", "--check",
    ],
    "error-short-family": ["hankel", "--family", "@short", "--n", "2"],
    "error-triple-label": [
        "inequality", "--family", "narayana", "--triple", "0", "1", "-1",
    ],
    "error-family-is-directory": ["hankel", "--family", "@", "--n", "2"],
    "error-malformed-family-file": ["hankel", "--family", "@malformed", "--n", "2"],
    # argparse's mutually exclusive groups
    "error-max-index-with-triple": [
        "inequality", "--family", "narayana", "--max-index", "3", "--triple", "0", "1", "2",
    ],
    "error-induced-with-factored": [
        "network", "--family", "narayana", "--n", "3", "--hankel-induced",
        "--hankel-factored",
    ],
    # flag rejections
    "error-k-without-induced": ["network", "--family", "narayana", "--n", "3", "--k", "1"],
    "error-triple-json": [
        "inequality", "--family", "narayana", "--triple", "0", "1", "2", "--format", "json",
    ],
    "error-rows-cols-show": [
        "inequality", "--family", "narayana", "--rows", "0", "1", "2",
        "--cols", "0", "1", "2", "--show",
    ],
    "error-sweep-show-json": [
        "inequality", "--family", "narayana", "--max-index", "3", "--show",
        "--format", "json",
    ],
    "error-cols-alone": ["inequality", "--family", "narayana", "--cols", "0", "1", "2"],
}


def _argv(name: str, family_dir: Path) -> list[str]:
    out = []
    for arg in CASES[name]:
        if arg == "@":
            arg = str(family_dir)
        elif arg.startswith("@"):
            doc = FAMILY_DOCS[arg[1:]]
            path = family_dir / f"{arg[1:]}.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
            arg = str(path)
        out.append(arg)
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


def _entry(rc: int, out: str, err: str, family_dir: Path) -> dict:
    out, err = (text.replace(str(family_dir), "<tmp>") for text in (out, err))
    return {
        "exit": rc,
        "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.encode("utf-8")).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_command_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SIZE_CAP_ENV, raising=False)  # the size-cap message names the cap
    monkeypatch.setenv("COLUMNS", USAGE_COLUMNS)
    rc = cli.main(_argv(name, tmp_path))
    captured = capsys.readouterr()
    assert _entry(rc, captured.out, captured.err, tmp_path) == _golden()[name]


@pytest.mark.parametrize(
    "name",
    [
        "network-eulerian-4-case1-json",
        "network-narayana-3-induced-k1-dot",
        "network-schroder-3-factored-dot",
    ],
)
def test_network_without_check_builds_no_matrix(name, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the expected matrix is built only under --check")

    monkeypatch.setattr(cli, "catalan_stieltjes", refuse)
    monkeypatch.setattr(cli, "hankel", refuse)
    rc = cli.main(_argv(name, tmp_path))
    captured = capsys.readouterr()
    assert rc == 0
    assert _entry(rc, captured.out, captured.err, tmp_path) == _golden()[name]


@pytest.mark.parametrize(
    "name", sorted(n for n, argv in CASES.items() if argv[0] == "network" and "json" in argv)
)
def test_network_json_builds_no_dict_document(name, tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("network JSON is written without to_json_dict")

    monkeypatch.setattr(PlanarNetwork, "to_json_dict", refuse)
    rc = cli.main(_argv(name, tmp_path))
    captured = capsys.readouterr()
    assert _entry(rc, captured.out, captured.err, tmp_path) == _golden()[name]


@pytest.mark.parametrize(
    "name",
    sorted(
        n for n, argv in CASES.items()
        if argv[0] in ("matrix", "hankel", "inequality") and "json" in argv
    ),
)
def test_json_documents_carry_polynomials_not_coefficient_lists(
    name, tmp_path, capsys, monkeypatch
):
    def refuse(self):
        raise AssertionError("the JSON writer renders each QPoly itself")

    monkeypatch.setattr(QPoly, "to_json", refuse)
    rc = cli.main(_argv(name, tmp_path))
    captured = capsys.readouterr()
    assert _entry(rc, captured.out, captured.err, tmp_path) == _golden()[name]


@pytest.mark.parametrize("name", sorted(n for n in CASES if "sampled" in n))
def test_sampled_sweeps_draw_without_choices_or_sample(name, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled draws call random() and getrandbits() only")

    monkeypatch.setattr(random.Random, "choices", refuse)
    monkeypatch.setattr(random.Random, "sample", refuse)
    rc = cli.main(_argv(name, tmp_path))
    captured = capsys.readouterr()
    assert _entry(rc, captured.out, captured.err, tmp_path) == _golden()[name]


def _regenerate() -> None:
    os.environ.pop(SIZE_CAP_ENV, None)
    os.environ["COLUMNS"] = USAGE_COLUMNS
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(_argv(name, Path(tmp)))
            golden[name] = _entry(rc, out.getvalue(), err.getvalue(), Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
