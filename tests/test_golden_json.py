"""Golden bytes for CLI commands: sha256 of stdout and the exit code.

The corpus covers JSON, text and CSV output: every JSON command, the
``inequality`` sweep with and without ``--show``, its single-triple modes,
large ``matrix``/``hankel`` renderings, a family that fails the cubic
inequality, and CSV ``verify`` sweeps up to 6x6 and 7x7 submatrices, one of
them sampled. The hashes in ``golden/json_sha256.json`` pin the exact bytes
each command prints, so a change to arithmetic or rendering that moves one
byte fails here. After a deliberate output change, rewrite the file with
``PYTHONPATH=src python tests/test_golden_json.py`` and review the diff.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qcatalan import cli

from test_cli import CONTROL_FAMILY

GOLDEN = Path(__file__).parent / "golden" / "json_sha256.json"

# Family documents written to a file; "@name" in an argv stands for its path.
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
    # 20000 sampled draws out of more than 20000 selections
    "verify-schroder-C17-s2-sampled-csv": [
        "verify", "--family", "schroder", "--matrix", "C", "--n", "17",
        "--max-size", "2", "--seed", "12345", "--format", "csv",
    ],
}


def _argv(name: str, family_dir: Path) -> list[str]:
    out = []
    for arg in CASES[name]:
        if arg.startswith("@"):
            path = family_dir / f"{arg[1:]}.json"
            path.write_text(json.dumps(FAMILY_DOCS[arg[1:]]), encoding="utf-8")
            arg = str(path)
        out.append(arg)
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_command_bytes(name, tmp_path, capsys):
    rc = cli.main(_argv(name, tmp_path))
    out = capsys.readouterr().out.encode("utf-8")
    want = _golden()[name]
    assert {"exit": rc, "sha256": hashlib.sha256(out).hexdigest()} == want


def _regenerate() -> None:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.main(_argv(name, Path(tmp)))
            digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
            golden[name] = {"exit": rc, "sha256": digest}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
