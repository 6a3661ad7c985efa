"""Mutation gate: every mutant below must make its named tests fail.

Run from anywhere with ``python tests/mutants.py``; it needs only the
standard library and pytest.  Each entry names a file under ``src/``, an
exact snippet in it, the snippet's replacement and the test files to run.
For each entry the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the replacement
there, and runs the named tests in that copy.  A mutant whose tests still
pass has survived: the tests no longer notice that fault.  The script exits
1 if any mutant survives, and 2 if the named tests fail on the unmutated
copy or a snippet no longer occurs exactly once, so a refactor that moves
the code must update its entry.

Pytest's ``pythonpath = ["src"]`` setting puts the copy's ``src/`` first on
the import path, so the mutated code is what the tests import.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    {
        "name": "inequality sweep digit width one byte short",
        "file": "src/qcatalan/immanant.py",
        "snippet": "bits = _width(6 * norm**3)",
        "replacement": "bits = _width(6 * norm**3) - 8",
        "tests": ["tests/test_immanant.py"],
    },
    {
        "name": "class-sum width bound takes a zero row's sum as 0",
        "file": "src/qcatalan/immanant.py",
        "snippet": "max(sum(sum(map(abs, cell.coeffs)) for cell in row), 1)",
        "replacement": "sum(sum(map(abs, cell.coeffs)) for cell in row)",
        "tests": ["tests/test_immanant.py"],
    },
    {
        "name": "class-sum width bound without the factor 2 that dominance gaps need",
        "file": "src/qcatalan/immanant.py",
        "snippet": "_width(2 * max(degrees)",
        "replacement": "_width(max(degrees)",
        "tests": ["tests/test_immanant.py"],
    },
    {
        "name": "sweep digit width taken from one row fewer than its largest submatrices",
        "file": "src/qcatalan/immanant.py",
        "snippet": "cells, bits = _packed(grid, size)",
        "replacement": "cells, bits = _packed(grid, size - 1)",
        "tests": ["tests/test_immanant.py"],
    },
    {
        "name": "class-sum DP files a cycle under the cycle type one length short",
        "file": "src/qcatalan/immanant.py",
        "snippet": "step = steps[sub.bit_count() + 1]",
        "replacement": "step = steps[sub.bit_count()]",
        "tests": ["tests/test_packing.py"],
    },
    # Swapping the two parts of a memo's key inside the memo relabels its
    # entries one to one, which changes no result; these two mutants instead
    # make a triple use a product of the wrong terms.
    {
        "name": "inequality sweep a_{2x} a_y^2 memo called with its index pair swapped",
        "file": "src/qcatalan/immanant.py",
        "snippet": "term(k, i + j)",
        "replacement": "term(i + j, k)",
        "tests": ["tests/test_immanant.py", "tests/test_packing.py"],
    },
    {
        "name": "inequality sweep a_x a_y memo keyed by the wrong pair of sums",
        "file": "src/qcatalan/immanant.py",
        "snippet": "key = (i + j, j + k)",
        "replacement": "key = (i + j, i + k)",
        "tests": ["tests/test_immanant.py", "tests/test_packing.py"],
    },
    {
        "name": "QPoly.__add__ without its trailing-zero strip",
        "file": "src/qcatalan/qpoly.py",
        "snippet": (
            "            out[i] += c\n"
            "        while out and out[-1] == 0:\n"
            "            out.pop()\n"
        ),
        "replacement": "            out[i] += c\n",
        "tests": ["tests/test_qpoly.py", "tests/test_ring_axioms.py"],
    },
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(mutant: dict, dest: Path) -> None:
    path = dest / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["snippet"])
    if count != 1:
        print(
            f"error: mutant {mutant['name']!r}: snippet occurs {count} times in "
            f"{mutant['file']}, expected once; update its entry in tests/mutants.py",
            file=sys.stderr,
        )
        sys.exit(2)
    path.write_text(text.replace(mutant["snippet"], mutant["replacement"]), encoding="utf-8")


def _tests_pass(dest: Path, tests: list[str]) -> bool:
    """True when the tests pass, False when one fails; exits 2 on any other end."""
    argv = ["-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=dest,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode not in (0, 1):
        print(proc.stdout, file=sys.stderr)
        print(f"error: pytest {' '.join(argv)} ended with code {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    return proc.returncode == 0


def main() -> int:
    # a mutant only counts as killed if its tests pass on the unmutated copy
    every_test = sorted({test for mutant in MUTANTS for test in mutant["tests"]})
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(Path(tmp))
        if not _tests_pass(Path(tmp), every_test):
            print(f"error: {' '.join(every_test)} fail without any mutant", file=sys.stderr)
            return 2
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            dest = Path(tmp)
            _copy_tree(dest)
            _apply(mutant, dest)
            survived = _tests_pass(dest, mutant["tests"])
        verdict = "SURVIVED" if survived else "killed"
        print(f"{verdict:8}  {time.perf_counter() - start:5.1f} s  {mutant['name']}")
        if survived:
            survivors.append(mutant["name"])
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
