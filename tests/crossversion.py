"""Run the golden corpus and the sampled-draw oracle under every local CPython >= 3.10.

    python tests/crossversion.py [PYTHON ...]

With no arguments the runner looks for interpreters itself: the one running
it, each ``python3.N`` on ``PATH``, and each ``versions/*/bin/python3`` under
pyenv's root (``$PYENV_ROOT``, else ``~/.pyenv``).  It keeps one CPython of
each version from 3.10 on.  Under each it runs, in a child process:

* every case of the golden corpus (``test_golden_json.CASES``), as
  ``test_json_command_bytes`` runs it: stdout, stderr and exit code hashed
  and compared with ``tests/golden/json_sha256.json``;
* every case of ``test_immanant.test_sampled_selections_match_per_draw_weights``,
  the sampled draws held to a ``Random.choices``/``Random.sample`` loop.

Only the standard library is needed, here and in each child: the child puts a
stub ``pytest`` module in place, whose ``mark.parametrize`` records its cases
on the test function, so the test modules import where pytest is missing.  The
children write no bytecode.  Pytest does not collect this file.

Prints one line per version and each failing case, and exits 1 if any case
fails on any version, 2 if no interpreter was found.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = (
    "import platform, sys; "
    "print(platform.python_implementation(), *sys.version_info[:3])"
)


def _candidates() -> list[str]:
    found = [sys.executable]
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isdir(folder):
            found += [
                os.path.join(folder, name)
                for name in sorted(os.listdir(folder))
                if re.fullmatch(r"python3\.\d+", name)
            ]
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found += map(str, sorted(pyenv.glob("versions/*/bin/python3")))
    return found


def _interpreters(paths: list[str]) -> dict[tuple[int, ...], str]:
    """Version -> the first of ``paths`` that runs as that CPython, 3.10 or later."""
    out: dict[tuple[int, ...], str] = {}
    for path in paths:
        if shutil.which(path) is None:
            continue
        proc = subprocess.run([path, "-c", PROBE], capture_output=True, text=True)
        words = proc.stdout.split()
        if proc.returncode or len(words) != 4 or words[0] != "CPython":
            continue
        version = tuple(map(int, words[1:]))
        if version >= (3, 10):
            out.setdefault(version, path)
    return dict(sorted(out.items()))


# -- the child: runs under the interpreter under test -----------------


def _stub_pytest() -> None:
    import types

    def parametrize(names, values, **kwargs):
        def record(func):
            func.__dict__.setdefault("cases", []).append((names, list(values)))
            return func

        return record

    def passthrough(*args, **kwargs):
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]
        return lambda func: func

    stub = types.ModuleType("pytest")
    stub.mark = types.SimpleNamespace(parametrize=parametrize)
    stub.fixture = stub.hookimpl = passthrough
    sys.modules["pytest"] = stub


def _golden_failures() -> tuple[int, list[str]]:
    import io
    import tempfile
    from contextlib import redirect_stderr, redirect_stdout

    import test_golden_json as golden
    from qcatalan import cli
    from qcatalan.immanant import SIZE_CAP_ENV

    os.environ.pop(SIZE_CAP_ENV, None)  # the size-cap message names the cap
    os.environ["COLUMNS"] = golden.USAGE_COLUMNS
    want = golden._golden()
    failures = []
    for name in sorted(golden.CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(golden._argv(name, Path(tmp)))
            got = golden._entry(rc, out.getvalue(), err.getvalue(), Path(tmp))
        if got != want.get(name):
            failures.append(name)
    return len(golden.CASES), failures


def _draw_failures() -> tuple[int, list[str]]:
    from test_immanant import test_sampled_selections_match_per_draw_weights as test

    ((names, cases),) = test.cases
    failures = []
    for case in cases:
        try:
            test(*case)
        except AssertionError:
            failures.append(f"{names} = {case}")
    return len(cases), failures


def _child() -> None:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    _stub_pytest()
    golden_total, golden_failed = _golden_failures()
    draw_total, draw_failed = _draw_failures()
    json.dump(
        {
            "golden": [golden_total, golden_failed],
            "draws": [draw_total, draw_failed],
        },
        sys.stdout,
    )


# -- the parent --------------------------------------------------------


def main(argv: list[str]) -> int:
    interpreters = _interpreters(argv or _candidates())
    if not interpreters:
        print("error: no CPython 3.10 or later found", file=sys.stderr)
        return 2
    failed = False
    for version, path in interpreters.items():
        label = ".".join(map(str, version))
        proc = subprocess.run(
            [path, "-B", __file__, "--child"], capture_output=True, text=True, cwd=ROOT
        )
        if proc.returncode:
            failed = True
            print(f"{label}: the run ended with code {proc.returncode} ({path})")
            print("\n".join(proc.stderr.splitlines()[-20:]))
            continue
        result = json.loads(proc.stdout)
        parts = []
        for what in ("golden", "draws"):
            total, failures = result[what]
            parts.append(f"{what} {total - len(failures)} of {total}")
            failed = failed or bool(failures)
        print(f"{label}: " + ", ".join(parts) + f" ({path})")
        for what in ("golden", "draws"):
            for case in result[what][1]:
                print(f"  {what} failed: {case}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        sys.exit(main(sys.argv[1:]))
