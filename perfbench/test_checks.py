"""The checkers must accept qcatalan's real output and reject a corrupted copy.

    python3 perfbench/test_checks.py

Each test runs one small job through ``qcatalan.cli.main`` in this process,
checks the untouched output, then changes one coefficient, drops one
report or alters one arc weight and expects a CheckError.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from qcatalan import cli  # noqa: E402

import oracle  # noqa: E402
import workloads as w  # noqa: E402
from checks import CheckError, check_job  # noqa: E402
from run import check_run  # noqa: E402


def run(job: dict) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(job["argv"])
    return out.getvalue(), err.getvalue(), rc


def bumped(text: str, degree: int) -> str:
    """The rendered polynomial with one coefficient raised by one."""
    coeffs = oracle.parse_poly(text)
    coeffs[degree] += 1
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            mag = "" if abs(c) == 1 and i else str(abs(c))
            var = "" if i == 0 else "q" if i == 1 else f"q^{i}"
            terms.append(("-" if c < 0 else "+") + mag + var)
    return "".join(terms).lstrip("+") or "0"


class CheckerTest(unittest.TestCase):
    documents: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        _, cls.documents = w.build("network", 7, cls.tmp)
        cls.fivecase = next(iter(cls.documents))
        _, more = w.build("moments", 7, cls.tmp)
        cls.documents.update(more)
        cls.affine = next(iter(more))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def accept(self, job):
        out, err, rc = run(job)
        check_job(job, out, err, rc, self.documents, 7)
        return out, err, rc

    def reject(self, job, out, err, rc=0):
        with self.assertRaises(CheckError):
            check_job(job, out, err, rc, self.documents, 7)

    # -- verify -------------------------------------------------------------

    def test_verify_json_coefficient_and_dropped_report(self):
        job = w._verify("j", "narayana", "H", 3, 3, "json")
        out, err, rc = self.accept(job)
        data = json.loads(out)
        data["reports"][40]["value"][0] += 1
        self.reject(job, json.dumps(data), err)
        data = json.loads(out)
        del data["reports"][40]
        data["report_count"] -= 1
        self.reject(job, json.dumps(data), err)

    def test_verify_json_gap_coefficient(self):
        job = w._verify("j", "schroder", "C", 4, 3, "json")
        out, err, rc = self.accept(job)
        data = json.loads(out)
        rep = next(r for r in data["reports"] if r["dominance_gap"])
        rep["dominance_gap"][-1] += 1
        self.reject(job, json.dumps(data), err)

    def test_verify_csv_coefficient_and_dropped_line(self):
        job = w._verify("j", "eulerian", "H", 3, 4, "csv")
        out, err, rc = self.accept(job)
        lines = out.split("\n")
        fields = lines[50].split(",")
        fields[5] = bumped(fields[5], 0)
        self.reject(job, "\n".join(lines[:50] + [",".join(fields)] + lines[51:]), err)
        self.reject(job, "\n".join(lines[:50] + lines[51:]), err)

    def test_verify_sampled_dropped_report(self):
        job = w._verify("j", "narayana", "C", 17, 2, "csv", seed=5)
        out, err, rc = self.accept(job)
        lines = out.split("\n")
        self.reject(job, "\n".join(lines[:1000] + lines[1001:]), err)

    def test_exit_code_is_checked(self):
        job = w._verify("j", "narayana", "H", 2, 2, "json")
        out, err, _ = self.accept(job)
        self.reject(job, out, err, rc=5)

    # -- matrix, hankel, inequality -------------------------------------------

    def test_matrix_formats_reject_one_coefficient(self):
        for fmt in ("text", "csv", "json"):
            with self.subTest(fmt=fmt):
                job = w._matrix("j", "matrix", "eulerian", 8, fmt)
                out, err, rc = self.accept(job)
                if fmt == "json":
                    data = json.loads(out)
                    data["entries"][6][2][1] += 1
                    bad = json.dumps(data)
                else:
                    a6 = "1+57q+302q^2+302q^3+57q^4+q^5"
                    bad = out.replace(a6, bumped(a6, 1), 1)
                self.reject(job, bad, err)

    def test_custom_matrix_below_the_first_column(self):
        job = w._matrix("j", "matrix", self.affine, 9, "csv")
        out, err, rc = self.accept(job)
        rows = [line.split(",") for line in out.splitlines()]
        rows[7][3] = bumped(rows[7][3], 0)
        self.reject(job, "\n".join(",".join(r) for r in rows) + "\n", err)

    def test_hankel_entry(self):
        job = w._matrix("j", "hankel", "schroder", 5, "json")
        out, err, rc = self.accept(job)
        data = json.loads(out)
        data["entries"][5][5][3] += 1
        self.reject(job, json.dumps(data), err)

    def test_inequality_formats(self):
        job = w._inequality("j", "narayana", 5, "json")
        out, err, rc = self.accept(job)
        data = json.loads(out)
        data["entries"][3]["value_331_diagonal"][-1] += 1
        self.reject(job, json.dumps(data), err)
        data = json.loads(out)
        del data["entries"][3]
        self.reject(job, json.dumps(data), err)
        job = w._inequality("j", "eulerian", 4, "text")
        out, err, rc = self.accept(job)
        line = out.split("\n")[2]
        head, _, rest = line.partition("value_332=")
        value, _, tail = rest.partition(" ")
        self.reject(job, out.replace(line, f"{head}value_332={bumped(value, -1)} {tail}"), err)

    # -- network ----------------------------------------------------------------

    def test_network_json_arc_weight(self):
        job = w._network_job("j", "narayana", 5, "2", fmt="json")
        out, err, rc = self.accept(job)
        data = json.loads(out)
        src = data["sources"][0]
        arc = next(a for a in data["arcs"] if a["tail"] == src and a["weight"])
        arc["weight"] = arc["weight"] + [1]
        self.reject(job, json.dumps(data), err)
        data = json.loads(out)
        arc = next(a for a in data["arcs"] if a["weight"])
        arc["weight"] = [-1] + arc["weight"][1:]
        self.reject(job, json.dumps(data), err)

    def test_network_dot_and_mixed_cases(self):
        job = w._network_job("j", self.fivecase, 6, "3,1,5,2,4,3", fmt="dot")
        out, err, rc = self.accept(job)
        lines = out.split("\n")
        i = next(k for k, line in enumerate(lines) if "-> P_6_6" in line)
        head, _, label = lines[i].partition('label="')
        label, _, tail = label.partition('"')
        lines[i] = f'{head}label="{bumped(label, 0)}"{tail}'
        self.reject(job, "\n".join(lines), err)

    def test_network_induced_and_factored(self):
        for kind in ("induced", "factored"):
            with self.subTest(kind=kind):
                job = w._network_job("j", "narayana", 3, "2", kind=kind, k=1, fmt="json")
                out, err, rc = self.accept(job)
                data = json.loads(out)
                data["arcs"][len(data["arcs"]) // 2]["weight"] = [0, 0, 0, 1]
                self.reject(job, json.dumps(data), err)
                self.reject(job, out, err.replace("pass", "fail"))

    # -- a run's bookkeeping ----------------------------------------------------

    def test_other_bytes_in_a_later_pass_fail_that_timing(self):
        outdir = self.tmp / "quick"
        outdir.mkdir(exist_ok=True)
        jobs, documents = w.build("network", 3, outdir)
        job = w.smallest(jobs)
        out, err, rc = run(job)
        (outdir / "0.out").write_text(out)
        (outdir / "0.err").write_text(err)
        res = {"jobs": [job["name"]], "rcs": [[0, 0, 0]], "digests": [["a", "a", "b"]]}
        self.assertEqual(check_run("network", 3, outdir, res)[:2], (3, 1))
        (outdir / "0.out").write_text(out[:-2])
        self.assertEqual(check_run("network", 3, outdir, res)[:2], (3, 3))


if __name__ == "__main__":
    unittest.main()
