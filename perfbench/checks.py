"""Output checkers: each job's stdout against arithmetic made apart from qcatalan.

``check_job(job, stdout, stderr, rc, documents, seed)`` raises CheckError
naming the first thing that is wrong.  The oracle evaluates polynomials at
integer points of q with plain ints (see ``oracle.py``), so a checker
never compares the program with itself or with a stored copy of its output.
"""

from __future__ import annotations

import json
import re
from itertools import combinations
from math import comb, factorial
from random import Random

import oracle as o
from workloads import BUILTINS, SAMPLE_LIMIT

POINTS = (2, 3)  # integer values of q the outputs are evaluated at


class CheckError(Exception):
    pass


def ensure(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def family_of(spec: dict, documents: dict) -> o.Family:
    name = spec["family"]
    if name in BUILTINS:
        return o.builtin_family(name)
    return o.document_family(documents[name])


def expected_matrix(fam: o.Family, kind: str, n: int, x: int) -> list[list[int]]:
    return o.cs_matrix_at(fam, n, x) if kind == "C" else o.hankel_at(fam, n, x)


def _poly_json(value) -> list[int]:
    ensure(isinstance(value, list) and o.is_canonical(value), f"bad polynomial {value!r}")
    return value


def _nonneg(coeffs) -> bool:
    return all(c >= 0 for c in coeffs)


# -- verify ---------------------------------------------------------------


def _verify_reports(spec: dict, stdout: str, fam: o.Family, total: int, exhaustive: bool):
    """Reports as (rows, cols, lam, value, q_nonneg, gap, gap_nonneg) tuples."""
    kind = "catalan_stieltjes" if spec["matrix"] == "C" else "hankel"
    reports = []
    if spec["format"] == "json":
        data = json.loads(stdout)
        header = {
            "family": fam.name, "matrix": spec["matrix"], "n": spec["n"],
            "max_size": spec["max_size"], "seed": spec["seed"], "exhaustive": exhaustive,
            "total_candidates": total,
        }
        for key, want in header.items():
            ensure(data.get(key) == want, f"{key} is {data.get(key)!r}, expected {want!r}")
        for r in data["reports"]:
            p = r["provenance"]
            ensure(p["family"] == fam.name and p["kind"] == kind, f"bad provenance {p}")
            reports.append((
                tuple(p["rows"]), tuple(p["cols"]), tuple(r["lambda"]),
                _poly_json(r["value"]), r["q_nonnegative"],
                _poly_json(r["dominance_gap"]), r["gap_nonnegative"],
            ))
        ensure(data["report_count"] == len(reports), "report_count differs from the reports")
        bad = [r for r in reports if not (r[4] and r[6])]
        ensure(data["ok"] == (not bad), "ok flag disagrees with the reports")
        ensure(len(data["violations"]) == len(bad), "violations disagree with the reports")
        return reports
    lines = stdout.split("\n")
    ensure(lines[0] == "family,kind,rows,cols,lambda,value,q_nonnegative,dominance_gap,"
           "gap_nonnegative", "bad CSV header")
    ensure(lines[-1] == "", "CSV does not end with a newline")
    flags = {"true": True, "false": False}

    def ints(text):
        return tuple(int(v) for v in text.split("|"))

    for line in lines[1:-1]:
        f = line.split(",")
        ensure(len(f) == 9 and f[0] == fam.name and f[1] == kind, f"bad CSV row {line!r}")
        reports.append((ints(f[2]), ints(f[3]), ints(f[4]), o.parse_poly(f[5]),
                        flags[f[6]], o.parse_poly(f[7]), flags[f[8]]))
    return reports


def check_verify(spec: dict, stdout: str, fam: o.Family, rng: Random) -> None:
    size = spec["n"] + 1
    top = min(spec["max_size"], size)
    total = sum(comb(size, s) ** 2 for s in range(1, top + 1))
    exhaustive = total <= SAMPLE_LIMIT
    reports = _verify_reports(spec, stdout, fam, total, exhaustive)
    mats = {x: expected_matrix(fam, spec["matrix"], spec["n"], x) for x in POINTS}

    selections = []
    i = 0
    while i < len(reports):
        rows, cols = reports[i][0], reports[i][1]
        s = len(rows)
        shapes = o.partitions(s)
        group = reports[i:i + len(shapes)]
        ensure([g[2] for g in group] == shapes and all(g[:2] == (rows, cols) for g in group),
               f"reports of selection {rows}x{cols} do not list every shape once")
        selections.append(group)
        i += len(shapes)

    chosen = [(g[0][0], g[0][1]) for g in selections]
    if exhaustive:
        want = [(r, c) for s in range(1, top + 1)
                for r in combinations(range(size), s) for c in combinations(range(size), s)]
        ensure(chosen == want, "exhaustive sweep does not list every selection once, in order")
    else:
        ensure(len(chosen) == SAMPLE_LIMIT, f"sampled {len(chosen)} selections, not {SAMPLE_LIMIT}")
        for rows, cols in chosen:
            ensure(1 <= len(rows) <= top and len(rows) == len(cols), f"bad selection {rows}")
            for sel in (rows, cols):
                ensure(list(sel) == sorted(set(sel)) and 0 <= sel[0] and sel[-1] < size,
                       f"bad selection {sel}")

    sample = set(rng.sample(range(len(selections)), min(24, len(selections))))
    for idx, group in enumerate(selections):
        rows, cols = group[0][0], group[0][1]
        s = len(rows)
        for rep in group:
            ensure(rep[4] == _nonneg(rep[3]) and rep[6] == _nonneg(rep[5]),
                   f"q-nonnegative flags of {rows}x{cols} {rep[2]} disagree with the values")
            if spec["family"] in BUILTINS:
                ensure(rep[4] and rep[6], f"builtin sweep reports a violation at {rows}x{cols}")
        for x, full in mats.items():
            m = [[full[r][c] for c in cols] for r in rows]
            values = [o.poly_eval(rep[3], x) for rep in group]
            degrees = [o.hook_degree(rep[2]) for rep in group]
            diag = 1
            for k in range(s):
                diag *= m[k][k]
            ensure(sum(d * v for d, v in zip(degrees, values)) == factorial(s) * diag,
                   f"sum of deg*immanant at q={x} fails on {rows}x{cols}")
            det = values[-1]  # the sign shape (1,...,1) is listed last
            for rep, d, v in zip(group, degrees, values):
                ensure(o.poly_eval(rep[5], x) == v - d * det,
                       f"dominance gap of {rows}x{cols} {rep[2]} is wrong at q={x}")
            if idx in sample:
                want_det, want_per = o.perm_sums(m)
                ensure(det == want_det and values[0] == want_per,
                       f"determinant/permanent of {rows}x{cols} is wrong at q={x}")


# -- matrix and hankel --------------------------------------------------------


def _grid(spec: dict, stdout: str, fam: o.Family) -> list[list[list[int]]]:
    fmt = spec["format"]
    if fmt == "json":
        data = json.loads(stdout)
        kind = "catalan_stieltjes" if spec["command"] == "matrix" else "hankel"
        idx = list(range(spec["n"] + 1))
        ensure(data["kind"] == kind and data["family"] == fam.name, "bad matrix header")
        ensure(data["rows"] == idx and data["cols"] == idx, "bad matrix indices")
        return [[_poly_json(p) for p in row] for row in data["entries"]]
    ensure(stdout.endswith("\n"), "output does not end with a newline")
    lines = stdout[:-1].split("\n")
    if fmt == "csv":
        return [[o.parse_poly(c) for c in line.split(",")] for line in lines]
    return [[o.parse_poly(c) for c in line.split()] for line in lines]


def check_matrix(spec: dict, stdout: str, fam: o.Family) -> None:
    n = spec["n"]
    grid = _grid(spec, stdout, fam)
    ensure(len(grid) == n + 1 and all(len(row) == n + 1 for row in grid),
           f"matrix is not {n + 1}x{n + 1}")
    hankel = spec["command"] == "hankel"
    if hankel:
        a = grid[0] + [grid[i][n] for i in range(1, n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                ensure(grid[i][j] == a[i + j], f"H[{i}][{j}] is not a[{i + j}]")
    else:
        a = [row[0] for row in grid]
        for i in range(n + 1):
            ensure(all(not grid[i][j] for j in range(i + 1, n + 1)), f"row {i} is not triangular")
            ensure(grid[i][i] == o.diagonal_product(fam, i),
                   f"C[{i}][{i}] is not r_0 ... r_{i - 1}")
    if spec["family"] in BUILTINS:
        for k, poly in enumerate(a):
            ensure(poly == o.closed_form(spec["family"], k),
                   f"a_{k} differs from the closed form of the {spec['family']} polynomial")
    for x in POINTS:
        want = o.hankel_at(fam, n, x) if hankel else o.cs_matrix_at(fam, n, x)
        for i in range(n + 1):
            got = [o.poly_eval(p, x) for p in grid[i]]
            ensure(got == want[i], f"row {i} is wrong at q={x}")


# -- inequality -------------------------------------------------------------------


def _form_331(a, t) -> int:
    """Imm_(2,1) - 2 det of the 3x3 Hankel submatrix on rows = cols = t.

    On S_3, chi^(2,1)(sigma) = fixed points - 1, so each permutation
    contributes (fix - 1 - 2 sign) times its diagonal product.
    """
    total = 0
    for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)):
        fixed = sum(1 for i, p in enumerate(perm) if i == p)
        sign = 1 if fixed != 1 else -1
        prod = 1
        for i, p in enumerate(perm):
            prod *= a[t[i] + t[p]]
        total += (fixed - 1 - 2 * sign) * prod
    return total


def _form_332(a, i, j, k) -> int:
    return (a[2 * i] * a[j + k] ** 2 + a[2 * j] * a[i + k] ** 2 + a[2 * k] * a[i + j] ** 2
            - 3 * a[i + j] * a[j + k] * a[k + i])


_SHOW = re.compile(r"triple=\((\d+),(\d+),(\d+)\) q_nonnegative=(True|False) "
                   r"value_332=(\S+) value_331_diagonal=(\S+)")


def check_inequality(spec: dict, stdout: str, fam: o.Family) -> None:
    top = spec["max_index"]
    triples = [(i, j, k) for i in range(top + 1) for j in range(i + 1, top + 1)
               for k in range(j + 1, top + 1)]
    rows = []
    if spec["format"] == "json":
        data = json.loads(stdout)
        ensure(data["family"] == fam.name and data["max_index"] == top, "bad header")
        for e in data["entries"]:
            rows.append((tuple(e["triple"]), _poly_json(e["value_332"]),
                         _poly_json(e["value_331_diagonal"]), e["q_nonnegative"]))
        all_ok = data["ok"]
    else:
        lines = stdout.split("\n")
        ensure(lines[-1] == "", "output does not end with a newline")
        for line in lines[:-2]:
            m = _SHOW.fullmatch(line)
            ensure(m is not None, f"bad line {line!r}")
            rows.append((tuple(int(v) for v in m.group(1, 2, 3)), o.parse_poly(m[5]),
                         o.parse_poly(m[6]), m[4] == "True"))
        all_ok = all(r[3] for r in rows)
        word = "all" if all_ok else "NOT all"
        ensure(lines[-2] == f"checked {len(rows)} triples: {word} q-nonnegative", "bad summary")
    ensure([r[0] for r in rows] == triples, "triples missing, repeated or out of order")
    ensure(all_ok == all(r[3] for r in rows), "ok flag disagrees with the entries")
    for x in POINTS:
        a = [row[0] for row in o.triangle_at(fam, 2 * top, x)]
        if spec["family"] in BUILTINS and x == POINTS[0]:
            ensure(a == [o.poly_eval(o.closed_form(spec["family"], k), x) for k in range(2 * top + 1)],
                   "the recurrence and the closed form disagree")
        for t, v332, v331, ok in rows:
            ensure(o.poly_eval(v332, x) == _form_332(a, *t), f"value_332 of {t} is wrong at q={x}")
            ensure(o.poly_eval(v331, x) == _form_331(a, t), f"value_331 of {t} is wrong at q={x}")
    for t, v332, v331, ok in rows:
        ensure(ok == (_nonneg(v332) and _nonneg(v331)), f"flag of {t} disagrees with its values")
        if spec["family"] in BUILTINS:
            ensure(ok, f"builtin family fails the inequality at {t}")


# -- network --------------------------------------------------------------------


_WHAT = {"layered": "layered network", "induced": "induced Hankel network",
         "factored": "factored Hankel network"}
_DOT_NODE = re.compile(r'  (\w+) \[pos="(-?\d+),(-?\d+)!"\];')
_DOT_ARC = re.compile(r'  (\w+) -> (\w+) \[label="([^"]*)"\];')


def _boundary(spec: dict) -> tuple[list[tuple], list[tuple]]:
    """Sources and sinks as (kind, level, height), from the documented conventions."""
    n, k = spec["n"], spec["k"]
    if spec["kind"] == "layered":
        return ([("P", 0, h) for h in range(n, -1, -1)], [("P", n, h) for h in range(n, -1, -1)])
    if spec["kind"] == "induced":
        return ([("P", n + k - i, n + k - i) for i in range(n + 1)],
                [("P", n + k + j, n + k + j) for j in range(n + 1)])
    return ([("P", 0, h) for h in range(n, -1, -1)], [("Pbar", 0, h) for h in range(n, -1, -1)])


def check_network(spec: dict, stdout: str, stderr: str, fam: o.Family) -> None:
    n = spec["n"]
    line = f"check: pass ({_WHAT[spec['kind']]} matches the matrix for {fam.name}, n={n})\n"
    ensure(stderr == line, f"unexpected check line {stderr!r}")
    sources, sinks = _boundary(spec)
    if spec["format"] == "json":
        data = json.loads(stdout)

        def vert(v):
            return (v["kind"], v["level"], v["height"])

        arcs = [(vert(a["tail"]), vert(a["head"]), _poly_json(a["weight"])) for a in data["arcs"]]
        ensure([vert(v) for v in data["sources"]] == sources, "sources differ from the convention")
        ensure([vert(v) for v in data["sinks"]] == sinks, "sinks differ from the convention")
    else:
        ensure(stdout.startswith("digraph {\n") and stdout.endswith("}\n"), "not a DOT digraph")
        kinds = {"P": "P", "Q": "Q", "Pb": "Pbar", "Qb": "Qbar"}

        def vert(name):
            kind, height, level = name.rsplit("_", 2)
            return (kinds[kind], int(level), int(height))

        arcs = []
        for text in stdout.split("\n")[1:-2]:
            m = _DOT_ARC.fullmatch(text)
            if m:
                arcs.append((vert(m[1]), vert(m[2]), o.parse_poly(m[3])))
            else:
                ensure(_DOT_NODE.fullmatch(text) is not None, f"bad DOT line {text!r}")
    for tail, head, w in arcs:
        ensure(_nonneg(w), f"arc {tail} -> {head} has weight {w} with a negative coefficient")
    matrix_kind = "C" if spec["kind"] == "layered" else "H"
    for x in POINTS:
        got = o.path_sums([(t, h, o.poly_eval(w, x)) for t, h, w in arcs], sources, sinks, x)
        ensure(got == expected_matrix(fam, matrix_kind, n, x),
               f"path sums at q={x} differ from the recurrence matrix")


# -- dispatch ---------------------------------------------------------------------


def check_job(job: dict, stdout: str, stderr: str, rc, documents: dict, seed: int) -> None:
    spec = job["spec"]
    ensure(rc == 0, f"exit code {rc!r}")
    fam = family_of(spec, documents)
    command = spec["command"]
    try:
        if command == "network":
            check_network(spec, stdout, stderr, fam)
            return
        ensure(stderr == "", f"unexpected stderr {stderr[:200]!r}")
        if command == "verify":
            check_verify(spec, stdout, fam, Random(f"{seed}:{job['name']}"))
        elif command in ("matrix", "hankel"):
            check_matrix(spec, stdout, fam)
        else:
            check_inequality(spec, stdout, fam)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"unreadable output: {type(exc).__name__}: {exc}") from None
