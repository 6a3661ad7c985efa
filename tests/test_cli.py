"""Unit tests for the command-line interface and its exit codes."""

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import importlib

import pytest

from qcatalan import cli, errors, qpoly
from qcatalan.csmatrix import catalan_like, catalan_stieltjes, hankel
from qcatalan.errors import MissingWitness, NegativeWeight, RequiresUnitGamma
from qcatalan.families import BUILTIN_NAMES, WEIGHT_CASES, builtin, load_family
from qcatalan.immanant import ImmanantReport, SweepResult, inequality_331, positivity_sweep
from qcatalan.network import (
    Arc,
    PlanarNetwork,
    Vertex,
    build_cs_network,
    build_hankel_factored,
    build_hankel_network,
)
from qcatalan.qpoly import ONE, QPoly, ZERO

from oracles import (
    matrix_json,
    stdout_of,
    sweep_csv_by_report,
    sweep_json_by_report,
    sweep_text_by_report,
    weighted_path_poly,
)

CONTROL_FAMILY = {
    "name": "control",
    "r": {"tail": {"constant": [1]}},
    "s": {"tail": {"constant": []}},
    "t": {"tail": {"constant": [1]}},
    "witness_b": {"tail": {"constant": []}},
    "witness_c": {"tail": {"constant": []}},
}


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- matrix / hankel ---------------------------------------------------


def test_matrix_csv(capsys):
    rc, out, err = run(
        capsys, "matrix", "--family", "narayana", "--n", "2", "--format", "csv"
    )
    assert rc == 0
    assert out == "1,0,0\nq,1,0\nq+q^2,1+2q,1\n"
    assert err == ""


def test_matrix_text_grid(capsys):
    rc, out, _ = run(capsys, "matrix", "--family", "narayana", "--n", "2")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["1", "0", "0"]
    assert lines[2].split() == ["q+q^2", "1+2q", "1"]
    # columns are right-justified to a common width
    assert len(set(map(len, lines))) == 1


def test_matrix_json(capsys):
    rc, out, _ = run(
        capsys, "matrix", "--family", "narayana", "--n", "1", "--format", "json"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc == {
        "kind": "catalan_stieltjes",
        "family": "narayana",
        "rows": [0, 1],
        "cols": [0, 1],
        "entries": [[[1], []], [[0, 1], [1]]],
    }


def test_matrix_submatrix_selection(capsys):
    rc, out, _ = run(
        capsys,
        "matrix",
        "--family",
        "narayana",
        "--n",
        "2",
        "--rows",
        "1,2",
        "--cols",
        "0,1",
        "--format",
        "csv",
    )
    assert rc == 0
    assert out == "q,1\nq+q^2,1+2q\n"


def test_matrix_rows_without_cols_is_config_error(capsys):
    rc, _, err = run(
        capsys, "matrix", "--family", "narayana", "--n", "2", "--rows", "0,1"
    )
    assert rc == 2
    assert "error:" in err


def test_matrix_rows_that_are_not_ints_is_config_error(capsys):
    rc, out, err = run(
        capsys, "matrix", "--family", "narayana", "--n", "2", "--rows", "0,x", "--cols", "0,1"
    )
    assert (rc, out) == (2, "")
    assert err == "error: --rows must be a comma-separated int list, got '0,x'\n"


def test_hankel_csv(capsys):
    rc, out, _ = run(
        capsys, "hankel", "--family", "schroder", "--n", "1", "--format", "csv"
    )
    assert rc == 0
    assert out == "1,1+q\n1+q,1+3q+2q^2\n"


def test_negative_n_is_config_error(capsys):
    rc, _, err = run(capsys, "matrix", "--family", "narayana", "--n", "-1")
    assert rc == 2
    assert "error:" in err


# -- family resolution -------------------------------------------------


def test_unknown_family_is_family_error(capsys):
    rc, _, err = run(capsys, "matrix", "--family", "nosuch", "--n", "1")
    assert rc == 3
    assert "nosuch" in err


def test_family_document_from_file(tmp_path, capsys):
    doc = dict(CONTROL_FAMILY)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(
        capsys, "matrix", "--family", str(path), "--n", "2", "--format", "csv"
    )
    assert rc == 0
    assert out == "1,0,0\n0,1,0\n1,0,1\n"


def test_family_document_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "r": {}}))
    rc, _, err = run(capsys, "matrix", "--family", str(path), "--n", "1")
    assert rc == 3
    assert "error:" in err


MALFORMED_FAMILY_FILES = {
    "deeply-nested": b"[" * 100000 + b"]" * 100000,
    "long-integer": (
        '{"name": "x", "r": {"prefix": [[1%s]]}, "s": {"prefix": [[0]]}, '
        '"t": {"prefix": [[1]]}}' % ("0" * 5000)
    ).encode(),
    "not-utf8": b'{"name": "\xff\xfe"}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FAMILY_FILES))
def test_malformed_family_file_is_schema_error(tmp_path, capsys, case):
    path = tmp_path / "family.json"
    path.write_bytes(MALFORMED_FAMILY_FILES[case])
    rc, out, err = run(capsys, "matrix", "--family", str(path), "--n", "2")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: family ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_family_document_negative_coefficient(tmp_path, capsys):
    doc = {
        "name": "neg",
        "r": {"tail": {"constant": [1]}},
        "s": {"prefix": [[-1]], "tail": {"constant": [1]}},
        "t": {"tail": {"constant": [1]}},
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "matrix", "--family", str(path), "--n", "1")
    assert rc == 3


@pytest.mark.parametrize(
    "name,bad", [("a,b\nc", ","), ("a,b", ","), ('say "hi"', '"'), ("two\nlines", "\n"),
                 ("a\rb", "\r")],
)
def test_family_name_that_would_break_csv_is_family_error(tmp_path, capsys, name, bad):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(dict(CONTROL_FAMILY, name=name)))
    rc, out, err = run(
        capsys, "verify", "--family", str(path), "--n", "2", "--max-size", "1",
        "--format", "csv",
    )
    assert rc == 3
    assert out == ""
    assert err.startswith(f"error: family name {name!r} contains {bad!r}; ")
    assert err.count("\n") == 1


def test_family_with_exactly_the_needed_terms(tmp_path, capsys):
    # row 3 needs r_0..r_2, s_0..s_2 and t_1..t_2 only
    doc = {
        "name": "three-terms",
        "r": {"prefix": [[1], [1, 1], [2]]},
        "s": {"prefix": [[0, 1], [1], [1, 2]]},
        "t": {"prefix": [[1], [0, 1], [3]]},
    }
    path = tmp_path / "three.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(
        capsys, "matrix", "--family", str(path), "--n", "3", "--format", "csv"
    )
    assert rc == 0, err
    assert out.splitlines()[3] == "1+2q+q^3,2+2q+2q^2,2+5q+3q^2,2+2q"
    rc, _, err = run(capsys, "matrix", "--family", str(path), "--n", "4")
    assert rc == 3
    assert err.startswith("error: s_3 of family 'three-terms' is unavailable: ")


def test_hankel_of_a_family_with_exactly_the_needed_terms(tmp_path, capsys):
    # a_{2n} reads r_0..r_{n-1}, s_0..s_{n-1} and t_1..t_n only, so three
    # explicit terms of each serve the Hankel matrix up to n = 3
    doc = {
        "name": "three-terms",
        "r": {"prefix": [[1], [1, 1], [2]]},
        "s": {"prefix": [[0, 1], [1], [1, 2]]},
        "t": {"prefix": [[1], [0, 1], [3]]},
    }
    path = tmp_path / "three.json"
    path.write_text(json.dumps(doc))
    # the oracle also walks paths that never return to height 0, so it gets
    # tails; no path counted in a_0..a_6 reaches them
    tail = {"tail": {"constant": [5, 7]}}
    padded = {"name": "padded", **{key: {**doc[key], **tail} for key in "rst"}}
    a = [weighted_path_poly(load_family(padded), k, 0) for k in range(7)]
    for n in (2, 3):
        rc, out, err = run(
            capsys, "hankel", "--family", str(path), "--n", str(n), "--format", "csv"
        )
        assert rc == 0, err
        rows = [",".join(str(a[i + j]) for j in range(n + 1)) for i in range(n + 1)]
        assert out == "\n".join(rows) + "\n"
    rc, _, err = run(capsys, "hankel", "--family", str(path), "--n", "4")
    assert rc == 3
    assert err.startswith("error: s_3 of family 'three-terms' is unavailable: ")


# -- network -----------------------------------------------------------


def test_network_check_passes_for_all_constructions(capsys):
    for extra in ([], ["--hankel-induced", "--k", "1"], ["--hankel-factored"]):
        rc, out, err = run(
            capsys,
            "network",
            "--family",
            "narayana",
            "--n",
            "2",
            "--case",
            "4",
            "--check",
            *extra,
        )
        assert rc == 0, extra
        assert out.startswith("check: pass")
        assert err == ""


@pytest.mark.parametrize("kind", [[], ["--hankel-factored"]], ids=["layered", "factored"])
def test_network_k_without_hankel_induced_is_config_error(capsys, kind):
    rc, out, err = run(
        capsys,
        "network",
        "--family",
        "narayana",
        "--n",
        "2",
        "--case",
        "4",
        "--k",
        "3",
        "--check",
        *kind,
    )
    assert (rc, out) == (2, "")
    assert err == "error: --k applies only to --hankel-induced, got --k 3\n"


def test_network_check_passes_at_n_0_for_every_builtin_and_construction(capsys):
    for family in ("narayana", "schroder", "eulerian"):
        for extra in ([], ["--hankel-induced"], ["--hankel-factored"]):
            rc, out, err = run(
                capsys, "network", "--family", family, "--n", "0", "--check", *extra
            )
            assert rc == 0, (family, extra)
            assert out.startswith("check: pass") and out.endswith(f"{family}, n=0)\n")
            assert err == ""


def test_network_dot_output_with_check_on_stderr(capsys):
    rc, out, err = run(
        capsys,
        "network",
        "--family",
        "narayana",
        "--n",
        "1",
        "--case",
        "2",
        "--check",
        "--format",
        "dot",
    )
    assert rc == 0
    assert out.startswith("digraph {")
    assert "check: pass" in err


def test_network_json_output(capsys):
    rc, out, _ = run(
        capsys,
        "network",
        "--family",
        "schroder",
        "--n",
        "1",
        "--case",
        "5",
        "--format",
        "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"vertices", "arcs", "sources", "sinks"}
    assert len(doc["vertices"]) == 6
    assert len(doc["arcs"]) == 7


def test_network_case_list_must_match_layers(capsys):
    rc, out, _ = run(
        capsys,
        "network",
        "--family",
        "narayana",
        "--n",
        "3",
        "--case",
        "2,4,5",
        "--check",
    )
    assert rc == 0
    rc, _, err = run(
        capsys,
        "network",
        "--family",
        "narayana",
        "--n",
        "3",
        "--case",
        "2,4",
        "--check",
    )
    assert rc == 2
    rc, _, err = run(
        capsys, "network", "--family", "narayana", "--n", "2", "--case", "9"
    )
    assert rc == 2


def test_network_case_list_of_non_ints_is_config_error(capsys):
    rc, out, err = run(capsys, "network", "--family", "narayana", "--n", "2", "--case", "1,x")
    assert (rc, out) == (2, "")
    assert err == "error: --case must list ints 1..5, got '1,x'\n"


@pytest.mark.parametrize("cases", ["1,2", "1,2,3", "5,5,5,5"])
@pytest.mark.parametrize("layout", [[], ["--hankel-induced", "--k", "0"]])
def test_network_case_list_at_zero_layers_is_config_error(capsys, layout, cases):
    rc, out, err = run(
        capsys, "network", "--family", "narayana", "--n", "0", *layout,
        "--case", cases, "--check",
    )
    assert (rc, out) == (2, "")
    count = len(cases.split(","))
    assert err == f"error: --case needs 1 value or exactly 0 values, got {count}\n"


@pytest.mark.parametrize(
    "layout, cases, what",
    [
        ([], "4", "layered network"),
        (["--hankel-induced", "--k", "2"], "2,4", "induced Hankel network"),
    ],
)
def test_network_case_list_that_fits_zero_layers_passes(capsys, layout, cases, what):
    rc, out, err = run(
        capsys, "network", "--family", "narayana", "--n", "0", *layout,
        "--case", cases, "--check",
    )
    assert (rc, err) == (0, "")
    assert out == f"check: pass ({what} matches the matrix for narayana, n=0)\n"


def test_network_weight_case_mismatch_is_family_error(capsys):
    rc, _, err = run(
        capsys, "network", "--family", "narayana", "--n", "2", "--case", "1", "--check"
    )
    assert rc == 3
    assert "error:" in err


def test_network_case_5_rejects_witnesses_that_do_not_factor(tmp_path, capsys):
    # every term is q-nonnegative, but r_0 = 2 and s_0 = 5 != b_0 + c_0
    doc = {
        "name": "unfactored",
        "r": {"tail": {"constant": [2]}},
        "s": {"tail": {"constant": [5]}},
        "t": {"tail": {"constant": [1]}},
        "witness_b": {"tail": {"constant": [1]}},
        "witness_c": {"tail": {"constant": [1]}},
    }
    path = tmp_path / "unfactored.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(
        capsys, "network", "--family", str(path), "--n", "2", "--case", "5"
    )
    assert rc == 3
    assert out == ""
    assert "condition 5 at index 0" in err


def test_network_factored_needs_unit_up_weights(capsys):
    rc, _, err = run(
        capsys,
        "network",
        "--family",
        "eulerian",
        "--n",
        "2",
        "--case",
        "1",
        "--hankel-factored",
    )
    assert rc == 2
    assert "r_1" in err


def _doctored(build, pick):
    """``build`` with one unit arc weighing 2, so the GF matrix no longer matches.

    ``pick`` indexes the unit arcs in arc order.
    """

    def doctored(*args):
        real = build(*args)
        arcs = list(real.arcs)
        k = [i for i, a in enumerate(arcs) if a.weight == ONE][pick]
        arcs[k] = arcs[k]._replace(weight=ONE + ONE)
        return PlanarNetwork(arcs, real.sources, real.sinks)

    return doctored


@pytest.mark.parametrize(
    "builder,pick,flags,line",
    [
        (
            "build_cs_network",
            0,
            ["--case", "4"],
            "check: fail (layered network entry (2,0) is 2q+2q^2, matrix has q+q^2)",
        ),
        (
            "build_hankel_network",
            -1,
            ["--hankel-induced", "--case", "2"],
            "check: fail (induced Hankel network entry (0,2) is 2q+q^2, matrix has q+q^2)",
        ),
        (
            "build_hankel_factored",
            -1,
            ["--hankel-factored", "--case", "4"],
            "check: fail (factored Hankel network entry (0,0) is 2, matrix has 1)",
        ),
    ],
    ids=["layered", "induced", "factored"],
)
def test_network_check_failure_exit_code(capsys, monkeypatch, builder, pick, flags, line):
    monkeypatch.setattr(cli, builder, _doctored(getattr(cli, builder), pick))
    rc, out, _ = run(capsys, "network", "--family", "narayana", "--n", "2", *flags, "--check")
    assert rc == 4
    assert out == line + "\n"


# -- verify ------------------------------------------------------------


def test_verify_json_clean(capsys):
    rc, out, _ = run(
        capsys,
        "verify",
        "--family",
        "narayana",
        "--matrix",
        "C",
        "--n",
        "3",
        "--max-size",
        "3",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["family"] == "narayana"
    assert doc["matrix"] == "C"
    assert doc["ok"] is True
    assert doc["exhaustive"] is True
    assert doc["violations"] == []
    assert doc["report_count"] == len(doc["reports"]) == 136
    assert doc["total_candidates"] == 68


def test_verify_size_cap_error_names_the_setting(capsys, monkeypatch):
    monkeypatch.setenv("QCATALAN_SIZE_CAP", "3")
    rc, out, err = run(
        capsys,
        "verify",
        "--family",
        "narayana",
        "--matrix",
        "C",
        "--n",
        "4",
        "--max-size",
        "4",
    )
    assert rc == 2
    assert out == ""
    assert "QCATALAN_SIZE_CAP" in err


def test_verify_runs_are_byte_identical(capsys):
    argv = [
        "verify",
        "--family",
        "schroder",
        "--matrix",
        "H",
        "--n",
        "2",
        "--max-size",
        "2",
    ]
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_csv_and_text_formats(capsys):
    rc, out, _ = run(
        capsys,
        "verify",
        "--family",
        "narayana",
        "--n",
        "2",
        "--max-size",
        "2",
        "--format",
        "csv",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == (
        "family,kind,rows,cols,lambda,value,q_nonnegative,dominance_gap,gap_nonnegative"
    )
    assert len(lines) == 1 + 9 + 9 * 2  # sizes 1 and 2 of a 3x3 matrix
    rc, out, _ = run(
        capsys,
        "verify",
        "--family",
        "narayana",
        "--n",
        "2",
        "--max-size",
        "2",
        "--format",
        "text",
    )
    assert rc == 0
    assert "all immanants and dominance gaps are q-nonnegative" in out


@pytest.mark.parametrize("limit", [150, 20000], ids=["sampled", "exhaustive"])
def test_sweep_renders_like_one_report_at_a_time(limit):
    control = load_family(CONTROL_FAMILY)
    for f in (builtin("narayana"), control):
        m = catalan_stieltjes(f, 4)
        result = positivity_sweep(m, 3, seed=3, exhaustive_limit=limit)
        selections = [(r, c) for r, c, _ in result.rows]
        repeats = len(set(selections)) < len(selections)
        assert repeats != result.exhaustive
        assert stdout_of(cli._sweep_csv, result) == sweep_csv_by_report(result)
        args = argparse.Namespace(matrix="C", n=4, max_size=3)
        doc = cli._sweep_json(args, f, result)
        assert bool(doc["violations"]) == (f is control)
        want = sweep_json_by_report(f.name, "C", 4, 3, result)
        assert stdout_of(cli._write_json, doc) == want
        assert stdout_of(cli._sweep_text, result) == sweep_text_by_report(result)


@pytest.mark.parametrize("family", ["narayana", "control"])
def test_every_sweep_reader_walks_each_selection_with_fields_once(family, monkeypatch):
    f = builtin(family) if family == "narayana" else load_family(CONTROL_FAMILY)
    result = positivity_sweep(catalan_stieltjes(f, 4), 3, seed=3, exhaustive_limit=150)
    assert not result.exhaustive and (family == "control") != result.ok
    walks = []
    walk = SweepResult._walk

    def spy(self, contents, text, body):
        rendered = []

        def counted(*fields):
            rendered.append(fields)
            return body(*fields)

        selections = list(walk(self, contents, text, counted))
        walks.append((contents, selections, len(rendered)))
        return iter(selections)

    monkeypatch.setattr(SweepResult, "_walk", spy)
    args = argparse.Namespace(matrix="C", n=4, max_size=3)
    stdout_of(cli._sweep_csv, result)
    stdout_of(cli._write_json, cli._sweep_json(args, f, result))
    stdout_of(cli._sweep_text, result)
    assert result.reports and bool(result.violations()) != result.ok
    # CSV, JSON reports, reports, violations(); JSON and text violations when some fail
    assert len(walks) == (4 if result.ok else 6)
    for contents, selections, rendered in walks:
        # each content's shapes rendered once, each selection with fields handed its own
        assert rendered == sum(map(len, contents))
        want = [(r, c, len(contents[k])) for r, c, k in result.rows if contents[k]]
        assert [(r, c, len(bodies)) for r, c, bodies in selections] == want


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("family", ["narayana", "control"])
def test_verify_builds_no_report_objects(family, fmt, tmp_path, capsys, monkeypatch):
    built = []
    init = ImmanantReport.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ImmanantReport, "__init__", counting)
    path = tmp_path / "control.json"
    path.write_text(json.dumps(CONTROL_FAMILY))
    name = family if family == "narayana" else str(path)
    argv = ["verify", "--family", name, "--n", "4", "--max-size", "3"]
    rc, out, _ = run(capsys, *argv, "--format", fmt)
    assert rc == (0 if family == "narayana" else 5)
    assert out
    assert built == []
    # the count sees every construction
    reports = positivity_sweep(catalan_stieltjes(builtin("narayana"), 4), 3).reports
    assert len(built) == len(reports) > 0


def _decodes(monkeypatch) -> list[int]:
    """Every packed value that ``SweepResult`` decodes (for itself or a writer), in order."""
    decoded = []
    unpack = qpoly._unpack

    def spy(value, bits):
        decoded.append(value)
        return unpack(value, bits)

    monkeypatch.setattr(importlib.import_module("qcatalan.immanant"), "_unpack", spy)
    return decoded


def test_verify_text_decodes_only_its_violations(tmp_path, capsys, monkeypatch):
    path = tmp_path / "control.json"
    path.write_text(json.dumps(CONTROL_FAMILY))
    decoded = _decodes(monkeypatch)
    argv = ["verify", "--n", "4", "--max-size", "3", "--format", "text"]
    rc, _, _ = run(capsys, *argv, "--family", "narayana")
    assert rc == 0 and decoded == []
    rc, out, _ = run(capsys, *argv, "--family", str(path))
    assert rc == 5
    got = list(decoded)
    result = positivity_sweep(catalan_stieltjes(load_family(CONTROL_FAMILY), 4), 3)
    assert decoded == got  # the sweep decodes nothing
    want = {v for shapes in result.failing for _, value, _, gap, _ in shapes for v in (value, gap)}
    # each distinct value and gap of the violations once, and nothing else
    assert len(got) == len(set(got)) == len(want) and set(got) == want
    assert out.count("violation:") > len(want)


@pytest.mark.parametrize("family", ["narayana", "control"])
def test_sweep_contents_hold_packed_ints(family):
    f = builtin(family) if family == "narayana" else load_family(CONTROL_FAMILY)
    result = positivity_sweep(hankel(f, 4), 4)
    held = [v for shapes in result.contents for _, value, _, gap, _ in shapes for v in (value, gap)]
    assert held and all(type(v) is int for v in held)
    assert result.ok == (family == "narayana")


def test_verify_detects_violation(tmp_path, capsys):
    path = tmp_path / "control.json"
    path.write_text(json.dumps(CONTROL_FAMILY))
    rc, out, _ = run(
        capsys,
        "verify",
        "--family",
        str(path),
        "--matrix",
        "C",
        "--n",
        "2",
        "--max-size",
        "2",
    )
    assert rc == 5
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["violations"]
    assert any(
        v["provenance"]["rows"] == [1, 2] and v["provenance"]["cols"] == [0, 1]
        for v in doc["violations"]
    )


def test_verify_text_violation_lines(tmp_path, capsys):
    path = tmp_path / "control.json"
    path.write_text(json.dumps(CONTROL_FAMILY))
    rc, out, _ = run(
        capsys,
        "verify",
        "--family",
        str(path),
        "--n",
        "2",
        "--max-size",
        "2",
        "--format",
        "text",
    )
    assert rc == 5
    assert "violation:" in out


# -- inequality --------------------------------------------------------


def test_inequality_table(capsys):
    rc, out, _ = run(
        capsys, "inequality", "--family", "narayana", "--max-index", "3"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "checked 4 triples: all q-nonnegative"
    assert all("q_nonnegative=True" in l for l in lines[:-1])


def test_inequality_show_and_json(capsys):
    rc, out, _ = run(
        capsys,
        "inequality",
        "--family",
        "narayana",
        "--max-index",
        "2",
        "--show",
    )
    assert rc == 0
    assert "value_332=" in out and "value_331_diagonal=" in out
    rc, out, _ = run(
        capsys,
        "inequality",
        "--family",
        "schroder",
        "--max-index",
        "2",
        "--format",
        "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["entries"][0]["triple"] == [0, 1, 2]


@pytest.mark.parametrize("name", ["narayana", "eulerian"])
def test_inequality_diagonal_is_the_331_value_at_rows_equal_cols(name, capsys):
    a = catalan_like(builtin(name), 8)
    rc, out, _ = run(
        capsys, "inequality", "--family", name, "--max-index", "4", "--format", "json"
    )
    assert rc == 0
    entries = json.loads(out)["entries"]
    for entry in entries:
        t = tuple(entry["triple"])
        assert entry["value_331_diagonal"] == inequality_331(a, t, t).to_json()
    rc, out, _ = run(capsys, "inequality", "--family", name, "--max-index", "4", "--show")
    assert rc == 0
    lines = out.splitlines()[:-1]
    assert len(lines) == len(entries)
    for line, entry in zip(lines, entries):
        t = tuple(entry["triple"])
        assert line.endswith(f" value_331_diagonal={inequality_331(a, t, t)}")


def test_inequality_single_triple_and_block(capsys):
    rc, out, _ = run(
        capsys, "inequality", "--family", "eulerian", "--triple", "0", "1", "3"
    )
    assert rc == 0
    assert out.startswith("triple=(0,1,3)")
    assert "q_nonnegative=True" in out
    rc, out, _ = run(
        capsys,
        "inequality",
        "--family",
        "eulerian",
        "--rows",
        "0",
        "1",
        "2",
        "--cols",
        "0",
        "2",
        "3",
    )
    assert rc == 0
    assert out.startswith("rows=[0, 1, 2] cols=[0, 2, 3]")


def test_inequality_argument_errors(capsys):
    rc, _, err = run(
        capsys, "inequality", "--family", "narayana", "--rows", "0", "1", "2"
    )
    assert rc == 2
    rc, _, err = run(
        capsys, "inequality", "--family", "narayana", "--triple", "0", "0", "1"
    )
    assert rc == 2
    rc, _, err = run(capsys, "inequality", "--family", "narayana", "--max-index", "1")
    assert rc == 2


def test_inequality_negative_triple_index_names_the_triple(capsys):
    rc, out, err = run(
        capsys, "inequality", "--family", "narayana", "--triple", "0", "1", "-1"
    )
    assert (rc, out) == (2, "")
    assert err == "error: triple indices must satisfy 0 <= i < j < k, got (0, 1, -1)\n"


def test_inequality_negative_row_or_col_index_names_the_triple(capsys):
    for rows, cols, label, bad in (
        ("0 1 2", "0 1 -5", "col", "(0, 1, -5)"),
        ("0 1 -2", "0 1 5", "row", "(0, 1, -2)"),
    ):
        rc, out, err = run(
            capsys,
            "inequality",
            "--family",
            "narayana",
            "--rows",
            *rows.split(),
            "--cols",
            *cols.split(),
        )
        assert (rc, out) == (2, "")
        assert err == f"error: {label} indices must satisfy 0 <= i < j < k, got {bad}\n"


@pytest.mark.parametrize(
    "mode",
    [["--triple", "0", "1", "2"], ["--rows", "0", "1", "2", "--cols", "0", "1", "3"]],
    ids=["triple", "rows-cols"],
)
def test_inequality_json_outside_the_sweep_is_config_error(capsys, mode):
    rc, out, err = run(
        capsys, "inequality", "--family", "narayana", *mode, "--format", "json"
    )
    assert (rc, out) == (2, "")
    assert err == "error: --format json applies only to the --max-index sweep\n"


@pytest.mark.parametrize(
    "mode",
    [["--triple", "0", "1", "2"], ["--rows", "0", "1", "2", "--cols", "0", "1", "3"]],
    ids=["triple", "rows-cols"],
)
def test_inequality_show_outside_the_sweep_is_config_error(capsys, mode):
    rc, out, err = run(capsys, "inequality", "--family", "narayana", *mode, "--show")
    assert (rc, out) == (2, "")
    assert err == "error: --show applies only to the --max-index sweep\n"


@pytest.mark.parametrize("sweep", [[], ["--max-index", "3"]], ids=["default", "max-index"])
def test_inequality_show_in_the_json_sweep_is_config_error(capsys, sweep):
    rc, out, err = run(
        capsys, "inequality", "--family", "narayana", *sweep, "--format", "json", "--show"
    )
    assert (rc, out) == (2, "")
    assert err == (
        "error: --show applies only to the text --max-index sweep; "
        "JSON entries always carry both values\n"
    )


@pytest.mark.parametrize(
    "modes",
    [
        ["--triple", "0", "1", "2", "--rows", "0", "1", "2", "--cols", "0", "1", "3"],
        ["--max-index", "3", "--triple", "0", "1", "2"],
        ["--max-index", "3", "--rows", "0", "1", "2", "--cols", "0", "1", "3"],
    ],
    ids=["triple-rows", "max-index-triple", "max-index-rows"],
)
def test_inequality_modes_are_mutually_exclusive(capsys, modes):
    rc, out, err = run(capsys, "inequality", "--family", "narayana", *modes)
    assert (rc, out) == (2, "")
    assert "not allowed with argument" in err


def test_inequality_without_a_mode_sweeps_to_index_5(capsys):
    rc, out, _ = run(capsys, "inequality", "--family", "narayana")
    assert rc == 0
    assert out.splitlines()[-1] == "checked 20 triples: all q-nonnegative"


# -- chars -------------------------------------------------------------


def test_chars_text_table(capsys):
    rc, out, _ = run(capsys, "chars", "--n", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["shape\\class", "(3)", "(2,1)", "(1,1,1)"]
    assert lines[2].split() == ["(2,1)", "-1", "0", "2"]


def test_chars_json(capsys):
    rc, out, _ = run(capsys, "chars", "--n", "2", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "n": 2,
        "classes": [[2], [1, 1]],
        "characters": [
            {"shape": [2], "values": [1, 1]},
            {"shape": [1, 1], "values": [-1, 1]},
        ],
    }


def test_chars_out_of_range(capsys):
    rc, _, err = run(capsys, "chars", "--n", "13")
    assert rc == 2
    rc, _, err = run(capsys, "chars", "--n", "-1")
    assert rc == 2


# -- JSON writer -------------------------------------------------------


def test_json_writer_matches_indented_json_dumps(capsys):
    doc = {
        "empty": [[], {}],
        "mixed": [1, True, 0, False, None, -(2**70)],
        "text": "Schr\u00f6der \U0001d52e\t\"\\\x00",
        "nested": {"ints": [2**64, -3], "bools": [True], "": {"a": "b"}},
        "polys": [ZERO, QPoly([-1, 0, 2**70]), [ONE]],
    }
    cli._write_json(doc)
    want = dict(doc, polys=[[], [-1, 0, 2**70], [[1]]])
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [{"x": [1, 2.0]}, 0.5, {1: "one"}, {"k": (1, 2)}],
    ids=["float-in-list", "float", "int-key", "tuple"],
)
def test_json_writer_rejects_what_no_document_holds(doc):
    with pytest.raises(TypeError):
        cli._write_json(doc)


class Recorder:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


def _recorded(monkeypatch, *argv):
    recorder = Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert cli.main(list(argv)) == 0
    return recorder.chunks


def _nested(doc, depth: int) -> str:
    """``doc`` as ``json.dumps(indent=2)`` renders it ``depth`` levels deep."""
    return json.dumps(doc, indent=2).replace("\n", "\n" + "  " * depth)


def test_json_writer_streams_each_hankel_entry(monkeypatch):
    argv = ["hankel", "--family", "eulerian", "--n", "20", "--format", "json"]
    chunks = _recorded(monkeypatch, *argv)
    doc = matrix_json(hankel(builtin("eulerian"), 20))
    assert "".join(chunks) == json.dumps(doc, indent=2) + "\n"
    # an entry sits three levels deep, after a comma and a new indented line
    entry = max(len(_nested(cell, 3)) for row in doc["entries"] for cell in row)
    assert max(map(len, chunks)) <= entry + len(",\n" + "  " * 3)


def test_json_writer_renders_each_distinct_hankel_entry_once(capsys, monkeypatch):
    m = hankel(builtin("narayana"), 8)
    # the corner polynomial also sits twice one level higher, where it renders apart
    doc = {"entries": list(map(list, m.entries)), "corner": [m.entries[8][8]] * 2}
    renders = Counter()
    real = cli._ints

    def counted(values, nl):
        if type(values) is tuple:  # a polynomial's coefficients
            renders[values, nl] += 1
        return real(values, nl)

    monkeypatch.setattr(cli, "_ints", counted)
    cli._write_json(doc)
    want = {
        "entries": [[list(p.coeffs) for p in row] for row in m.entries],
        "corner": [list(m.entries[8][8].coeffs)] * 2,
    }
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
    assert len(renders) == 2 * 8 + 2 and set(renders.values()) == {1}


def test_network_json_streams_each_arc(monkeypatch):
    argv = ["network", "--family", "schroder", "--n", "40", "--case", "5", "--format", "json"]
    chunks = _recorded(monkeypatch, *argv)
    doc = build_cs_network(builtin("schroder"), 40, [5] * 40).to_json_dict()
    assert "".join(chunks) == json.dumps(doc, indent=2) + "\n"
    # an arc sits two levels deep, after a comma and a new indented line
    arc = max(len(_nested(a, 2)) for a in doc["arcs"])
    assert max(map(len, chunks)) <= arc + len(",\n" + "  " * 2)


HAND_BUILT_NETWORKS = {
    "empty": PlanarNetwork([], [], []),
    "boundary-only": PlanarNetwork(
        [], [Vertex("P", 0, 0)], [Vertex("Q", 0, 0), Vertex("Pbar", 0, 0)]
    ),
    "zero-weight": PlanarNetwork([Arc(Vertex("P", 0, 0), Vertex("Q", 0, 0), ZERO)], [], []),
    "signed-and-huge": PlanarNetwork(
        [
            Arc(Vertex("P", 1, 0), Vertex("P", 1, 1), QPoly([-1, 0, 2**64 + 1, -(2**70)])),
            Arc(Vertex("P", 0, 0), Vertex("P", 1, 0), QPoly([0, 2**64])),
            Arc(Vertex("P", 0, 0), Vertex("Q", 0, 2), -ONE),
        ],
        [Vertex("P", 0, 0)],
        [Vertex("P", 1, 1)],
    ),
    # barred kinds, a shared weight and a zero weight among nonzero ones
    "barred": PlanarNetwork(
        [
            Arc(Vertex("Qbar", 2, 1), Vertex("Pbar", 1, 1), QPoly([0, 3])),
            Arc(Vertex("P", 2, 1), Vertex("Qbar", 2, 1), ONE),
            Arc(Vertex("Pbar", 1, 1), Vertex("Pbar", 1, 0), ZERO),
            Arc(Vertex("Q", 1, 1), Vertex("P", 2, 1), QPoly([0, 3])),
        ],
        [Vertex("Q", 1, 1)],
        [Vertex("Pbar", 1, 0), Vertex("Qbar", 2, 1)],
    ),
}


def _dumped(net) -> str:
    return json.dumps(net.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(HAND_BUILT_NETWORKS))
def test_network_writer_matches_json_dumps_on_hand_built_networks(name):
    net = HAND_BUILT_NETWORKS[name]
    assert stdout_of(cli._write_network_json, net) == _dumped(net)


def _every_construction():
    """Each builtin's layered, induced (k = 1) and factored networks at n = 0, 1, 3,
    under every weight case that it meets and one list that mixes them."""
    builds = (
        (build_cs_network, lambda n: n),
        (lambda f, n, cases: build_hankel_network(f, n, 1, cases), lambda n: 2 * n + 1),
        (build_hankel_factored, lambda n: n),
    )
    for name in BUILTIN_NAMES:
        f = builtin(name)
        for build, layers in builds:
            for n in (0, 1, 3):
                met = []
                for case in WEIGHT_CASES:
                    try:
                        net = build(f, n, [case] * layers(n))
                    except (MissingWitness, NegativeWeight, RequiresUnitGamma):
                        continue
                    met.append(case)
                    yield net
                if len(met) > 1:
                    yield build(f, n, [met[i % len(met)] for i in range(layers(n))])


def test_network_writer_matches_json_dumps_on_every_construction():
    nets = list(_every_construction())
    assert len(nets) == 89
    assert any(a.weight == ZERO for net in nets for a in net.arcs)
    for net in nets:
        assert stdout_of(cli._write_network_json, net) == _dumped(net)


def test_sweep_writers_stream_each_report(monkeypatch):
    argv = ["verify", "--family", "narayana", "--n", "5", "--max-size", "3"]
    lines = _recorded(monkeypatch, *argv, "--format", "csv")
    assert len(lines) > 1000
    assert all(line.index("\n") == len(line) - 1 for line in lines)
    chunks = _recorded(monkeypatch, *argv, "--format", "json")
    doc = json.loads("".join(chunks))
    # a report sits two levels deep, after a comma and a new indented line
    report = max(len(_nested(r, 2)) for r in doc["reports"])
    assert max(map(len, chunks)) <= report + len(",\n" + "  " * 2)


# -- parser-level behavior ---------------------------------------------


def test_unknown_subcommand_exits_with_argparse_code(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_option(capsys):
    assert cli.main(["matrix", "--n", "1"]) == 2
    capsys.readouterr()


# -- exit codes --------------------------------------------------------


def _error_classes():
    return [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and obj.__module__ == errors.__name__
    ]


def test_every_error_class_is_a_family_error_or_a_value_error():
    assert not issubclass(errors.FamilyError, ValueError)
    for cls in _error_classes():
        assert issubclass(cls, (errors.FamilyError, ValueError)), cls.__name__


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_error_class_decides_the_exit_code(capsys, monkeypatch, cls):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_chars", fail)
    rc, out, err = run(capsys, "chars", "--n", "1")
    assert rc == (3 if issubclass(cls, errors.FamilyError) else 2)
    assert (out, err) == ("", "error: boom\n")


def test_bare_index_error_propagates_out_of_main(monkeypatch):
    # only the typed errors are configuration errors; a bug must not exit 2
    def fail(args):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "cmd_chars", fail)
    with pytest.raises(IndexError, match="list index out of range"):
        cli.main(["chars", "--n", "1"])


def test_out_of_range_selection_is_a_configuration_error(capsys):
    rc, out, err = run(
        capsys, "matrix", "--family", "narayana", "--n", "2", "--rows", "0,5", "--cols", "0,1"
    )
    assert (rc, out, err) == (2, "", "error: row indices (0, 5) out of range 0..2\n")


def test_console_script_runs():
    proc = subprocess.run(
        ["qcatalan", "matrix", "--family", "narayana", "--n", "1", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,0\nq,1\n"


def _child_env() -> dict:
    """An environment in which a child runs the package this suite imports, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qcatalan.cli", "chars", "--n", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "shape\\class" in proc.stdout


def test_closed_stdout_exits_quietly_with_128_plus_sigpipe():
    # several MB of text, far more than a pipe holds, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcatalan.cli", "matrix", "--family", "eulerian", "--n", "60"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.split() == [b"1"] + [b"0"] * 60
    assert err == b""
