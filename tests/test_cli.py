"""Unit tests for the command-line interface and its exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcatalan import cli, errors
from qcatalan.csmatrix import catalan_stieltjes
from qcatalan.families import builtin, load_family
from qcatalan.immanant import positivity_sweep
from qcatalan.network import Arc, PlanarNetwork, build_cs_network
from qcatalan.qpoly import ONE

from oracles import weighted_path_poly

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
    assert "index 3 unavailable" in err


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
    assert "index 3 unavailable" in err


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


def test_network_check_failure_exit_code(capsys, monkeypatch):
    # doctor one unit arc weight so the GF matrix no longer matches
    def doctored(f, n, cases):
        real = build_cs_network(f, n, cases)
        arcs, changed = [], False
        for a in real.arcs:
            if not changed and a.weight == ONE:
                arcs.append(Arc(a.tail, a.head, a.weight + ONE))
                changed = True
            else:
                arcs.append(a)
        return PlanarNetwork(arcs, real.sources, real.sinks)

    monkeypatch.setattr(cli, "build_cs_network", doctored)
    rc, out, _ = run(
        capsys, "network", "--family", "narayana", "--n", "2", "--case", "4", "--check"
    )
    assert rc == 4
    assert out.startswith("check: fail")


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
        shared = len({id(r) for r in result.reports}) < len(result.reports)
        assert shared != result.exhaustive
        lines = [
            "family,kind,rows,cols,lambda,value,q_nonnegative,dominance_gap,gap_nonnegative"
        ]
        for r in result.reports:
            p = r.provenance
            fields = [p.family, p.kind] + ["|".join(map(str, x)) for x in (p.rows, p.cols)]
            fields += ["|".join(map(str, r.lam)), str(r.value)]
            fields += [str(r.q_nonnegative).lower(), str(r.dominance_gap)]
            fields.append(str(r.gap_nonnegative).lower())
            lines.append(",".join(fields))
        assert cli._sweep_csv(result) == "\n".join(lines) + "\n"
        args = argparse.Namespace(matrix="C", n=4, max_size=3)
        doc = cli._sweep_json(args, f, result)
        fresh = dict(
            doc,
            violations=[r.to_json_dict() for r in result.violations()],
            reports=[r.to_json_dict() for r in result.reports],
        )
        assert json.dumps(doc, indent=2) == json.dumps(fresh, indent=2)
        assert bool(doc["violations"]) == (f is control)


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
    assert err == "error: index indices must satisfy 0 <= i < j < k, got (0, 1, -1)\n"


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


def test_console_script_runs():
    proc = subprocess.run(
        ["qcatalan", "matrix", "--family", "narayana", "--n", "1", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,0\nq,1\n"


def test_module_invocation_runs():
    # the child runs the package this suite imports, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qcatalan.cli", "chars", "--n", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "shape\\class" in proc.stdout
