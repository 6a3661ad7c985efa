"""Mutation gate: every mutant below must make its named tests fail.

Run from anywhere with ``python tests/mutants.py``; it needs only the
standard library and pytest.  Each entry names a file under ``src/`` (or a
test oracle under ``tests/``), an exact snippet in it, the snippet's
replacement and the tests to run (files, or the test nodes that kill the
mutant).  For each entry the script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
applies the replacement there, and runs the named tests in that copy.  A
mutant whose tests still pass has survived: the tests no longer notice that
fault.  The script exits 1 if any mutant survives, and 2 if the named tests
fail on the unmutated copy, a snippet no longer occurs exactly once, or a
mutant's tests fail with a ``NameError`` (its replacement names something
the code no longer defines, so they fail without meeting the fault), so a
refactor that moves the code must update its entry.  A surviving mutant, or
a test that fails on the unmutated copy, prints the tail of pytest's output
with its skip reasons.

Pytest's ``pythonpath = ["src"]`` setting puts the copy's ``src/`` first on
the import path, so the mutated code is what the tests import.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_LINES = 30  # of pytest's output, printed when an outcome is unexpected
NAME_ERROR = re.compile(r"^E\s+NameError\b", re.MULTILINE)  # pytest's line for the exception

MUTANTS = [
    {
        "name": "inequality sweep digit width one byte short",
        "file": "src/qcatalan/immanant.py",
        "snippet": "bits = _width(bound)",
        "replacement": "bits = _width(bound) - 8",
        "tests": ["tests/test_immanant.py::test_inequality_sweep_at_its_coefficient_bound"],
    },
    # At (c, c, c, -c, c) the cross term is half the bound, so without it the
    # width falls one byte short at some c.
    {
        "name": "inequality width bound drops the 3·N·N·N cross term",
        "file": "src/qcatalan/immanant.py",
        "snippet": "\n            + 3 * n[i + j] * n[j + k] * n[i + k]",
        "replacement": "",
        "tests": ["tests/test_immanant.py::test_inequality_sweep_at_its_coefficient_bound"],
    },
    # A diagonal grid's lam-immanant is d_lam c**n, and [[c, c], [-c, c]]'s
    # determinant 2 c**2 takes both signs of the sign character as positive.
    {
        "name": "immanant() width bound takes chi with its signs",
        "file": "src/qcatalan/immanant.py",
        "snippet": "map(abs, chi)",
        "replacement": "chi",
        "tests": ["tests/test_immanant.py::test_immanant_meets_its_bound"],
    },
    {
        "name": "immanant() width bound leaves out the character",
        "file": "src/qcatalan/immanant.py",
        "snippet": "sum(map(mul, map(abs, chi), _run(plan, norms)))",
        "replacement": "sum(_run(plan, norms))",
        "tests": ["tests/test_immanant.py::test_immanant_meets_its_bound"],
    },
    {
        "name": "class-sum width bound takes a zero row's sum as 0",
        "file": "src/qcatalan/immanant.py",
        "snippet": "max(sum(map(_norm, row)), 1)",
        "replacement": "sum(map(_norm, row))",
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_with_a_zero_row_packs_wide_enough_for_the_other_rows"
        ],
    },
    {
        "name": "class-sum width bound without the factor 2 that dominance gaps need",
        "file": "src/qcatalan/immanant.py",
        "snippet": "_width(2 * max(degrees)",
        "replacement": "_width(max(degrees)",
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_gap_meets_its_bound_on_an_antidiagonal_grid"
        ],
    },
    {
        "name": "sweep digit width taken from one row fewer than its largest submatrices",
        "file": "src/qcatalan/immanant.py",
        "snippet": "bits = _class_sum_width(grid, min(max_size, len(grid)))",
        "replacement": "bits = _class_sum_width(grid, min(max_size, len(grid)) - 1)",
        "tests": ["tests/test_immanant.py::test_sweep_value_meets_its_bound_on_a_diagonal_grid"],
    },
    {
        "name": "class-sum DP files a cycle under the cycle type one length short",
        "file": "src/qcatalan/immanant.py",
        "snippet": "step = steps[sub.bit_count() + 1]",
        "replacement": "step = steps[sub.bit_count()]",
        "tests": ["tests/test_packing.py"],
    },
    # Each table entry depends on an ordered index pair, so these two mutants
    # make a triple use a product of the wrong terms.
    {
        "name": "inequality sweep a_{2x} a_y^2 table read at the wrong x",
        "file": "src/qcatalan/immanant.py",
        "snippet": "terms[k][i + j]",
        "replacement": "terms[j][i + j]",
        "tests": ["tests/test_immanant.py::test_inequality_sweep_matches_332_on_every_triple"],
    },
    {
        "name": "inequality sweep cubic term multiplies by the wrong index sum",
        "file": "src/qcatalan/immanant.py",
        "snippet": "* packed[i + k]",
        "replacement": "* packed[i + j]",
        "tests": ["tests/test_immanant.py::test_inequality_sweep_matches_332_on_every_triple"],
    },
    # Every reader of a sweep (reports, violations(), and the CSV, JSON and
    # text writers) walks it through SweepResult._walk.  Bodies read at
    # another table's position render some other content's shapes, or run
    # off the end of the bodies.
    {
        "name": "sweep walk hands a selection the bodies at its column set's position",
        "file": "src/qcatalan/immanant.py",
        "snippet": "((r, c, bodies[k]) for",
        "replacement": "((r, c, bodies[c]) for",
        "tests": [
            "tests/test_cli.py::test_every_sweep_reader_walks_each_selection_with_fields_once",
            "tests/test_golden_json.py::test_json_command_bytes",
            "tests/test_immanant.py::"
            "test_sweep_matches_per_selection_oracle_on_colliding_contents",
        ],
    },
    {
        "name": "sweep walk hands over selections whose content has no fields",
        "file": "src/qcatalan/immanant.py",
        "snippet": " for r, c, k in self.rows if bodies[k])",
        "replacement": " for r, c, k in self.rows)",
        "tests": [
            "tests/test_cli.py::test_every_sweep_reader_walks_each_selection_with_fields_once"
        ],
    },
    # A packed value means a polynomial only at its sweep's width, and a
    # text only in its writer's format.
    {
        "name": "sweep walk decode memo kept across walks in a module-level dict",
        "file": "src/qcatalan/immanant.py",
        "snippet": "texts = _Memo(lambda value: text(_unpack(value, self.bits)))",
        "replacement": (
            'texts = globals().setdefault('
            '"_TEXTS", _Memo(lambda value: text(_unpack(value, self.bits))))'
        ),
        "tests": [
            "tests/test_cli.py::test_sweep_renders_like_one_report_at_a_time",
            "tests/test_immanant.py::test_sweeps_at_other_digit_widths_decode_their_own_values",
        ],
    },
    # Every selection builds its reports from its content key and its
    # provenance, so a wrong key or a wrong provenance shows in every sweep.
    {
        "name": "sweep content key reads the row indices for the columns",
        "file": "src/qcatalan/immanant.py",
        "snippet": "tuple([ids[i][j] for i in rows for j in cols])",
        "replacement": "tuple([ids[i][j] for i in rows for j in rows])",
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_matches_per_selection_oracle_on_colliding_contents"
        ],
    },
    {
        "name": "sweep provenance maps the columns through the row indices",
        "file": "src/qcatalan/immanant.py",
        "snippet": "tuple(m.col_indices[j] for j in cols)",
        "replacement": "tuple(m.row_indices[j] for j in cols)",
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_of_a_submatrix_maps_rows_and_cols_through_their_own_indices"
        ],
    },
    {
        "name": "sweep files a selection's column set position in the row set slot",
        "file": "src/qcatalan/immanant.py",
        "snippet": "out.append((r, c, k))",
        "replacement": "out.append((c, c, k))",
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_of_a_submatrix_maps_rows_and_cols_through_their_own_indices"
        ],
    },
    # A sweep's row sets and column sets are mapped through different index
    # maps, so a cols text rendered from a row set shows in every line.
    {
        "name": "CSV sweep cols texts rendered from the row sets",
        "file": "src/qcatalan/cli.py",
        "snippet": '"|".join(map(str, cols)) + "," for cols in result.col_sets]',
        "replacement": '"|".join(map(str, cols)) + "," for cols in result.row_sets]',
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_of_a_submatrix_maps_rows_and_cols_through_their_own_indices"
        ],
    },
    {
        "name": "JSON sweep provenance renders the cols texts from the row sets",
        "file": "src/qcatalan/cli.py",
        "snippet": "_ints(cols, field) + close for cols in result.col_sets]",
        "replacement": "_ints(cols, field) + close for cols in result.row_sets]",
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_of_a_submatrix_maps_rows_and_cols_through_their_own_indices"
        ],
    },
    {
        "name": "_unpack reads a wide digit's machine word as unsigned",
        "file": "src/qcatalan/qpoly.py",
        "snippet": 'struct.Struct("<" + f"q{pad}x" * count)',
        "replacement": 'struct.Struct("<" + f"Q{pad}x" * count)',
        "tests": ["tests/test_qpoly.py::test_wide_digits_round_trip_at_the_machine_word_edges"],
    },
    # A negative sum always has a bit in M (the _unpack docstring), so the
    # machine-word test is the AND alone; a test without the 2**63 shift
    # lets 2**63 through as a word.
    {
        "name": "_unpack's machine-word test reads the value without 2**63 added",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "if not shifted & high:",
        "replacement": "if not value & high:",
        "tests": ["tests/test_qpoly.py::test_wide_digits_round_trip_at_the_machine_word_edges"],
    },
    {
        "name": "_unpack's machine-word mask leaves out the top digit",
        "file": "src/qcatalan/qpoly.py",
        "snippet": 'int.from_bytes((bytes(8) + b"\\xff" * pad) * count, "little")',
        "replacement": 'int.from_bytes((bytes(8) + b"\\xff" * pad) * (count - 1), "little")',
        "tests": ["tests/test_qpoly.py::test_wide_digits_round_trip_at_the_machine_word_edges"],
    },
    {
        "name": "_unpack takes 2**(bits - 2) off each byte-string digit",
        "file": "src/qcatalan/qpoly.py",
        "snippet": 'repeat(1 << (bits - 1))',
        "replacement": 'repeat(1 << (bits - 2))',
        "tests": [
            "tests/test_qpoly.py::test_wide_digits_round_trip_at_the_machine_word_edges",
            "tests/test_packing.py::test_unpack_inverts_pack_at_every_byte_width",
        ],
    },
    {
        "name": "_unpack reads machine-integer digits without flipping their top bit back",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "((value + offset) ^ offset)",
        "replacement": "(value + offset)",
        "tests": ["tests/test_qpoly.py", "tests/test_packing.py"],
    },
    # The wide paths read the digit count rounded up to a power of two and
    # keep the first ``count``: a count one short drops the top digit.
    {
        "name": "_unpack reads one digit short",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "return _canonical(digits[:count])",
        "replacement": "return _canonical(digits[: count - 1])",
        "tests": ["tests/test_qpoly.py::test_wide_digits_round_trip_at_the_machine_word_edges"],
    },
    # The digit count is exact, so nothing strips a top digit of 0.
    {
        "name": "_unpack reads one digit too many",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "chunks = _chunks(bits, size).unpack(data)[:count]",
        "replacement": "chunks = _chunks(bits, size).unpack(data)[: count + 1]",
        "tests": [
            "tests/test_qpoly.py::test_wide_digits_round_trip_at_the_machine_word_edges",
            "tests/test_packing.py::test_unpack_inverts_pack_at_every_byte_width",
        ],
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
    {
        "name": "_unpack never swaps machine-integer digits on a big-endian host",
        "file": "src/qcatalan/qpoly.py",
        "snippet": 'if sys.byteorder == "big":',
        "replacement": "if False:",
        "tests": ["tests/test_qpoly.py"],
    },
    {
        "name": "QPoly.__str__ drops the sign of a -1 coefficient at q^i, i >= 1",
        "file": "src/qcatalan/qpoly.py",
        "snippet": '"-" + label if c == -1',
        "replacement": '"+" + label if c == -1',
        "tests": ["tests/test_qpoly.py", "tests/test_rendering.py"],
    },
    # A text keyed by the cell's type hands every later cell of that type the
    # first one's text.
    {
        "name": "grid writer holds texts keyed by the cell's type instead of the cell",
        "file": "src/qcatalan/cli.py",
        "snippet": "text(id(cell), str, cell)",
        "replacement": "text(id(type(cell)), str, cell)",
        "tests": ["tests/test_rendering.py", "tests/test_csmatrix.py"],
    },
    # The stream keeps a text only while a use of it is still to be written.
    {
        "name": "grid writer holds every text it renders",
        "file": "src/qcatalan/cli.py",
        "snippet": "        if uses[key]:\n            held[key] = rendered\n",
        "replacement": "        held[key] = rendered\n",
        "tests": ["tests/test_rendering.py::test_grid_writer_holds_about_one_row_of_texts"],
    },
    {
        "name": "grid writer holds no text, so a repeated cell renders at each use",
        "file": "src/qcatalan/cli.py",
        "snippet": "        if uses[key]:\n            held[key] = rendered\n",
        "replacement": "        if False:\n            held[key] = rendered\n",
        "tests": ["tests/test_rendering.py::test_grid_writer_renders_each_distinct_cell_once"],
    },
    {
        "name": "grid column width taken from its highest-bound cell alone",
        "file": "src/qcatalan/cli.py",
        "snippet": "if bounds[i] <= width:",
        "replacement": "if width:",
        "tests": ["tests/test_rendering.py::test_grid_widths_come_from_texts_not_from_bounds"],
    },
    {
        "name": "text length bound without the labels' lengths",
        "file": "src/qcatalan/qpoly.py",
        "snippet": " + 2 * size + _LABEL_SUMS[size]",
        "replacement": " + 2 * size",
        "tests": ["tests/test_rendering.py::test_str_bound_is_never_below_the_text_length"],
    },
    # The minors recurrence multiplies the two off-diagonal entries that meet
    # at row j: r_{j-1} above the diagonal and t_j below it.
    {
        "name": "production matrix minors weigh row j by r_j t_j instead of r_{j-1} t_j",
        "file": "tests/oracles.py",
        "snippet": "f.r(j - 1) * f.t(j) * before",
        "replacement": "f.r(j) * f.t(j) * before",
        "tests": [
            "tests/test_families.py::"
            "test_contiguous_minors_decide_total_positivity_of_the_production_matrix"
        ],
    },
    # The same bytes, held whole and written at once.
    {
        "name": "JSON writer renders the whole document before writing it",
        "file": "src/qcatalan/cli.py",
        "snippet": '    emit(doc, "\\n")\n    write("\\n")\n',
        "replacement": (
            "    parts = []\n"
            "    write = parts.append\n"
            '    emit(doc, "\\n")\n'
            '    sys.stdout.write("".join(parts) + "\\n")\n'
        ),
        "tests": ["tests/test_cli.py::test_json_writer_streams_each_hankel_entry"],
    },
    {
        "name": "JSON int list closes without its indent",
        "file": "src/qcatalan/cli.py",
        "snippet": 'join(map(int.__repr__, values)) + nl + "]"',
        "replacement": 'join(map(int.__repr__, values)) + "]"',
        "tests": ["tests/test_cli.py::test_json_writer_matches_indented_json_dumps"],
    },
    {
        "name": "count_paths skips paths of zero weight",
        "file": "src/qcatalan/network.py",
        "snippet": "lambda p: (0, 1))",
        "replacement": "lambda p: (0, 1 if p else 0))",
        "tests": ["tests/test_network.py"],
    },
    {
        "name": "network constructor accepts a directed cycle",
        "file": "src/qcatalan/network.py",
        "snippet": "if len(topo) != len(adj):",
        "replacement": "if False:",
        "tests": ["tests/test_network.py"],
    },
    {
        "name": "network constructor accepts a duplicate arc",
        "file": "src/qcatalan/network.py",
        "snippet": "if head in out:",
        "replacement": "if False:",
        "tests": ["tests/test_network.py"],
    },
    # A signed weight then counts for less than its coefficients.
    {
        "name": "GF bound drops the abs from each weight's norm",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "return sum(map(abs, p.coeffs))",
        "replacement": "return sum(p.coeffs)",
        "tests": ["tests/test_network.py::test_gf_bound_holds_on_random_signed_networks"],
    },
    {
        "name": "GF sweep drops the sinks' maps too",
        "file": "src/qcatalan/network.py",
        "snippet": "total, value = pooled.get(v, 0), acc.get(v)",
        "replacement": "total, value = pooled.pop(v, 0), acc.pop(v, None)",
        "tests": ["tests/test_network.py"],
    },
    {
        "name": "gf_matrix's packed pass carries the bounds again",
        "file": "src/qcatalan/network.py",
        "snippet": "bounds=False)[0]",
        "replacement": "bounds=True)[0]",
        "tests": [
            "tests/test_network.py::"
            "test_gf_matrix_packs_without_the_bounds_its_first_pass_gave"
        ],
    },
    # Arcs into one head then all weigh as the first of them walked.
    {
        "name": "GF sweep keys its weigh memo by the head vertex",
        "file": "src/qcatalan/network.py",
        "snippet": "key = id(weight)",
        "replacement": "key = head",
        "tests": [
            "tests/test_network.py::"
            "test_packed_gf_matches_oracle_when_arcs_share_weight_objects"
        ],
    },
    # The vertex is then ready one in-arc early, and may be listed twice.
    {
        "name": "topological sort lists a vertex before its last in-arc is counted",
        "file": "src/qcatalan/network.py",
        "snippet": "if not indegree[head]:",
        "replacement": "if indegree[head] <= 1:",
        "tests": ["tests/test_network.py"],
    },
    {
        "name": "layer heights read the weight rows in the wrong order",
        "file": "src/qcatalan/network.py",
        "snippet": "rows = weights[n::-1]",
        "replacement": "rows = weights[: n + 1]",
        "tests": ["tests/test_network.py"],
    },
    {
        "name": "weight case 2 swaps its horizontal halves",
        "file": "src/qcatalan/network.py",
        "snippet": "2: lambda f, j: (ONE, f.r(j),",
        "replacement": "2: lambda f, j: (f.r(j), ONE,",
        "tests": ["tests/test_network.py"],
    },
    {
        "name": "weight case 4's first diagonal half weighs 1 at j = 0",
        "file": "src/qcatalan/network.py",
        "snippet": "4: lambda f, j: (f.r(j), ONE, ONE if j else ZERO,",
        "replacement": "4: lambda f, j: (f.r(j), ONE, ONE,",
        "tests": ["tests/test_network.py"],
    },
    {
        "name": "weight case 5's super-diagonal arc weighs s_j",
        "file": "src/qcatalan/network.py",
        "snippet": "f.c(j), ZERO)",
        "replacement": "f.c(j), f.s(j))",
        "tests": ["tests/test_network.py"],
    },
    # An affine tail started from its constant term reads c_0 k + c_1.
    {
        "name": "tail evaluated by Horner's rule from the wrong end",
        "file": "src/qcatalan/families.py",
        "snippet": "*lower, value = self.tail\n        for c in reversed(lower):",
        "replacement": "value, *lower = self.tail\n        for c in lower:",
        "tests": [
            "tests/test_families.py::test_param_seq_tail_is_its_polynomial_in_k",
            "tests/test_families.py::test_param_seq_prefix_then_tail",
        ],
    },
    {
        "name": "condition 5 skips the sign check of the witness c_k",
        "file": "src/qcatalan/families.py",
        "snippet": "if not c.is_q_nonnegative():",
        "replacement": "if False:",
        "tests": ["tests/test_families.py::test_condition_5_reports_negative_witness_c"],
    },
    {
        "name": "condition 5 skips the check s_k = b_k + c_k",
        "file": "src/qcatalan/families.py",
        "snippet": "diff = f.s(k) - (b + c)",
        "replacement": "diff = ZERO",
        "tests": ["tests/test_families.py::test_condition_5_reports_s_other_than_b_plus_c"],
    },
    # The loader also builds the builtin families from their documents.
    {
        "name": "family loader skips the check of the declared prefix terms",
        "file": "src/qcatalan/families.py",
        "snippet": "term(k)",
        "replacement": "pass",
        "tests": ["tests/test_families.py"],
    },
    {
        "name": "family loader accepts a name that would break CSV",
        "file": "src/qcatalan/families.py",
        "snippet": "if bad is not None:",
        "replacement": "if False:",
        "tests": ["tests/test_cli.py::test_family_name_that_would_break_csv_is_family_error"],
    },
    {
        "name": "family loader takes any iterable for a polynomial",
        "file": "src/qcatalan/families.py",
        "snippet": "if not isinstance(obj, list):",
        "replacement": "if False:",
        "tests": ["tests/test_families.py"],
    },
    # Two cells that share their constant term would share a content label.
    {
        "name": "sweep labels each cell by its constant term only",
        "file": "src/qcatalan/immanant.py",
        "snippet": "labels.setdefault(cell, len(labels))",
        "replacement": "labels.setdefault(cell.coeffs[:1], len(labels))",
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_matches_per_selection_oracle_on_colliding_contents"
        ],
    },
    {
        "name": "dead-support fields flag their zero values negative",
        "file": "src/qcatalan/immanant.py",
        "snippet": "(lam, 0, True, 0, True) for lam, _, _ in _shapes(s)",
        "replacement": "(lam, 0, False, 0, True) for lam, _, _ in _shapes(s)",
        "tests": ["tests/test_immanant.py::test_zero_contents_of_one_size_share_one_fields_tuple"],
    },
    # Zero contents of every size at one position hand one size's lambdas
    # to the next.
    {
        "name": "sweep files the zero contents of every size at one position",
        "file": "src/qcatalan/immanant.py",
        "snippet": (
            "elif s in zeros:\n"
            "                k = zeros[s]\n"
            "            else:\n"
            "                k = zeros[s] = len(contents)"
        ),
        "replacement": (
            "elif 0 in zeros:\n"
            "                k = zeros[0]\n"
            "            else:\n"
            "                k = zeros[0] = len(contents)"
        ),
        "tests": ["tests/test_immanant.py::test_zero_contents_of_one_size_share_one_fields_tuple"],
    },
    # A live support whose class sums cancel, marked dead, hands a later
    # content on the same support zeros for its nonzero values.
    {
        "name": "sweep marks a support dead when its class sums are all 0",
        "file": "src/qcatalan/immanant.py",
        "snippet": "contents.append(_reports(s, _run(plan, [packed[x] for x in key]), verdicts))",
        "replacement": (
            "sums = _run(plan, [packed[x] for x in key])\n"
            "                if not any(sums):\n"
            "                    plans[support] = None\n"
            "                contents.append(_reports(s, sums, verdicts))"
        ),
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_tells_a_dead_support_from_class_sums_that_cancel"
        ],
    },
    {
        "name": "sweep keys its plans by content, so each content plans afresh",
        "file": "src/qcatalan/immanant.py",
        "snippet": "support = tuple(map(bool, key))",
        "replacement": "support = key",
        "tests": ["tests/test_immanant.py::test_each_support_is_planned_once_per_sweep"],
    },
    # A plan reads each entry at its position in the plan's orientation: on
    # a support that is not symmetric, cells gathered the other way feed it
    # zeros where it multiplies nonzero entries.
    {
        "name": "sweep runs a plan keyed row-major on cells gathered column-major",
        "file": "src/qcatalan/immanant.py",
        "snippet": "[packed[x] for x in key]",
        "replacement": "[packed[ids[i][j]] for j in cols for i in rows]",
        "tests": [
            "tests/test_immanant.py::test_sweep_runs_a_plan_on_cells_in_its_key_orientation"
        ],
    },
    # The outputs are the same without the transposed lookup, since a
    # submatrix and its transpose have the same reports: only the count of
    # contents shows it.
    {
        "name": "sweep looks up no transposed key when the row-major one misses",
        "file": "src/qcatalan/immanant.py",
        "snippet": "k = by_content.get(tuple([ids[i][j] for j in cols for i in rows]))",
        "replacement": "pass",
        "tests": [
            "tests/test_immanant.py::"
            "test_sweep_of_a_symmetric_matrix_stores_a_content_and_its_transpose_once"
        ],
    },
    {
        "name": "class-sum replay drops the last multiply-add",
        "file": "src/qcatalan/immanant.py",
        "snippet": "for d, a, b in zip(it, it, it):",
        "replacement": "for d, a, b in list(zip(it, it, it))[:-1]:",
        "tests": [
            "tests/test_immanant.py::test_class_sums_match_permutation_oracle_on_random_grids"
        ],
    },
    # The register of a cycle type no permutation has must stay 0.
    {
        "name": "class-sum planner hands out the zero register as a fresh one",
        "file": "src/qcatalan/immanant.py",
        "snippet": "fresh = count(2 + n * n).__next__",
        "replacement": "fresh = count(1 + n * n).__next__",
        "tests": ["tests/test_immanant.py::test_one_plan_runs_every_grid_of_its_support"],
    },
    # A packed value means a polynomial, and so a verdict, only at its
    # sweep's digit width.
    {
        "name": "sweep decode memo kept across sweeps in a module-level dict",
        "file": "src/qcatalan/immanant.py",
        "snippet": "verdicts = _Memo(lambda value: (value, _nonnegative(value, bits)))",
        "replacement": (
            'verdicts = globals().setdefault('
            '"_VERDICTS", _Memo(lambda value: (value, _nonnegative(value, bits))))'
        ),
        "tests": [
            "tests/test_immanant.py::"
            "test_sweeps_at_other_digit_widths_take_their_own_verdicts"
        ],
    },
    # A negative top digit lies past a one-digit mask, and a negative value
    # always has one.
    {
        "name": "packed verdict masks the lowest digit only",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "_offset(bits, 1 << (count - 1).bit_length())",
        "replacement": "_offset(bits, 1)",
        "tests": ["tests/test_packing.py::test_packed_verdict_at_its_edges"],
    },
    {
        "name": "packed verdict is always q-nonnegative",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "return not value & _offset(bits, 1 << (count - 1).bit_length())",
        "replacement": "return True",
        "tests": [
            "tests/test_packing.py::test_packed_verdict_at_its_edges",
            "tests/test_cli.py::test_verify_detects_violation",
        ],
    },
    # Equal values of a sweep share one QPoly, a zero one ZERO itself.
    {
        "name": "value memo computes every lookup afresh",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "value = self[key] = self.fn(key)",
        "replacement": "value = self.fn(key)",
        "tests": [
            "tests/test_immanant.py::test_equal_values_and_gaps_of_one_sweep_are_one_qpoly"
        ],
    },
    {
        "name": "_unpack of 0 makes a new zero polynomial",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "    if not value:\n        return ZERO\n",
        "replacement": "",
        "tests": ["tests/test_qpoly.py::test_unpack_of_zero_is_the_zero_singleton"],
    },
    # A state of one cycle, reached from mask 1, is not the first step's:
    # aliasing it drops the fixed point's factor.
    {
        "name": "class-sum planner aliases the states one step past the first",
        "file": "src/qcatalan/immanant.py",
        "snippet": "if mask:",
        "replacement": "if mask > 1:",
        "tests": [
            "tests/test_immanant.py::test_class_sums_match_permutation_oracle_on_random_grids"
        ],
    },
    {
        "name": "triangle looks a term up once per entry that reads it",
        "file": "src/qcatalan/csmatrix.py",
        "snippet": "r, s, t = cache(f.r), cache(f.s), cache(f.t)",
        "replacement": "r, s, t = f.r, f.s, f.t",
        "tests": ["tests/test_csmatrix.py::test_triangle_reads_each_term_at_most_once"],
    },
    # The packed triangle: a digit too narrow or a term applied wrongly
    # garbles the unpacked entries, which the QPoly recurrence catches.
    {
        "name": "triangle digit width one byte short",
        "file": "src/qcatalan/csmatrix.py",
        "snippet": "bits = _width(bound)",
        "replacement": "bits = _width(bound) - 8",
        "tests": ["tests/test_csmatrix.py::test_triangle_matches_the_qpoly_oracle"],
    },
    {
        "name": "triangle applies a term's coefficients without their shifts",
        "file": "src/qcatalan/csmatrix.py",
        "snippet": "value += (x if c == 1 else x * c) << shift",
        "replacement": "value += x if c == 1 else x * c",
        "tests": ["tests/test_csmatrix.py::test_triangle_matches_the_qpoly_oracle"],
    },
    {
        "name": "triangle adds a unit coefficient without its shift",
        "file": "src/qcatalan/csmatrix.py",
        "snippet": "value += (x if c == 1 else x * c) << shift",
        "replacement": "value += x if c == 1 else x * c << shift",
        "tests": ["tests/test_csmatrix.py::test_triangle_matches_the_qpoly_oracle"],
    },
    {
        "name": "triangle applies only a term's first nonzero coefficient",
        "file": "src/qcatalan/csmatrix.py",
        "snippet": "for c, shift in term:",
        "replacement": "for c, shift in term[:1]:",
        "tests": ["tests/test_csmatrix.py::test_triangle_matches_the_qpoly_oracle"],
    },
    # chi_m without its shifted column is Delta_m, so every s_0 + ... + s_m
    # reads 1.
    {
        "name": "J-fraction oracle leaves chi_m's last column unshifted",
        "file": "tests/oracles.py",
        "snippet": "a[i + j + (j == m)]",
        "replacement": "a[i + j]",
        "tests": [
            "tests/test_csmatrix.py::test_jfraction_recovers_the_recurrence_from_the_moments"
        ],
    },
    # H depends on r and t only through r_{k-1} t_k, so an up step weighed
    # one index high changes H_f but not the H of the family with r = 1.
    {
        "name": "triangle weighs an up step from height k-1 by r_k",
        "file": "src/qcatalan/csmatrix.py",
        "snippet": "times(r(k - 1), prev[k - 1])",
        "replacement": "times(r(k), prev[k - 1])",
        "tests": ["tests/test_csmatrix.py::test_hankel_of_the_normalized_family_is_the_same"],
    },
    {
        "name": "Qbar vertices drawn in the P column",
        "file": "src/qcatalan/network.py",
        "snippet": '"Qbar": _Kind(3, "Q", "Qb", 1, True)',
        "replacement": '"Qbar": _Kind(3, "Q", "Qb", 0, True)',
        "tests": ["tests/test_network.py", "tests/test_golden_json.py"],
    },
    # The packed network check: a width that holds only the matrix lets a
    # wrong GF entry pack like the right one, and a row compared only up to
    # its diagonal misses a path that C_n does not have.
    {
        "name": "network check keeps the matrix's width when a sink bound needs more",
        "file": "src/qcatalan/network.py",
        "snippet": "if wide > bits:",
        "replacement": "if False:",
        "tests": [
            "tests/test_network.py::"
            "test_packed_check_finds_an_entry_that_aliases_at_the_matrix_width"
        ],
    },
    # The largest entry alone holds the matrix but not the sinks' bounds,
    # which pool every source.
    {
        "name": "packed matrix bound takes the largest entry, not column sum",
        "file": "src/qcatalan/csmatrix.py",
        "snippet": "max(map(sum, zip(*_shape(norms, n, is_hankel, 0))))",
        "replacement": "max(map(max, zip(*_shape(norms, n, is_hankel, 0))))",
        "tests": [
            "tests/test_network.py::"
            "test_check_packs_once_at_the_width_of_the_largest_column_sum"
        ],
    },
    # _shape lays out both the decoded matrices and the network check's
    # packed ones, so each fault shows on both routes.
    {
        "name": "C_n padded with zeros on the left of each row",
        "file": "src/qcatalan/csmatrix.py",
        "snippet": "row + [zero] * (n - i)",
        "replacement": "[zero] * (n - i) + row",
        "tests": [
            "tests/test_csmatrix.py::test_narayana_corner_frozen",
            "tests/test_network.py::test_packed_check_reads_the_entries_above_the_diagonal",
        ],
    },
    {
        "name": "H_n reads a_{i+j+1}, clamped to the last row",
        "file": "src/qcatalan/csmatrix.py",
        "snippet": "rows[i + j][0]",
        "replacement": "rows[min(i + j + 1, 2 * n)][0]",
        "tests": [
            "tests/test_csmatrix.py::test_hankel_layout",
            "tests/test_network.py::test_check_compares_at_the_width_of_the_larger_bound",
        ],
    },
    {
        "name": "network check skips the entries above the diagonal",
        "file": "src/qcatalan/network.py",
        "snippet": "if got != want:",
        "replacement": "if got[: i + 1] != want[: i + 1]:",
        "tests": ["tests/test_network.py::test_packed_check_reads_the_entries_above_the_diagonal"],
    },
    # tests/test_cli.py as a whole also runs the console-script test, which
    # needs the installed package, so the mutant names its test.
    {
        "name": "a network of zero layers takes a case list of any length",
        "file": "src/qcatalan/cli.py",
        "snippet": "if len(values) == 1:",
        "replacement": "if len(values) == 1 or not layers:",
        "tests": ["tests/test_cli.py::test_network_case_list_at_zero_layers_is_config_error"],
    },
    {
        "name": "glue accepts a left sink with outgoing arcs",
        "file": "src/qcatalan/network.py",
        "snippet": "if x._adj[v]:",
        "replacement": "if False:",
        "tests": ["tests/test_network.py"],
    },
    {
        "name": "network JSON vertex memo keyed without its indentation",
        "file": "src/qcatalan/cli.py",
        "snippet": 'top, nested = objects("\\n    "), objects("\\n      ")',
        "replacement": 'top = nested = objects("\\n    ")',
        "tests": [
            "tests/test_cli.py::test_network_writer_matches_json_dumps_on_hand_built_networks"
        ],
    },
    {
        "name": "JSON int list renders an empty list, a zero weight's, as an open list",
        "file": "src/qcatalan/cli.py",
        "snippet": '    if not values:\n        return "[]"\n',
        "replacement": "",
        "tests": [
            "tests/test_cli.py::test_network_writer_matches_json_dumps_on_hand_built_networks"
        ],
    },
    {
        "name": "inequality triples may repeat an index",
        "file": "src/qcatalan/immanant.py",
        "snippet": "if not (0 <= a < b < c):",
        "replacement": "if not (0 <= a <= b <= c):",
        "tests": ["tests/test_immanant.py::test_inequality_index_validation"],
    },
    # Sampled draws make the generator calls of Random.choices and
    # Random.sample themselves; each mutant shifts or reorders those calls.
    {
        "name": "sampled index tries draw one bit fewer at a power-of-two bound",
        "file": "src/qcatalan/immanant.py",
        "snippet": "tuple((m, m.bit_length()) for m in bounds)",
        "replacement": "tuple((m, (m - 1).bit_length()) for m in bounds)",
        "tests": ["tests/test_immanant.py::test_sampled_selections_match_per_draw_weights"],
    },
    {
        "name": "sampled draws leave the pool branch one index early",
        "file": "src/qcatalan/immanant.py",
        "snippet": "pooled = n <= setsize",
        "replacement": "pooled = n < setsize",
        "tests": ["tests/test_immanant.py::test_sampled_selections_match_per_draw_weights"],
    },
    {
        "name": "sampled pool fills the vacancy from one slot past its untaken indices",
        "file": "src/qcatalan/immanant.py",
        "snippet": "pool[j] = pool[m - 1]",
        "replacement": "pool[j] = pool[min(m, n - 1)]",
        "tests": ["tests/test_immanant.py::test_sampled_selections_match_per_draw_weights"],
    },
    {
        "name": "sampled draws take the cols before the rows",
        "file": "src/qcatalan/immanant.py",
        "snippet": "rows = draw(steps)\n        cols = draw(steps)",
        "replacement": "cols = draw(steps)\n        rows = draw(steps)",
        "tests": ["tests/test_immanant.py::test_sampled_selections_match_per_draw_weights"],
    },
    # A sweep's selections are pairs of positions into its index-set tables.
    {
        "name": "sampled column positions taken from the row table",
        "file": "src/qcatalan/immanant.py",
        "snippet": "col_at.setdefault(cols, len(col_at))",
        "replacement": "row_at.setdefault(cols, len(row_at))",
        "tests": ["tests/test_immanant.py::test_sampled_selections_match_per_draw_weights"],
    },
    {
        "name": "exhaustive block pairs each set with the sets of every size so far",
        "file": "src/qcatalan/immanant.py",
        "snippet": "block = range(len(sets), len(sets) + comb(n, s))",
        "replacement": "block = range(len(sets) + comb(n, s))",
        "tests": [
            "tests/test_immanant.py::"
            "test_exhaustive_selections_pair_every_combination_within_its_size"
        ],
    },
    {
        "name": "families imports dataclasses again",
        "file": "src/qcatalan/families.py",
        "snippet": "import json\n",
        "replacement": "import dataclasses\nimport json\n",
        "tests": ["tests/test_records.py::test_importing_the_cli_loads_no_dataclasses"],
    },
    {
        "name": "record equality ignores the last field",
        "file": "src/qcatalan/qpoly.py",
        "snippet": "return self._values() == other._values()",
        "replacement": "return self._values()[:-1] == other._values()[:-1]",
        "tests": [
            "tests/test_immanant.py::test_each_support_is_planned_once_per_sweep",
            "tests/test_records.py::test_value_classes_compare_and_hash_by_field",
        ],
    },
    {
        "name": "record assignment stores instead of raising",
        "file": "src/qcatalan/qpoly.py",
        "snippet": 'raise AttributeError(f"cannot assign to field {name!r}")',
        "replacement": "object.__setattr__(self, name, value)",
        "tests": ["tests/test_records.py::test_records_refuse_assignment_and_deletion"],
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


def _tests_pass(dest: Path, tests: list[str], expected: bool) -> tuple[bool, str]:
    """Whether the tests pass, and pytest's output; exits 2 on any other end.

    An outcome other than ``expected`` (an unmutated copy that fails, a
    mutant that survives) prints the tail of pytest's output, skip reasons
    included, so that the log says why.
    """
    argv = ["-q", "-x", "-p", "no:cacheprovider", "-rfEs", *tests]
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
    passed = proc.returncode == 0
    if passed != expected:
        print("\n".join(proc.stdout.splitlines()[-TAIL_LINES:]), file=sys.stderr)
    return passed, proc.stdout


def main() -> int:
    # a mutant only counts as killed if its tests pass on the unmutated copy
    every_test = sorted({test for mutant in MUTANTS for test in mutant["tests"]})
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(Path(tmp))
        if not _tests_pass(Path(tmp), every_test, expected=True)[0]:
            print(f"error: {' '.join(every_test)} fail without any mutant", file=sys.stderr)
            return 2
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            dest = Path(tmp)
            _copy_tree(dest)
            _apply(mutant, dest)
            survived, output = _tests_pass(dest, mutant["tests"], expected=False)
        if not survived and NAME_ERROR.search(output):
            print("\n".join(output.splitlines()[-TAIL_LINES:]), file=sys.stderr)
            print(
                f"error: mutant {mutant['name']!r}: its tests fail with a NameError, not on "
                "its fault; update its entry in tests/mutants.py",
                file=sys.stderr,
            )
            return 2
        verdict = "SURVIVED" if survived else "killed"
        print(f"{verdict:8}  {time.perf_counter() - start:5.1f} s  {mutant['name']}")
        if survived:
            survivors.append(mutant["name"])
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
