"""Command-line driver for matrices, networks, sweeps, characters, inequalities.

Exit codes: 0 success, 2 configuration error, 3 family error, 4 network
check failure, 5 positivity violation. An error's class decides between 2
and 3: a ``FamilyError`` exits 3; a ``ValueError`` (every other error in
``qcatalan.errors``) or an ``OSError`` exits 2. Any other exception, such
as an ``IndexError`` from a bug, propagates.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import NamedTuple

from .csmatrix import CSMatrix, _packed_matrix, catalan_like, catalan_stieltjes, hankel, submatrix
from .errors import FamilyError, OutOfRange, SchemaError, UnknownFamily
from .families import BUILTIN_NAMES, WEIGHT_CASES, FamilySpec, builtin, load_family
from .immanant import (
    Fields,
    SweepResult,
    _inequality_sweep,
    inequality_331,
    inequality_332,
    positivity_sweep,
)
from .network import (
    _first_mismatch,
    _json_order,
    build_cs_network,
    build_hankel_factored,
    build_hankel_network,
    export_dot,
)
from .qpoly import QPoly, _Memo, _canonical, _str_bound
from .symchar import character_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAMILY = 3
EXIT_NETWORK = 4
EXIT_POSITIVITY = 5

MAX_CHARS_N = 12


def _resolve_family(value: str) -> FamilySpec:
    if value in BUILTIN_NAMES:
        return builtin(value)
    path = Path(value)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"family file {value!r} is not UTF-8 text: {exc}") from None
        return load_family(text)
    raise UnknownFamily(
        f"{value!r} is neither a builtin family ({', '.join(BUILTIN_NAMES)}) "
        "nor an existing file"
    )


def _parse_index_list(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise ValueError(f"{label} must be a comma-separated int list, got {text!r}")


def _parse_cases(text: str, layers: int) -> tuple[int, ...]:
    parts = [p for p in text.split(",") if p]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"--case must list ints 1..5, got {text!r}") from None
    for v in values:
        if v not in WEIGHT_CASES:
            raise ValueError(f"weight case must be 1..5, got {v}")
    if len(values) == 1:
        return tuple(values * layers)
    if len(values) != layers:
        raise ValueError(
            f"--case needs 1 value or exactly {layers} values, got {len(values)}"
        )
    return tuple(values)


def _column_widths(grid, held: dict) -> list[int]:
    """The length of the longest text in each column of ``grid``, rendering few cells.

    A column visits its cells in decreasing order of an upper bound on
    their lengths (``_str_bound``) and renders a cell only while its bound
    exceeds the longest text so far; each text rendered is left in ``held``
    under the cell's id, for the cell's row.
    """
    distinct = {id(cell): cell for cell in chain.from_iterable(grid)}
    bound = dict(zip(distinct, map(_str_bound, distinct.values())))
    widths = []
    for column in zip(*grid):
        bounds = list(map(bound.__getitem__, map(id, column)))
        width = 0
        for i in sorted(range(len(column)), key=bounds.__getitem__, reverse=True):
            if bounds[i] <= width:
                break
            key = id(column[i])
            if key not in held:
                held[key] = str(column[i])
            width = max(width, len(held[key]))
        widths.append(width)
    return widths


def _held_texts(uses: dict, held: dict):
    """``text(key, render, *args)``: ``render(*args)`` on a key's first use,
    held in ``held`` while ``uses`` counts a use of the key still to come."""

    def text(key, render, *args) -> str:
        uses[key] -= 1
        if key in held:
            return held[key] if uses[key] else held.pop(key)
        rendered = render(*args)
        if uses[key]:
            held[key] = rendered
        return rendered

    return text


def _write_grid(entries, sep: str, pad: bool) -> None:
    """Write the rows of ``entries`` to stdout, one line each, cells joined by ``sep``.

    A stream: each row is rendered and written before the next, so about
    one row of texts is alive at a time.  Each distinct cell (object) is
    rendered once, and its text is held only until its last use: a cell
    that occurs once is rendered when its row is written and then dropped,
    and one that repeats (a Hankel antidiagonal, the zeros above a
    triangle's diagonal) is held until its last row.  With ``pad`` every
    cell is right-justified to its column's widest, which
    ``_column_widths`` finds from length bounds and a few rendered cells.
    An empty grid prints one empty line without ``pad`` (CSV) and nothing
    with it (text).
    """
    write = sys.stdout.write
    grid = [*map(tuple, entries)]
    if not grid:
        if not pad:
            write("\n")
        return
    # keyed by id: every cell stays alive in grid
    uses = Counter(map(id, chain.from_iterable(grid)))
    held: dict[int, str] = {}  # a cell's text, while a use of it is still to be written
    text = _held_texts(uses, held)
    # a width of 0 leaves every cell as it is
    widths = _column_widths(grid, held) if pad else repeat(0)
    for row in grid:
        # the new line goes out alone: appending it would copy the whole line
        write(sep.join(map(str.rjust, [text(id(cell), str, cell) for cell in row], widths)))
        write("\n")


_INT_ONLY = {int}
_FLAGS = ("false", "true")  # a bool's text in JSON and CSV, indexed by the bool


def _ints(values, nl: str) -> str:
    """The ints ``values`` as the JSON list that ``json.dumps(indent=2)`` writes.

    ``nl`` is the new line and indent of the line the list starts on; its
    items go one level deeper.
    """
    if not values:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, values)) + nl + "]"


class _Reports(NamedTuple):
    """A sweep's reports of the fields in ``contents``, which a JSON document lists."""

    result: SweepResult
    contents: tuple[tuple[Fields, ...], ...]  # the sweep's contents, or a cut at their positions


def _write_json(doc) -> None:
    """Write ``doc`` to stdout exactly as ``json.dumps(doc, indent=2) + "\\n"``.

    A document holds dicts with str keys, lists, str, int, bool, None and
    ``QPoly``, which renders as its coefficient list; anything else (a
    float, a non-str key) raises TypeError. A polynomial object that
    repeats at one indent is rendered once there, and its text is held only
    until its last use (``_held_texts``): a Hankel matrix renders each
    antidiagonal once, and a document whose values do not repeat holds no
    text.

    A ``_Reports`` stands for the list of its sweep's reports, each a
    report's JSON object with its ``"provenance"`` (family, kind, rows and
    cols) last. Each shape of each content is rendered once, as a body, in
    which each distinct polynomial and each lambda is rendered once
    (``_Memo``), and each row set and column set once; a report is then
    joined from its selection's body and the texts at the selection's
    positions. Each piece is written into stdout's buffer as it is rendered,
    so the whole text is never held (and a document that fails part way has
    already written its first pieces).
    """
    write = sys.stdout.write
    uses: dict = {}  # keyed by id and indent: doc keeps every polynomial alive

    def count(v, nl: str) -> None:  # the uses in a list or dict whose items sit at nl
        for x in v if type(v) is list else v.values():
            t = type(x)
            if t is QPoly:
                uses[id(x), nl] = uses.get((id(x), nl), 0) + 1
            elif t is list or t is dict:
                count(x, nl + "  ")

    if type(doc) is list or type(doc) is dict:
        count(doc, "\n  ")
    # only a repeated polynomial goes through the held texts
    uses = {key: n for key, n in uses.items() if n > 1}
    text = _held_texts(uses, {})

    def reports(spec: _Reports, nl: str) -> None:
        result = spec.result
        inner = nl + "  "
        deeper = inner + "  "
        field = deeper + "  "  # a provenance's fields
        # keyed by tuples, which hash in C: the coefficients, and each shape
        lists = _Memo(lambda key: _ints(key, deeper)).__getitem__
        # a report's object up to its provenance, the last field, left open
        bodies = [
            [
                f'{{{deeper}"lambda": {lists(lam)},'
                f'{deeper}"value": {lists(value.coeffs)},{deeper}"q_nonnegative": {_FLAGS[q]},'
                f'{deeper}"dominance_gap": {lists(gap.coeffs)},'
                f'{deeper}"gap_nonnegative": {_FLAGS[g]},{deeper}"provenance": '
                for lam, value, q, gap, g in shapes
            ]
            for shapes in spec.contents
        ]
        prefix = (
            f'{{{field}"family": {_quote(result.family)},'
            f'{field}"kind": {_quote(result.kind)},{field}"rows": '
        )
        row_texts = [prefix + _ints(rows, field) for rows in result.row_sets]
        mid, close = "," + field + '"cols": ', deeper + "}" + inner + "}"
        col_texts = [mid + _ints(cols, field) + close for cols in result.col_sets]
        first = sep = "[" + inner
        for r, c, k in result.rows:
            head = row_texts[r] + col_texts[c]
            for text in bodies[k]:
                write(sep + text + head)
                sep = "," + inner
        write("[]" if sep == first else nl + "]")

    def emit(v, nl: str) -> None:
        t = type(v)
        if t is list:
            # exact types: a bool is an int but renders as true/false
            if not v or {*map(type, v)} == _INT_ONLY:
                write(_ints(v, nl))
                return
            inner = nl + "  "
            write("[" + inner)
            comma = "," + inner
            for i, x in enumerate(v):
                if i:
                    write(comma)
                emit(x, inner)
            write(nl + "]")
        elif t is QPoly:
            key = id(v), nl
            write(text(key, _ints, v.coeffs, nl) if key in uses else _ints(v.coeffs, nl))
        elif t is str:
            write(_quote(v))
        elif t is int:
            write(int.__repr__(v))
        elif t is dict:
            if not v:
                write("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for k, x in v.items():
                if type(k) is not str:
                    raise TypeError(f"JSON keys must be str, not {type(k).__name__}")
                write(sep + _quote(k) + ": ")
                sep = "," + inner
                emit(x, inner)
            write(nl + "}")
        elif t is bool:
            write(_FLAGS[v])
        elif v is None:
            write("null")
        elif t is _Reports:
            reports(v, nl)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    emit(doc, "\n")
    write("\n")


def _write_network_json(net) -> None:
    """Write ``json.dumps(net.to_json_dict(), indent=2) + "\\n"`` without building the dict.

    Each vertex's object is rendered once at each of its two depths, in
    the top-level lists and inside an arc, and each distinct weight once
    (``_Memo``). Each list item, an arc included, goes out in one write, so
    the whole text is never held.
    """
    vertices, arcs = _json_order(net)
    write = sys.stdout.write

    def objects(nl: str) -> dict:
        inner = nl + "  "
        return {
            v: f'{{{inner}"kind": {_quote(v.kind)},{inner}"level": {int.__repr__(v.level)},'
            f'{inner}"height": {int.__repr__(v.height)}{nl}}}'
            for v in vertices
        }

    top, nested = objects("\n    "), objects("\n      ")
    weights = _Memo(lambda coeffs: _ints(coeffs, "\n      "))

    def arc_texts():
        for tail, head, weight in arcs:
            yield (
                f'{{\n      "tail": {nested[tail]},\n      "head": {nested[head]},'
                f'\n      "weight": {weights[weight.coeffs]}\n    }}'
            )

    def listing(head: str, texts) -> None:
        write(head)
        sep = first = "[\n    "
        for text in texts:
            write(sep + text)
            sep = ",\n    "
        write("[]" if sep == first else "\n  ]")

    listing('{\n  "vertices": ', map(top.__getitem__, vertices))
    listing(',\n  "arcs": ', arc_texts())
    listing(',\n  "sources": ', map(top.__getitem__, net.sources))
    listing(',\n  "sinks": ', map(top.__getitem__, net.sinks))
    write("\n}\n")


def _maybe_submatrix(m: CSMatrix, args) -> CSMatrix:
    if args.rows is None and args.cols is None:
        return m
    if args.rows is None or args.cols is None:
        raise ValueError("--rows and --cols must be given together")
    return submatrix(
        m,
        _parse_index_list(args.rows, "--rows"),
        _parse_index_list(args.cols, "--cols"),
    )


def cmd_matrix(args) -> int:
    """The ``matrix`` (C_n) and ``hankel`` (H_n) subcommands."""
    f = _resolve_family(args.family)
    m = catalan_stieltjes(f, args.n) if args.command == "matrix" else hankel(f, args.n)
    m = _maybe_submatrix(m, args)
    if args.format == "json":
        doc = {
            "kind": m.kind,
            "family": m.family.name,
            "rows": list(m.row_indices),
            "cols": list(m.col_indices),
            "entries": list(map(list, m.entries)),
        }
        _write_json(doc)
    elif args.format == "csv":
        _write_grid(m.entries, ",", False)
    else:
        _write_grid(m.entries, "  ", True)
    return EXIT_OK


def cmd_network(args) -> int:
    f = _resolve_family(args.family)
    n, k = args.n, args.k
    if k and not args.hankel_induced:
        raise ValueError(f"--k applies only to --hankel-induced, got --k {k}")
    cases = _parse_cases(args.case, 2 * n + k if args.hankel_induced else n)
    if args.hankel_factored:
        net = build_hankel_factored(f, n, cases)
        is_hankel, what = True, "factored Hankel network"
    elif args.hankel_induced:
        net = build_hankel_network(f, n, k, cases)
        is_hankel, what = True, "induced Hankel network"
    else:
        net = build_cs_network(f, n, cases)
        is_hankel, what = False, "layered network"

    rc = EXIT_OK
    check_line = None
    if args.check:
        mismatch = _first_mismatch(net, *_packed_matrix(f, n, is_hankel))
        if mismatch is None:
            check_line = f"check: pass ({what} matches the matrix for {f.name}, n={n})"
        else:
            i, j, got, want = mismatch
            check_line = f"check: fail ({what} entry ({i},{j}) is {got}, matrix has {want})"
            rc = EXIT_NETWORK

    if args.check and args.format is None:
        print(check_line)
        return rc
    fmt = args.format or "dot"
    if fmt == "json":
        _write_network_json(net)
    else:
        sys.stdout.write(export_dot(net))
    if check_line is not None:
        print(check_line, file=sys.stderr)
    return rc


def _report_count(result: SweepResult) -> int:
    sizes = list(map(len, result.contents))
    return sum(sizes[k] for _, _, k in result.rows)


def _sweep_json(args, f: FamilySpec, result: SweepResult) -> dict:
    """The ``verify --format json`` document; its reports are left for ``_write_json``."""
    return {
        "family": f.name,
        "matrix": args.matrix,
        "n": args.n,
        "max_size": args.max_size,
        "seed": result.seed,
        "exhaustive": result.exhaustive,
        "total_candidates": result.total_candidates,
        "report_count": _report_count(result),
        "ok": result.ok,
        "violations": [] if result.ok else _Reports(result, result.failing),
        "reports": _Reports(result, result.contents),
    }


def _sweep_csv(result: SweepResult) -> None:
    """Write ``result`` to stdout as CSV, one line per report.

    Each row set and column set is rendered once, and each shape of each
    content once, as a body (lambda, value and gap with their flags), in
    which each distinct polynomial and each lambda is rendered once
    (``_Memo``); a line is its selection's head (family, kind, rows, cols),
    joined from the texts at the selection's positions, then one of its
    content's bodies.
    """
    write = sys.stdout.write
    write("family,kind,rows,cols,lambda,value,q_nonnegative,dominance_gap,gap_nonnegative\n")
    prefix = f"{result.family},{result.kind},"
    row_texts = [prefix + "|".join(map(str, rows)) + "," for rows in result.row_sets]
    col_texts = ["|".join(map(str, cols)) + "," for cols in result.col_sets]
    # keyed by tuples, which hash in C: the coefficients, and each shape
    render = _Memo(lambda coeffs: str(_canonical(coeffs))).__getitem__
    shape = _Memo(lambda lam: "|".join(map(str, lam))).__getitem__
    bodies = [
        [
            f"{shape(lam)},{render(value.coeffs)},{_FLAGS[q]},"
            f"{render(gap.coeffs)},{_FLAGS[g]}\n"
            for lam, value, q, gap, g in shapes
        ]
        for shapes in result.contents
    ]
    for r, c, k in result.rows:
        head = row_texts[r] + col_texts[c]
        for line in bodies[k]:
            write(head + line)


def cmd_verify(args) -> int:
    f = _resolve_family(args.family)
    m = catalan_stieltjes(f, args.n) if args.matrix == "C" else hankel(f, args.n)
    result = positivity_sweep(m, args.max_size, seed=args.seed)
    if args.format == "json":
        _write_json(_sweep_json(args, f, result))
    elif args.format == "csv":
        _sweep_csv(result)
    else:
        mode = "exhaustive" if result.exhaustive else f"sampled (seed {result.seed})"
        print(
            f"swept {_report_count(result)} immanant reports over "
            f"{result.total_candidates} candidate submatrices ({mode})"
        )
        if result.ok:
            print("all immanants and dominance gaps are q-nonnegative")
        else:
            for r, c, k in result.rows:
                for lam, value, _, gap, _ in result.failing[k]:
                    print(
                        f"violation: rows={list(result.row_sets[r])} "
                        f"cols={list(result.col_sets[c])} "
                        f"lambda={list(lam)} value={value} gap={gap}"
                    )
    return EXIT_OK if result.ok else EXIT_POSITIVITY


def _diagonal_331(v332: QPoly) -> QPoly:
    """``inequality_331`` at rows = cols = (i, j, k), given ``inequality_332`` there: twice it."""
    return _canonical(tuple([2 * c for c in v332.coeffs]))


def cmd_inequality(args) -> int:
    f = _resolve_family(args.family)
    if (args.rows is None) != (args.cols is None):
        raise ValueError("--rows and --cols must be given together")
    single = args.rows is not None or args.triple is not None
    if args.format == "json" and single:
        raise ValueError("--format json applies only to the --max-index sweep")
    if args.show and single:
        raise ValueError("--show applies only to the --max-index sweep")
    if args.show and args.format == "json":
        raise ValueError(
            "--show applies only to the text --max-index sweep; "
            "JSON entries always carry both values"
        )

    if args.rows is not None:
        rows = tuple(args.rows)
        cols = tuple(args.cols)
        # clamped so that a negative index reaches the triple check below
        a = catalan_like(f, max(rows[-1], 0) + max(cols[-1], 0))
        value = inequality_331(a, rows, cols)
        ok = value.is_q_nonnegative()
        print(f"rows={list(rows)} cols={list(cols)} value={value} q_nonnegative={ok}")
        return EXIT_OK if ok else EXIT_POSITIVITY

    if args.triple is not None:
        i, j, k = args.triple
        a = catalan_like(f, 2 * max(k, 0))  # a negative k fails the triple check
        value = inequality_332(a, i, j, k)
        ok = value.is_q_nonnegative()
        print(f"triple=({i},{j},{k}) value={value} q_nonnegative={ok}")
        return EXIT_OK if ok else EXIT_POSITIVITY

    top = 5 if args.max_index is None else args.max_index
    if top < 2:
        raise ValueError(f"--max-index must be >= 2, got {top}")
    a = catalan_like(f, 2 * top)
    entries = [(t, v332, v332.is_q_nonnegative()) for t, v332 in _inequality_sweep(a, top)]
    all_ok = all(ok for _, _, ok in entries)
    if args.format == "json":
        payload = {
            "family": f.name,
            "max_index": top,
            "ok": all_ok,
            "entries": [
                {
                    "triple": list(t),
                    "value_332": v332,
                    "value_331_diagonal": _diagonal_331(v332),
                    "q_nonnegative": ok,
                }
                for t, v332, ok in entries
            ],
        }
        _write_json(payload)
    else:
        for t, v332, ok in entries:
            line = f"triple=({t[0]},{t[1]},{t[2]}) q_nonnegative={ok}"
            if args.show:
                line += f" value_332={v332} value_331_diagonal={_diagonal_331(v332)}"
            print(line)
        print(f"checked {len(entries)} triples: {'all' if all_ok else 'NOT all'} q-nonnegative")
    return EXIT_OK if all_ok else EXIT_POSITIVITY


def _format_partition(p) -> str:
    return "(" + ",".join(map(str, p)) + ")"


def cmd_chars(args) -> int:
    if not 0 <= args.n <= MAX_CHARS_N:
        raise OutOfRange(f"--n must be between 0 and {MAX_CHARS_N}, got {args.n}")
    table = character_table(args.n)
    if args.format == "json":
        _write_json(table.to_json_dict())
        return EXIT_OK
    header = ["shape\\class"] + [_format_partition(mu) for mu in table.shapes]
    rows = [[_format_partition(lam), *table.row(lam)] for lam in table.shapes]
    _write_grid([header] + rows, "  ", True)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcatalan",
        description=(
            "Exact q-polynomial recurrence matrices, the planar networks that "
            "realize them, and immanant positivity checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument(
            "--family",
            required=True,
            help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or path to a JSON document",
        )

    for name, what in (
        ("matrix", "the triangular recurrence matrix C_n"),
        ("hankel", "the Hankel matrix H_n of the first column"),
    ):
        p = sub.add_parser(name, help=f"print {what}")
        add_family(p)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--rows", help="comma-separated row indices for a submatrix")
        p.add_argument("--cols", help="comma-separated column indices for a submatrix")
        p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("network", help="build a planar network and optionally check it")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--case",
        default="1",
        help="weight case 1..5, either one value or a comma list (one per layer)",
    )
    p.add_argument("--k", type=int, default=0, help="diagonal shift for --hankel-induced")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument(
        "--hankel-induced",
        action="store_true",
        help="induced Hankel subnetwork of the (2n+k)-level network",
    )
    kind.add_argument(
        "--hankel-factored",
        action="store_true",
        help="glued C-bridge-mirror(C) Hankel network (needs r_k = 1)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="verify the GF matrix against the recurrence matrix",
    )
    p.add_argument("--format", choices=("dot", "json"), default=None)
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("verify", help="sweep immanants of submatrices for positivity")
    add_family(p)
    p.add_argument("--matrix", choices=("C", "H"), default="C")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    # the usage as 3.10-3.12 wrap it, given whole so that 3.13 prints the same bytes
    pad = "\n" + " " * len("usage: qcatalan inequality ")
    p = sub.add_parser(
        "inequality",
        help="evaluate the cubic Hankel inequalities",
        usage=(
            f"%(prog)s [-h] --family FAMILY{pad}"
            f"[--max-index M | --triple I J K | --rows I1 I2 I3]{pad}"
            "[--cols J1 J2 J3] [--show] [--format {text,json}]"
        ),
    )
    add_family(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--max-index", type=int, metavar="M", help="sweep all triples up to M (default 5)"
    )
    mode.add_argument("--triple", type=int, nargs=3, metavar=("I", "J", "K"))
    mode.add_argument("--rows", type=int, nargs=3, metavar=("I1", "I2", "I3"))
    p.add_argument("--cols", type=int, nargs=3, metavar=("J1", "J2", "J3"))
    p.add_argument("--show", action="store_true", help="print the difference polynomials")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_inequality)

    p = sub.add_parser("chars", help="print a symmetric-group character table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_chars)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except FamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAMILY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
