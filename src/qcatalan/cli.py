"""Command-line driver for matrices, networks, sweeps, characters, inequalities.

Exit codes: 0 success, 2 configuration error, 3 family error, 4 network
check failure, 5 positivity violation. An error's class decides between 2
and 3: a ``FamilyError`` exits 3; a ``ValueError`` (every other error in
``qcatalan.errors``), an ``IndexError`` or an ``OSError`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .csmatrix import CSMatrix, catalan_like, catalan_stieltjes, hankel, submatrix
from .errors import FamilyError, OutOfRange, SchemaError, UnknownFamily
from .families import BUILTIN_NAMES, WEIGHT_CASES, FamilySpec, builtin, load_family
from .immanant import inequality_331, inequality_332, positivity_sweep
from .network import (
    build_cs_network,
    build_hankel_factored,
    build_hankel_network,
    export_dot,
)
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
    if layers == 0:
        return ()
    if len(values) == 1:
        return tuple(values * layers)
    if len(values) != layers:
        raise ValueError(
            f"--case needs 1 value or exactly {layers} values, got {len(values)}"
        )
    return tuple(values)


def _text_grid(entries) -> str:
    cells = [[str(p) for p in row] for row in entries]
    if not cells:
        return ""
    widths = [
        max(len(cells[i][j]) for i in range(len(cells)))
        for j in range(len(cells[0]))
    ]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    ]
    return "\n".join(lines) + "\n"


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _render_matrix(m: CSMatrix, fmt: str) -> str:
    if fmt == "csv":
        return m.to_csv()
    if fmt == "json":
        return _json_text(m.to_json_dict())
    return _text_grid(m.entries)


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
    sys.stdout.write(_render_matrix(m, args.format))
    return EXIT_OK


def cmd_network(args) -> int:
    f = _resolve_family(args.family)
    n, k = args.n, args.k
    if k and not args.hankel_induced:
        raise ValueError(f"--k applies only to --hankel-induced, got --k {k}")
    cases = _parse_cases(args.case, 2 * n + k if args.hankel_induced else n)
    if args.hankel_factored:
        net = build_hankel_factored(f, n, cases)
        expected = hankel(f, n)
        what = "factored Hankel network"
    elif args.hankel_induced:
        net = build_hankel_network(f, n, k, cases)
        expected = hankel(f, n)
        what = "induced Hankel network"
    else:
        net = build_cs_network(f, n, cases)
        expected = catalan_stieltjes(f, n)
        what = "layered network"

    rc = EXIT_OK
    check_line = None
    if args.check:
        got = net.gf_matrix()
        want = [list(row) for row in expected.entries]
        if got == want:
            check_line = f"check: pass ({what} matches the matrix for {f.name}, n={n})"
        else:
            i, j = next(
                (i, j)
                for i in range(len(want))
                for j in range(len(want[0]))
                if got[i][j] != want[i][j]
            )
            check_line = (
                f"check: fail ({what} entry ({i},{j}) is {got[i][j]}, "
                f"matrix has {want[i][j]})"
            )
            rc = EXIT_NETWORK

    if args.check and args.format is None:
        print(check_line)
        return rc
    fmt = args.format or "dot"
    if fmt == "json":
        sys.stdout.write(_json_text(net.to_json_dict()))
    else:
        sys.stdout.write(export_dot(net))
    if check_line is not None:
        print(check_line, file=sys.stderr)
    return rc


def _per_report(render, result):
    """``render`` for the reports of ``result``, once per report object.

    A sampled sweep hands repeated draws the same report object, so those
    renderings are cached by identity (every report outlives the cache, so
    no identity is reused); an exhaustive sweep's reports are all distinct,
    so there the cache would only cost time and memory.
    """
    if result.exhaustive:
        return render
    cache: dict[int, object] = {}

    def rendered(report):
        key = id(report)
        if key not in cache:
            cache[key] = render(report)
        return cache[key]

    return rendered


def _sweep_json(args, f: FamilySpec, result) -> dict:
    as_json = _per_report(lambda r: r.to_json_dict(), result)
    return {
        "family": f.name,
        "matrix": args.matrix,
        "n": args.n,
        "max_size": args.max_size,
        "seed": result.seed,
        "exhaustive": result.exhaustive,
        "total_candidates": result.total_candidates,
        "report_count": len(result.reports),
        "ok": result.ok,
        "violations": [as_json(r) for r in result.violations()],
        "reports": [as_json(r) for r in result.reports],
    }


def _csv_line(r) -> str:
    p = r.provenance
    return ",".join(
        [
            p.family,
            p.kind,
            "|".join(map(str, p.rows)),
            "|".join(map(str, p.cols)),
            "|".join(map(str, r.lam)),
            str(r.value),
            str(r.q_nonnegative).lower(),
            str(r.dominance_gap),
            str(r.gap_nonnegative).lower(),
        ]
    )


def _sweep_csv(result) -> str:
    lines = [
        "family,kind,rows,cols,lambda,value,q_nonnegative,dominance_gap,gap_nonnegative"
    ]
    lines += map(_per_report(_csv_line, result), result.reports)
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    f = _resolve_family(args.family)
    m = catalan_stieltjes(f, args.n) if args.matrix == "C" else hankel(f, args.n)
    result = positivity_sweep(m, args.max_size, seed=args.seed)
    if args.format == "json":
        sys.stdout.write(_json_text(_sweep_json(args, f, result)))
    elif args.format == "csv":
        sys.stdout.write(_sweep_csv(result))
    else:
        mode = "exhaustive" if result.exhaustive else f"sampled (seed {result.seed})"
        print(
            f"swept {len(result.reports)} immanant reports over "
            f"{result.total_candidates} candidate submatrices ({mode})"
        )
        if result.ok:
            print("all immanants and dominance gaps are q-nonnegative")
        else:
            for r in result.violations():
                p = r.provenance
                print(
                    f"violation: rows={list(p.rows)} cols={list(p.cols)} "
                    f"lambda={list(r.lam)} value={r.value} gap={r.dominance_gap}"
                )
    return EXIT_OK if result.ok else EXIT_POSITIVITY


def cmd_inequality(args) -> int:
    f = _resolve_family(args.family)
    if (args.rows is None) != (args.cols is None):
        raise ValueError("--rows and --cols must be given together")
    if args.format == "json" and (args.rows is not None or args.triple is not None):
        raise ValueError("--format json applies only to the --max-index sweep")

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
    entries = []
    all_ok = True
    for i in range(top + 1):
        for j in range(i + 1, top + 1):
            for k in range(j + 1, top + 1):
                # inequality_331 at rows = cols = (i, j, k) equals 2 * inequality_332
                v332 = inequality_332(a, i, j, k)
                ok = v332.is_q_nonnegative()
                all_ok = all_ok and ok
                entries.append(((i, j, k), v332, 2 * v332, ok))
    if args.format == "json":
        payload = {
            "family": f.name,
            "max_index": top,
            "ok": all_ok,
            "entries": [
                {
                    "triple": list(t),
                    "value_332": v332.to_json(),
                    "value_331_diagonal": v331.to_json(),
                    "q_nonnegative": ok,
                }
                for t, v332, v331, ok in entries
            ],
        }
        sys.stdout.write(_json_text(payload))
    else:
        for t, v332, v331, ok in entries:
            line = f"triple=({t[0]},{t[1]},{t[2]}) q_nonnegative={ok}"
            if args.show:
                line += f" value_332={v332} value_331_diagonal={v331}"
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
        sys.stdout.write(_json_text(table.to_json_dict()))
        return EXIT_OK
    header = ["shape\\class"] + [_format_partition(mu) for mu in table.shapes]
    rows = [[_format_partition(lam), *table.row(lam)] for lam in table.shapes]
    sys.stdout.write(_text_grid([header] + rows))
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

    p = sub.add_parser("inequality", help="evaluate the cubic Hankel inequalities")
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
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
