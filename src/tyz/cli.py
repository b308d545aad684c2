"""Command-line interface.

Every subcommand renders a list of rows in one of three formats (aligned
table, JSON object, CSV) and optionally writes the result to a file instead
of stdout.  Graph-input commands require a stable graph by default and a
semistable one under --semistable.  Exit status: 0 on success, 1 when a
verify suite has failing cases, 2 on usage or parse errors, which include
every ValueError the library raises for an argument outside its domain.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .catalog import (
    SUITE_NAMES,
    class_counts,
    connectivity_class,
    format_rational,
    verify,
    weight_records,
)
from .enumeration import MAX_WEIGHT, SLOW_WEIGHT, check_weight
from .eulerian import euler_tour_count, is_balanced
from .graphs import (
    MultiDigraph,
    format_graph,
    is_semistable,
    is_stable,
    parse_graph,
)
from .spectral import charpoly
from .zeta import FAMILY_NAMES, FamilySpec, det_a_minus_i, z, z_family

__all__ = ["main", "entrypoint"]


# Results are printed exactly, and str() refuses integers of more than 4,300
# digits (the default of sys.set_int_max_str_digits); 2**14_000 < 10**4_300.
_MAX_RESULT_BITS = 14_000

# A table column pads to its widest cell up to this width; a wider cell prints in full.
_MAX_PAD = 80


def _check_result_size(m: int, what: str) -> None:
    """Reject input whose printed results can be as large as m!, before any
    factorial is computed: m! <= m**m < 2**(m * m.bit_length())."""
    if m * m.bit_length() > _MAX_RESULT_BITS:
        raise ValueError(f"{what} too large: exact results could exceed 4300 digits")


def _input_graph(args) -> MultiDigraph:
    g = parse_graph(args.graph)
    if args.semistable:
        if not is_semistable(g):
            raise ValueError(
                "graph is not semistable (needs in- and out-degree at least 1 "
                "and total degree at least 3 at every vertex)"
            )
    elif not is_stable(g):
        raise ValueError(
            "graph is not stable (needs in- and out-degree at least 2 at every "
            "vertex); pass --semistable to relax"
        )
    return g


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (rows, extra) where rows hold native
# values (ints, strings, lists, bools), keyed by column in column order, and
# extra feeds the JSON object and the table footer
# ---------------------------------------------------------------------------


def _cmd_enumerate(args):
    k = check_weight(args.weight, args.allow_slow)
    rows = [
        {
            "graph": format_graph(r.graph),
            "vertices": r.graph.n,
            "edges": r.edges,
            "weight": r.weight,
            "class": r.cls,
        }
        for r in weight_records(k)
    ]
    return rows, {}


def _cmd_classify(args):
    k = check_weight(args.weight, args.allow_slow)
    counts = class_counts(k)
    rows = [
        {
            "weight": k,
            "total": counts.total,
            "connected": counts.connected,
            "strongly_connected": counts.strongly_connected,
            "lambda": counts.lam,
        }
    ]
    return rows, {}


def _cmd_z(args):
    g = _input_graph(args)
    # |Aut| <= (edges + n)!, and Hadamard's bound puts |det(A - I)| far lower
    _check_result_size(g.edge_count + g.n, "graph")
    rows = [
        {
            "graph": format_graph(g),
            "vertices": g.n,
            "edges": g.edge_count,
            "weight": g.weight,
            "class": connectivity_class(g),
            "z": format_rational(z(g)),
        }
    ]
    return rows, {}


def _cmd_charpoly(args):
    g = _input_graph(args)
    rows = [
        {
            "graph": format_graph(g),
            "charpoly": list(charpoly(g)),
            "det_A_minus_I": det_a_minus_i(g),
        }
    ]
    return rows, {}


def _cmd_euler(args):
    g = _input_graph(args)
    _check_result_size(g.edge_count, "graph")  # at most (edges - 1)! tours
    rows = [
        {
            "graph": format_graph(g),
            "balanced": is_balanced(g),
            "euler_tours": euler_tour_count(g),
        }
    ]
    return rows, {}


def _cmd_expansion(args):
    k = check_weight(args.weight, args.allow_slow)
    rows = [
        {"graph": format_graph(r.graph), "class": r.cls, "z": format_rational(r.z)}
        for r in weight_records(k)
    ]
    return rows, {"weight": k}


def _cmd_verify(args):
    report = verify(args.suite, max_weight=args.max_weight, allow_slow=args.allow_slow)
    rows = [
        {
            "case": c.name,
            "expected": c.expected,
            "actual": c.actual,
            "status": "pass" if c.ok else "FAIL",
        }
        for c in report.cases
    ]
    extra = {
        "suite": report.suite,
        "passed": report.passed,
        "failed": report.failed,
        "ok": report.ok,
        "footer": f"{report.suite}: {report.passed}/{len(report.cases)} cases pass",
        "exit": 0 if report.ok else 1,
    }
    return rows, extra


def _cmd_families(args):
    if args.name == "Kmn":
        if args.m is None:
            raise ValueError("family Kmn needs both --m and --n")
        spec = FamilySpec("Kmn", n=args.n, m=args.m)
    else:
        if args.m is not None:
            raise ValueError("--m only applies to family Kmn")
        spec = FamilySpec(args.name, n=args.n)
    # z's denominator divides 2 (m+n)!; A's is 2**n n and D has 2**n edges, all smaller
    _check_result_size(spec.m + spec.n, "family parameters")
    value = z_family(spec)
    vertices, edges = spec.size()
    rows = [
        {
            "family": args.name,
            "n": args.n,
            "m": args.m,
            "vertices": vertices,
            "edges": edges,
            "weight": edges - vertices,
            "z": format_rational(value),
        }
    ]
    return rows, {}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _render_table(rows, footer) -> str:
    grid = [list(rows[0]), *([_cell(v) for v in row.values()] for row in rows)]
    widths = [min(_MAX_PAD, max(map(len, column))) for column in zip(*grid)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in grid]
    lines.insert(1, "  ".join("-" * w for w in widths))
    if footer:
        lines.append(footer)
    return "\n".join(lines) + "\n"


def _render_json(rows, extra) -> str:
    obj = {k: v for k, v in extra.items() if k not in ("footer", "exit")}
    obj["rows"] = rows
    return json.dumps(obj, indent=2) + "\n"


def _render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(rows[0]))
    writer.writerows([_cell(v) for v in row.values()] for row in rows)
    return buf.getvalue()


def _render(args, rows, extra) -> str:
    """Every command has at least one row; the keys of the first are the columns."""
    if args.format == "json":
        return _render_json(rows, extra)
    if args.format == "csv":
        return _render_csv(rows)
    return _render_table(rows, extra.get("footer"))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )
    common.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="tyz",
        description="Exact catalogs, coefficients, and identity checks for stable multidigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    slow_help = f"permit weights {SLOW_WEIGHT}–{MAX_WEIGHT}"

    def command(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    def weight_command(name, handler, help_text):
        p = command(name, handler, help_text)
        p.add_argument("--weight", type=int, required=True, metavar="K")
        p.add_argument("--allow-slow", action="store_true", help=slow_help)

    def graph_command(name, handler, help_text):
        p = command(name, handler, help_text)
        p.add_argument("--graph", required=True, metavar="MATRIX",
                       help='adjacency matrix, e.g. "0 2;2 0"')
        p.add_argument("--semistable", action="store_true",
                       help="accept semistable input instead of requiring stable")

    weight_command("enumerate", _cmd_enumerate, "list the stable graphs of one weight")
    weight_command("classify", _cmd_classify, "count stable graphs by connectivity class")
    graph_command("z", _cmd_z, "coefficient of one graph in the expansion")
    graph_command("charpoly", _cmd_charpoly, "characteristic polynomial of the adjacency matrix")
    graph_command("euler", _cmd_euler, "Euler tour count with a fixed starting edge")
    weight_command("expansion", _cmd_expansion, "full formal sum for one weight")

    p = command("verify", _cmd_verify, "run a named verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--max-weight", type=int, default=None, metavar="W",
                   help="cap for the table2, bernoulli, unitball and oracle suites")
    p.add_argument("--allow-slow", action="store_true", help=slow_help)

    p = command("families", _cmd_families, "closed-form z for a parametric graph family")
    p.add_argument("--name", required=True, choices=[f for f in FAMILY_NAMES if f != "twovertex"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="second part size for Kmn")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        rows, extra = args.handler(args)
        text = _render(args, rows, extra)
    except ValueError as exc:
        # bad command-line input, an argument outside the library's domain, or
        # str() of an integer beyond sys.get_int_max_str_digits()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return extra.get("exit", 0)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
