"""Command-line front end: table generation and verification suites.

Exit codes: 0 when all requested checks pass (or output was written),
1 on a verification mismatch, 2 on a usage error.  All rationals are
emitted as exact strings; nothing is ever rounded.

``tables``, ``components`` and ``verify crc`` build a Hodge table first;
if any of its dual-oracle checks fails they write no output, print one
stderr line per failed check and exit 1.  ``verify recursions`` reports
the same checks, pass or fail, as its output.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import hurwitz, mckay, potentials


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _checked_table(max_genus: int, **kwargs) -> hurwitz.HodgeTable | None:
    """The Hodge table, or None after one stderr line per failed check."""
    table = hurwitz.build_hodge_table(max_genus, **kwargs)
    failed = [name for name, ok in table.checks.items() if not ok]
    for name in failed:
        print(f"table check failed: {name}", file=sys.stderr)
    return None if failed else table


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_tables(args) -> int:
    if args.max_genus < 0:
        print(f"--max-genus must be >= 0, got {args.max_genus}", file=sys.stderr)
        return 2
    table = _checked_table(args.max_genus)
    if table is None:
        return 1
    rows = hurwitz.table_rows(table)
    if args.format == "json":
        _emit(_json_dump(rows), args.output)
    elif args.format == "csv":
        _emit(hurwitz.table_csv(table), args.output)
    else:
        lines = [f"{'g':>3} {'B':>16} {'Abullet':>16} {'A':>16} {'gamma':>10}  components"]
        for row in rows:
            comps = " ".join(f"A^{c['l']}={c['value']}" for c in row["components"])
            lines.append(f"{row['g']:>3} {row['B']:>16} {row['Abullet'] or '-':>16} "
                         f"{row['A'] or '-':>16} {row['gamma']:>10}  {comps}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_components(args) -> int:
    g = args.genus
    if g < 1:
        print(f"components require genus >= 1, got {g}", file=sys.stderr)
        return 2
    table = _checked_table(max(g, 4), component_max_genus=g)
    if table is None:
        return 1
    comps = sorted((label.l, value) for label, value in table.components.items()
                   if label.g == g)
    independent = all(v == table.A[g] for _, v in comps)
    payload = {
        "g": g,
        "A": str(table.A[g]),
        "independent": independent,
        "components": [{"l": l, "value": str(v)} for l, v in comps],
    }
    if args.format == "json":
        _emit(_json_dump(payload), args.output)
    else:
        lines = [f"genus {g}: A_g = {payload['A']}, "
                 f"independent of component: {independent}"]
        lines += [f"  A^{c['l']} = {c['value']}" for c in payload["components"]]
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if independent else 1


def _verify_report(name: str, checks: list[dict], args, extra: dict | None = None) -> int:
    all_pass = all(c["status"] == "pass" for c in checks)
    payload = {"suite": name, **(extra or {}), "checks": checks, "all_pass": all_pass}
    if args.format == "json":
        _emit(_json_dump(payload), args.output)
    else:
        lines = [f"{c['name']}: {c['status']}" for c in checks]
        lines.append("all checks passed" if all_pass else "FAILURES present")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if all_pass else 1


def _cmd_verify_recursions(args) -> int:
    G = args.max_genus
    if G < 1:
        print(f"--max-genus must be >= 1, got {G}", file=sys.stderr)
        return 2
    table = hurwitz.build_hodge_table(G, component_max_genus=min(G, 3),
                                      enumeration_cap=18)
    checks = [{"name": name, "status": "pass" if ok else "fail"}
              for name, ok in table.checks.items()]
    return _verify_report("recursions", checks, args, {"max_genus": G})


def _cmd_verify_theta(args) -> int:
    N = args.order
    if N < 0:
        print(f"--order must be >= 0, got {N}", file=sys.stderr)
        return 2
    diff = hurwitz.theta_check(N)
    ok = diff.coefficient(0, 0) == Fraction(1, 9) and all(
        v == 0 for (i, j), v in diff.items() if (i, j) != (0, 0))
    checks = [{"name": f"theta_0 - theta_1 constant 1/9 to degree {N}",
               "status": "pass" if ok else "fail"}]
    return _verify_report("theta", checks, args, {"order": N})


def _cmd_verify_crc(args) -> int:
    N = args.order
    if N < 3:
        print(f"--order must be >= 3, got {N}", file=sys.stderr)
        return 2
    table = _checked_table(max(N - 2, 4), component_max_genus=3)
    if table is None:
        return 1
    report = potentials.verify_crc(N, table)
    if args.format == "json":
        _emit(_json_dump(report), args.output)
    else:
        lines = [f"idx {c['idx']}: {c['status']}" for c in report["checks"]]
        lines.append("all checks passed" if report["all_pass"] else "FAILURES present")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if report["all_pass"] else 1


def _cmd_localization(args) -> int:
    data = potentials.FixedPointData.standard()
    triples = [("1", "1", "1"), ("1", "1", "C1"), ("1", "1", "C2"),
               ("1", "C1", "C1"), ("1", "C2", "C2"), ("1", "C1", "C2"),
               ("C1", "C1", "C1"), ("C1", "C1", "C2"),
               ("C2", "C2", "C2"), ("C2", "C2", "C1")]
    entries = []
    for classes in triples:
        value = potentials.triple_intersection(*classes, data=data)
        entries.append({"classes": list(classes), "value": value.to_json(),
                        "display": str(value)})
    if args.format == "json":
        _emit(_json_dump({"entries": entries}), args.output)
    else:
        lines = [f"<{', '.join(e['classes'])}> = {e['display']}" for e in entries]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_duval(args) -> int:
    if args.n < 2:
        print(f"--n must be >= 2, got {args.n}", file=sys.stderr)
        return 2
    transform = mckay.duval_transform(args.n)
    payload = mckay.transform_json(transform)
    if args.format == "text":
        lines = [f"cyclic group of order {payload['n']}, "
                 f"entries in Q(zeta_{payload['cyclotomic_order']})"]
        for j, row in enumerate(transform.matrix, start=1):
            lines.append(f"R_{j}: " + "  ".join(str(e) for e in row))
        lines.append("q: " + "  ".join(str(q) for q in transform.q_values))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(_json_dump(payload), args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub, formats=("text", "json")) -> None:
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crepant",
        description="Exact tables and verification suites for trigonal "
                    "Hurwitz-Hodge integrals and the crepant resolution identity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="per-genus table of B, A-bullet, A, gamma, components")
    p.add_argument("--max-genus", type=int, default=20)
    _add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("components", help="per-component integrals of one genus")
    p.add_argument("--genus", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_components)

    v = sub.add_parser("verify", help="run a verification suite")
    vsub = v.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("recursions", help="dual-oracle checks of all recursions")
    p.add_argument("--max-genus", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_recursions)

    p = vsub.add_parser("theta", help="the constant-1/9 double-sum identity")
    p.add_argument("--order", type=int, default=15)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_theta)

    p = vsub.add_parser("crc", help="third-partial comparison of the two potentials")
    p.add_argument("--order", type=int, default=15)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_crc)

    p = sub.add_parser("localization", help="the ten fixed-point triple intersections")
    _add_common(p)
    p.set_defaults(func=_cmd_localization)

    p = sub.add_parser("duval", help="cyclic change-of-variables matrix over Q(zeta_2n)")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_duval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        if exc.code is None:
            return 0
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
