"""Command-line front end: table generation and verification suites.

Exit codes: 0 when all requested checks pass (or output was written),
1 on a verification mismatch, 2 on a usage error (an unwritable
``-o/--output`` path included) and when stdout is closed before the
output is written (a broken pipe, reported in one stderr line).  All
rationals are emitted as exact strings; nothing is ever rounded.

JSON output is the text of ``json.dump(payload, indent=2)``, made by
``_json_pieces``, which writes each list of strings in one ``join``
(936 pieces for ``duval --n 30 --format json``): json's own indented
encoder runs in pure Python, makes 16,639 pieces and takes longer than
the transform.  Floats, Fractions and tuples raise TypeError.

Output is written in pieces of at least ``_WRITE_CHARS`` = 8192
characters (the last may be shorter).  With unbuffered stdout (``python
-u`` or ``PYTHONUNBUFFERED``) each ``write`` is one system call.  One
``write`` of a whole large text is no better: when the reader closes,
the pipe takes part of it, the rest is dropped without an error, and
the run exits 0; in pieces, a later piece fails with a broken pipe.
Joining the pieces as they come also keeps memory bounded, where
``json.dumps`` would hold the whole text.

``tables``, ``components`` and ``verify crc`` build a Hodge table first;
if any of its dual-oracle checks fails they write no output, print one
stderr line per failed check and exit 1.  ``verify recursions`` reports
the same checks, pass or fail, as its output.

Each subcommand handler imports the modules it runs: ``--help`` and
``duval`` never load ``hurwitz`` or ``potentials`` (so ``duval``
compiles no Q(w) code), the Hodge-table subcommands load ``hurwitz``
alone, and none loads ``oracles`` or ``dataclasses`` (which imports
``inspect``).
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from .hurwitz import HodgeTable

_WRITE_CHARS = 8192


class OutputPathError(Exception):
    """The -o/--output path cannot be written; reported as a usage error."""


@contextlib.contextmanager
def _output(path: str | None):
    """The ``-o/--output`` file, or stdout without one."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise OutputPathError(
            f"cannot write output file {path}: {exc.strerror}") from None


def _write(pieces: Iterable[str], output: str | None) -> None:
    """Write the pieces joined into writes of at least ``_WRITE_CHARS`` each."""
    with _output(output) as fh:
        buf, size = [], 0
        for piece in pieces:
            buf.append(piece)
            size += len(piece)
            if size >= _WRITE_CHARS:
                fh.write("".join(buf))
                buf, size = [], 0
        if buf:
            fh.write("".join(buf))


def _emit(text: str, output: str | None) -> None:
    _write((text[i:i + _WRITE_CHARS] for i in range(0, len(text), _WRITE_CHARS)),
           output)


def _json_scalar(value, encode: Callable[[str], str]) -> str:
    """The JSON text of a string, int, bool or None; TypeError for anything else."""
    if isinstance(value, str):
        return encode(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} {value!r} is not written as JSON")


def _json_strings(value, indent: str, encode: Callable[[str], str]) -> str | None:
    """The JSON text of a nonempty list of strings, made in one join; else None."""
    if not (isinstance(value, list) and value and isinstance(value[0], str)):
        return None
    inner = indent + "  "
    try:
        body = (",\n" + inner).join(map(encode, value))
    except TypeError:           # a later item is not a string
        return None
    return f"[\n{inner}{body}\n{indent}]"


def _json_pieces(value, indent: str, encode: Callable[[str], str]) -> Iterator[str]:
    """The text of ``json.dump(value, indent=2)`` in pieces, each list of strings one piece.

    Dicts with str keys, lists, strings, ints, True, False and None are
    written; anything else (a float, Fraction or tuple) raises TypeError.
    """
    if isinstance(value, dict):
        opener, closer = "{", "}"
        items = ((encode(key) + ": ", item) for key, item in value.items())
    elif isinstance(value, list):
        text = _json_strings(value, indent, encode)
        if text is not None:
            yield text
            return
        opener, closer = "[", "]"
        items = (("", item) for item in value)
    else:
        yield _json_scalar(value, encode)
        return
    if not value:
        yield opener + closer
        return
    inner = indent + "  "
    sep = opener + "\n" + inner
    for prefix, item in items:
        if not isinstance(item, (dict, list)):
            yield sep + prefix + _json_scalar(item, encode)
        elif (text := _json_strings(item, inner, encode)) is not None:
            yield sep + prefix + text
        else:
            yield sep + prefix
            yield from _json_pieces(item, inner, encode)
        sep = ",\n" + inner
    yield "\n" + indent + closer


def _emit_json(payload, output: str | None) -> None:
    # imported here, so --help and text output never load json
    from json.encoder import encode_basestring_ascii

    _write(chain(_json_pieces(payload, "", encode_basestring_ascii), ("\n",)), output)


def _checked_table(max_genus: int, **kwargs) -> HodgeTable | None:
    """The Hodge table, or None after one stderr line per failed check."""
    from . import hurwitz

    table = hurwitz.build_hodge_table(max_genus, **kwargs)
    failed = [name for name, ok in table.checks.items() if not ok]
    for name in failed:
        print(f"table check failed: {name}", file=sys.stderr)
    return None if failed else table


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_tables(args) -> int:
    from . import hurwitz

    if args.max_genus < 0:
        print(f"--max-genus must be >= 0, got {args.max_genus}", file=sys.stderr)
        return 2
    table = _checked_table(args.max_genus)
    if table is None:
        return 1
    rows = hurwitz.table_rows(table)
    if args.format == "json":
        _emit_json(rows, args.output)
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
    from . import hurwitz

    g = args.genus
    if g < 1:
        print(f"components require genus >= 1, got {g}", file=sys.stderr)
        return 2
    table = _checked_table(g)
    if table is None:
        return 1
    # a failed component check has already exited 1 above
    payload = {
        "g": g,
        "A": str(table.A[g]),
        "independent": True,
        "components": hurwitz.component_entries(table, g),
    }
    if args.format == "json":
        _emit_json(payload, args.output)
    else:
        lines = [f"genus {g}: A_g = {payload['A']}, independent of component: True"]
        lines += [f"  A^{c['l']} = {c['value']}" for c in payload["components"]]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _verify_report(name: str, checks: list[dict], args, extra: dict | None = None) -> int:
    all_pass = all(c["status"] == "pass" for c in checks)
    payload = {"suite": name, **(extra or {}), "checks": checks, "all_pass": all_pass}
    if args.format == "json":
        _emit_json(payload, args.output)
    else:
        lines = [f"{c['name']}: {c['status']}" for c in checks]
        lines.append("all checks passed" if all_pass else "FAILURES present")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if all_pass else 1


def _cmd_verify_recursions(args) -> int:
    from . import hurwitz

    G = args.max_genus
    if G < 1:
        print(f"--max-genus must be >= 1, got {G}", file=sys.stderr)
        return 2
    table = hurwitz.build_hodge_table(G, component_max_genus=min(G, 3))
    checks = [{"name": name, "status": "pass" if ok else "fail"}
              for name, ok in table.checks.items()]
    return _verify_report("recursions", checks, args, {"max_genus": G})


def _cmd_verify_theta(args) -> int:
    from . import hurwitz

    N = args.order
    if N < 0:
        print(f"--order must be >= 0, got {N}", file=sys.stderr)
        return 2
    ok = hurwitz.theta_check(N)
    checks = [{"name": f"theta_0 - theta_1 constant 1/9 to degree {N}",
               "status": "pass" if ok else "fail"}]
    return _verify_report("theta", checks, args, {"order": N})


def _cmd_verify_crc(args) -> int:
    from . import potentials

    N = args.order
    if N < 3:
        print(f"--order must be >= 3, got {N}", file=sys.stderr)
        return 2
    table = _checked_table(max(N - 2, 4), component_max_genus=3)
    if table is None:
        return 1
    report = potentials.verify_crc(N, table)
    if args.format == "json":
        _emit_json(report, args.output)
    else:
        lines = [f"idx {c['idx']}: {c['status']}" for c in report["checks"]]
        lines.append("all checks passed" if report["all_pass"] else "FAILURES present")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if report["all_pass"] else 1


def _cmd_localization(args) -> int:
    from . import potentials

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
        _emit_json({"entries": entries}, args.output)
    else:
        lines = [f"<{', '.join(e['classes'])}> = {e['display']}" for e in entries]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_duval(args) -> int:
    from . import mckay

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
        _emit_json(payload, args.output)
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
        code = args.func(args)
        sys.stdout.flush()              # a broken pipe raises here, not at exit
        return code
    except OutputPathError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush stays silent (the Python docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("stdout was closed before the output was written", file=sys.stderr)
        return 2
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
