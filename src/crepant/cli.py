"""Command-line front end: table generation and verification suites.

Exit codes: 0 when all requested checks pass (or output was written),
1 on a verification mismatch, 2 on a usage error (an unwritable
``-o/--output`` path and an integer option above ``sys.maxsize``
included) and when stdout fails before the output is written (a broken
pipe or a full device, reported in one stderr line).  All
rationals are emitted as exact strings; nothing is ever rounded.

Arguments are parsed from one table, ``_COMMANDS``, without argparse:
``--opt value``, ``--opt=value``, a unique prefix of a long option,
``-o PATH`` and ``-oPATH``; the last of a repeated option wins.  A usage
error is one line, ``crepant[ <words>]: error: ...``, ``<option> must
be >= <min>, got <v>`` or ``<option> must be <= <sys.maxsize>, got
<v>``.  No run loads argparse, gettext, locale or textwrap, which with
argparse's parsers cost about 5 ms of each process.

JSON output is the text of ``json.dump(payload, indent=2)``, made by
``_json_pieces``, which writes each list of strings in one ``join``
(936 pieces for ``duval --n 30 --format json``): json's own indented
encoder runs in pure Python, makes 16,639 pieces and takes longer than
the transform.  Strings are encoded by ``_json``'s
``encode_basestring_ascii``, the C function json's encoder uses, so the
json package itself is not imported.  Floats, Fractions and tuples
raise TypeError.

Every handler writes through ``_report(args, payload, lines)``, the one
place the format is chosen: ``--format json`` writes ``payload`` as
above, and text and CSV write the lines of the iterable ``lines``, each
with a newline, as they are formed (``components.table_text`` and
``table_csv`` render the ``tables`` rows; the other handlers give short
lists or generators).  Every format streams through ``_write``, in
pieces of at least ``_WRITE_CHARS`` = 8192 characters (the last may be
shorter; text pieces end at a line end).  With unbuffered stdout
(``python -u`` or ``PYTHONUNBUFFERED``) each ``write`` is one system
call.  One ``write`` of a whole large text is no better: when the reader
closes, the pipe takes part of it, the rest is dropped without an error,
and the run exits 0; in pieces, a later piece fails with a broken pipe.
Joining the pieces as they come also keeps memory bounded: no format
holds its whole text, as ``json.dumps`` or a joined report would.
Each ``verify`` text report opens with a line naming its suite and
parameter, such as ``verify crc --order 15``.

``tables``, ``components`` and ``verify crc`` build a Hodge table first;
if any of its dual-oracle checks fails they write no output, print one
stderr line per failed check and exit 1.  ``verify recursions`` reports
the same checks, pass or fail, as its output.

Each subcommand handler imports the modules it runs, and the package
``__init__`` loads nothing, so a run compiles no module it never calls
into.  Besides the package and ``cli``, each subcommand loads:

    --help                  none
    duval                   algebra, mckay, record
    localization            potentials, record
    verify crc              hurwitz, potentials, record
    verify recursions       hurwitz
    tables, components,     hurwitz, components
    verify theta

``verify crc`` builds a table without the component line, so it never
compiles ``components``, and its Q(w) values compare with rationals
without loading Q(zeta_m) (``algebra``).  No subcommand loads
``oracles``, ``dataclasses`` (which imports ``inspect``) or, JSON output
included, ``json``.
"""
from __future__ import annotations

import contextlib
import os
import sys
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from .hurwitz import HodgeTable

_WRITE_CHARS = 8192


class UsageError(Exception):
    """A bad command line or an unwritable -o/--output path: one stderr line, exit 2."""


@contextlib.contextmanager
def _output(path: str | None):
    """The ``-o/--output`` file, or stdout without one."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc.strerror}") from None


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
    # the C function json.encoder binds; importing json.encoder would also
    # load json's decoder and scanner, which writing never runs
    try:
        from _json import encode_basestring_ascii
    except ImportError:
        from json.encoder import encode_basestring_ascii

    _write(chain(_json_pieces(payload, "", encode_basestring_ascii), ("\n",)), output)


def _report(args, payload, lines: Iterable[str]) -> None:
    """Write ``payload`` as JSON under ``--format json``, else each of ``lines`` and a newline.

    This is the one place the output format is chosen.  ``lines`` is read
    only as it is written, so a generator forms each line as it goes out.
    """
    if args.format == "json":
        _emit_json(payload, args.output)
    else:
        _write((line + "\n" for line in lines), args.output)


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
    from . import components

    table = _checked_table(args.max_genus)
    if table is None:
        return 1
    rows = components.table_rows(table)
    render = components.table_csv if args.format == "csv" else components.table_text
    _report(args, rows, render(rows))
    return 0


def _cmd_components(args) -> int:
    from . import components

    g = args.genus
    table = _checked_table(g)
    if table is None:
        return 1
    # a failed component check has already exited 1 above
    payload = {"g": g, "A": str(table.A[g]), "independent": True,
               "components": components.component_entries(table, g)}
    _report(args, payload, [f"genus {g}: A_g = {payload['A']}, independent of component: True",
                            *(f"  A^{c['l']} = {c['value']}" for c in payload["components"])])
    return 0


def _verify_report(args, title: str, payload: dict, label: str) -> int:
    """Write a verify payload: its JSON, or ``title``, a line per check and the verdict.

    ``title`` names the suite and its parameter, ``"verify crc --order 15"``.
    Each check's line is ``<label>: <status>``, with ``label`` formatted with
    the check's fields, ``"{name}"`` or ``"idx {idx}"``.
    """
    verdict = "all checks passed" if payload["all_pass"] else "FAILURES present"
    _report(args, payload, [title, *(f"{label.format(**c)}: {c['status']}"
                                     for c in payload["checks"]), verdict])
    return 0 if payload["all_pass"] else 1


def _cmd_verify_recursions(args) -> int:
    from . import hurwitz

    G = args.max_genus
    table = hurwitz.build_hodge_table(G, components=False)
    checks = [{"name": name, "status": "pass" if ok else "fail"}
              for name, ok in table.checks.items()]
    return _verify_report(args, f"verify recursions --max-genus {G}",
                          {"suite": "recursions", "max_genus": G, "checks": checks,
                           "all_pass": all(table.checks.values())}, "{name}")


def _cmd_verify_theta(args) -> int:
    from . import components

    N = args.order
    ok = components.theta_check(N)
    checks = [{"name": f"theta_0 - theta_1 constant 1/9 to degree {N}",
               "status": "pass" if ok else "fail"}]
    return _verify_report(args, f"verify theta --order {N}",
                          {"suite": "theta", "order": N, "checks": checks, "all_pass": ok},
                          "{name}")


def _cmd_verify_crc(args) -> int:
    from . import potentials

    N = args.order
    table = _checked_table(max(N - 2, 4), components=False)
    if table is None:
        return 1
    return _verify_report(args, f"verify crc --order {N}", potentials.verify_crc(N, table),
                          "idx {idx}")


def _cmd_localization(args) -> int:
    from . import potentials

    data = potentials.FixedPointData.standard()
    triples = [("1", "1", "1"), ("1", "1", "C1"), ("1", "1", "C2"),
               ("1", "C1", "C1"), ("1", "C2", "C2"), ("1", "C1", "C2"),
               ("C1", "C1", "C1"), ("C1", "C1", "C2"),
               ("C2", "C2", "C2"), ("C2", "C2", "C1")]
    values = [potentials.triple_intersection(*classes, data=data) for classes in triples]
    entries = [{"classes": list(classes), "value": value.to_json(), "display": str(value)}
               for classes, value in zip(triples, values)]
    _report(args, {"entries": entries},
            (f"<{', '.join(e['classes'])}> = {e['display']}" for e in entries))
    return 0


def _cmd_duval(args) -> int:
    from . import mckay

    transform = mckay.duval_transform(args.n)
    payload = mckay.transform_json(transform)
    rows = {**{f"R_{j}": row for j, row in enumerate(transform.matrix, 1)}, "q": transform.q_values}
    _report(args, payload, chain(
        [f"cyclic group of order {payload['n']}, entries in Q(zeta_{payload['cyclotomic_order']})"],
        (f"{name}: " + "  ".join(map(str, row)) for name, row in rows.items())))
    return 0


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

# command words -> (help, handler, {integer option: (default or None if required,
# minimum)}, --format choices); an entry without a handler is a group of commands
_ROOT = ("Exact tables and verification suites for trigonal Hurwitz-Hodge\n"
         "integrals and the crepant resolution identity.", None, {}, ())
_TEXT_JSON = ("text", "json")
_COMMANDS = {
    ("tables",): ("per-genus table of B, A-bullet, A, gamma, components", _cmd_tables,
                  {"--max-genus": (20, 0)}, ("text", "json", "csv")),
    ("components",): ("per-component integrals of one genus", _cmd_components,
                      {"--genus": (None, 1)}, _TEXT_JSON),
    ("verify",): ("run a verification suite", None, {}, ()),
    ("verify", "recursions"): ("dual-oracle checks of all recursions", _cmd_verify_recursions,
                               {"--max-genus": (20, 1)}, _TEXT_JSON),
    ("verify", "theta"): ("the constant-1/9 double-sum identity", _cmd_verify_theta,
                          {"--order": (15, 0)}, _TEXT_JSON),
    ("verify", "crc"): ("third-partial comparison of the two potentials", _cmd_verify_crc,
                        {"--order": (15, 3)}, _TEXT_JSON),
    ("localization",): ("the ten fixed-point triple intersections", _cmd_localization,
                        {}, _TEXT_JSON),
    ("duval",): ("cyclic change-of-variables matrix over Q(zeta_2n)", _cmd_duval,
                 {"--n": (None, 2)}, _TEXT_JSON),
}


def _help(args) -> int:
    """Write the ``--help`` text of ``args.words``: its usage, then its commands or options."""
    about, func, ints, formats = _COMMANDS.get(args.words, _ROOT)
    if func is None:
        rows = [(key[-1], _COMMANDS[key][0]) for key in _COMMANDS if key[:-1] == args.words]
        usage, title = "{" + ",".join(word for word, _ in rows) + "} ...", "commands:"
    else:
        rows = [*((f"{name} N", ("required" if default is None else f"default {default}")
                   + f", at least {minimum}") for name, (default, minimum) in ints.items()),
                (f"--format {{{','.join(formats)}}}", "default text"),
                ("-o, --output PATH", "write to a file instead of stdout")]
        usage, title = "[options]", "options:"
    lines = [f"usage: {' '.join(('crepant', *args.words))} [-h] {usage}", "", about, "", title,
             *(f"  {name:<24}  {text}" for name, text in rows)]
    _write((line + "\n" for line in lines), None)
    return 0


def _option(token: str, names: tuple[str, ...], error: str) -> tuple[str, str | None]:
    """The option in ``names`` that ``token`` gives (in full or a unique prefix), and its value."""
    short = {"-h": "--help", "-o": "--output"}.get(token[:2])
    if short in names:
        return short, token[2:].removeprefix("=") or None
    name, _, value = token.partition("=")
    found = [name] if name in names else [
        known for known in names if name[:2] == "--" and name[2:] and known.startswith(name)]
    if len(found) != 1:
        raise UsageError(error + (f"ambiguous option {name} (could be {', '.join(found)})"
                                  if found else f"unknown option {name}"))
    return found[0], value or None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The handler of ``argv`` (``func``) and the values it reads, one attribute per option.

    ``-h``/``--help`` gives the help handler; a bad command line raises UsageError.
    """
    words, rest = (), list(argv)
    while (entry := _COMMANDS.get(words, _ROOT))[1] is None:
        error = " ".join(("crepant", *words)) + ": error: "
        choices = [key[-1] for key in _COMMANDS if key[:-1] == words]
        token = rest.pop(0) if rest else None
        if token is not None and token.startswith("-"):
            _option(token, ("--help",), error)
            return SimpleNamespace(func=_help, words=words)
        if token not in choices:
            what = "missing command" if token is None else f"unknown command {token!r}"
            raise UsageError(error + f"{what} (choose from {', '.join(choices)})")
        words += (token,)
    _, func, ints, formats = entry
    error = " ".join(("crepant", *words)) + ": error: "
    values = {"--format": "text", "--output": None,
              **{name: default for name, (default, _) in ints.items()}}
    while rest:
        name, value = _option(rest.pop(0), ("--help", *ints, "--format", "--output"), error)
        if name == "--help":
            return SimpleNamespace(func=_help, words=words)
        if value is None and rest and not (rest[0].startswith("-") and not rest[0][1:].isdigit()):
            value = rest.pop(0)
        if not value:
            raise UsageError(error + f"{name} needs a value")
        if name in ints:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(error + f"{name} needs an integer, got {value!r}") from None
        elif name == "--format" and value not in formats:
            raise UsageError(error + f"--format {value!r} is not one of {', '.join(formats)}")
        values[name] = value
    for name, (_, minimum) in ints.items():
        if values[name] is None:
            raise UsageError(error + f"missing {name}")
        if values[name] < minimum:
            raise UsageError(f"{name} must be >= {minimum}, got {values[name]}")
        if values[name] > sys.maxsize:      # no list or range of that length exists
            raise UsageError(f"{name} must be <= {sys.maxsize}, got {values[name]}")
    return SimpleNamespace(func=func, **{name[2:].replace("-", "_"): value
                                         for name, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()              # a broken pipe raises here, not at exit
        return code
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        # Writing stdout failed: a closed pipe or a full device (a failed
        # -o file is a UsageError above; besides their output, handlers
        # write only stderr lines).
        # Python flushes stdout again at exit; point it at devnull so that
        # flush stays silent (the Python docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("stdout was closed before the output was written"
              if isinstance(exc, BrokenPipeError) else
              f"cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
