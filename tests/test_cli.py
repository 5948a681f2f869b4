"""CLI surface: subcommands, formats, exit codes, byte stability."""
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import crepant
from crepant import cli, hurwitz
from crepant.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_crc_json(capsys):
    code, out, _ = run(capsys, "verify", "crc", "--order", "15", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["order"] == 15
    assert len(report["checks"]) == 10
    assert all(c["status"] == "pass" for c in report["checks"])


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--max-genus", "5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["g"] for row in rows] == [0, 1, 2, 3, 4, 5]
    assert rows[1] == {"g": 1, "B": "2/3", "Abullet": "1/3", "A": "1/3",
                       "gamma": 1, "components": [{"l": 0, "value": "1/3"}]}


def test_tables_csv(capsys):
    code, out, _ = run(capsys, "tables", "--max-genus", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,B,Abullet,A,gamma,components"
    assert lines[-1] == "3,10/9,10/27,2/27,5,1=2/27"


def test_verify_theta_degree_zero(capsys):
    code, out, _ = run(capsys, "verify", "theta", "--order", "0")
    assert code == 0
    assert "pass" in out


def test_verify_recursions(capsys):
    code, out, _ = run(capsys, "verify", "recursions", "--max-genus", "8",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert "B recursion vs closed form" in names
    assert "delta closed form vs direct sum" in names


def test_verify_recursions_counts_gamma_at_every_genus(capsys, enumerated_genera):
    # one walk to the top genus gives gamma and delta at every genus below it
    code, _, _ = run(capsys, "verify", "recursions", "--max-genus", "20")
    assert code == 0
    assert enumerated_genera == [20]


@pytest.fixture
def corrupt_delta_walk(monkeypatch):
    """``hurwitz.marking_counts`` with 1 added to every delta_g of its walk."""
    real = hurwitz.marking_counts

    def corrupted(G):
        gamma, delta = real(G)
        return gamma, [d + 1 for d in delta]

    monkeypatch.setattr(hurwitz, "marking_counts", corrupted)


@pytest.fixture
def corrupt_gamma_formula(monkeypatch):
    """``hurwitz.gamma_formula`` with 1 added at genus 20."""
    real = hurwitz.gamma_formula
    monkeypatch.setattr(hurwitz, "gamma_formula", lambda g: real(g) + (g == 20))


def _add_one(monkeypatch, kernel, index, part=None, when=None):
    """Make ``hurwitz.<kernel>`` add 1 at ``index`` of the list it returns, or of list ``part``.

    ``when``, if given, picks the calls to corrupt by their arguments.
    """
    real = getattr(hurwitz, kernel)

    def corrupted(*args):
        result = real(*args)
        target = result if part is None else result[part]
        if index < len(target) and (when is None or when(*args)):
            target[index] += 1
        return result

    monkeypatch.setattr(hurwitz, kernel, corrupted)


def _divides_one(num, den):
    """Whether an ``_egf_divide`` call forms 1/b: b and alpha have non-unit numerators."""
    return not any(num[1:])


@pytest.fixture
def corrupt_tangent_number(monkeypatch):
    """``hurwitz.tangent_numbers`` with 1 added to T_5."""
    _add_one(monkeypatch, "tangent_numbers", 5)


_B = "B recursion vs closed form"
_AB = "A-bullet = gamma * A (functional equation)"
_COMP = "components independent of label"

# A wrong tangent number moves the closed forms of B, A and A-bullet
# together: it breaks every check that compares them with the tangent
# identities, the recursion for B, Ab = gamma A and hence the components.
_TANGENT_FAILURES = (_B, _AB, _COMP)

# (corrupting fixture, or the arguments of _add_one; the checks it fails
# in table order; argv)
_FAILED_CHECK_CASES = [
    ("corrupt_delta_walk", ("delta closed form vs direct sum",), argv) for argv in (
        ["tables", "--max-genus", "8"],
        ["tables", "--max-genus", "8", "--format", "csv"],
        ["components", "--genus", "6", "--format", "json"],
        ["verify", "crc", "--order", "8", "--format", "json"],
    )
] + [
    ("corrupt_theta_totals", (_COMP,), argv) for argv in (
        ["components", "--genus", "6", "--format", "json"],
        ["tables", "--max-genus", "8"],
    )
] + [
    ("corrupt_tangent_number", _TANGENT_FAILURES, ["tables", "--max-genus", "8"]),
    (("_b_scaled_recursive", 5), (_B,), ["tables", "--max-genus", "8"]),
    # genus 20: a count that stopped below it would miss the fault
    ("corrupt_gamma_formula", ("gamma formula vs enumeration",),
     ["tables", "--max-genus", "25"]),
] + [
    (corruption, failed, ["tables", "--max-genus", "30"]) for corruption, failed in (
        (("tangent_numbers", 11), _TANGENT_FAILURES),
        # 1 added at index 1, 2, 7 or 30 to the integers the genus-30 table
        # is built from.  b_n = 6^n B_n and the B recursion meet only in the
        # B check.  alpha_n and beta_n give A_(n+1) and Ab_(n+1): the
        # components read A_g for g <= 30 and Ab_g for g >= 4, and
        # A-bullet = gamma * A reads index 30 too.  1 added to 1/b is 1
        # taken from beta.
        (("_scaled_series", 1, 0), (_B,)),
        (("_scaled_series", 2, 0), (_B,)),
        (("_scaled_series", 7, 0), (_B,)),
        (("_scaled_series", 30, 0), (_B,)),
        (("_b_scaled_recursive", 1), (_B,)),
        (("_b_scaled_recursive", 2), (_B,)),
        (("_b_scaled_recursive", 7), (_B,)),
        (("_b_scaled_recursive", 30), (_B,)),
        (("_scaled_series", 1, 1), (_AB, _COMP)),
        (("_scaled_series", 2, 1), (_AB, _COMP)),
        (("_scaled_series", 7, 1), (_AB, _COMP)),
        (("_scaled_series", 30, 1), (_AB,)),
        (("_scaled_series", 1, 2), (_AB,)),
        (("_scaled_series", 2, 2), (_AB,)),
        (("_scaled_series", 7, 2), (_AB, _COMP)),
        (("_scaled_series", 30, 2), (_AB,)),
        (("_egf_divide", 1, None, _divides_one), (_AB,)),
        (("_egf_divide", 2, None, _divides_one), (_AB,)),
        (("_egf_divide", 7, None, _divides_one), (_AB, _COMP)),
        (("_egf_divide", 30, None, _divides_one), (_AB,)),
    )
]


@pytest.mark.parametrize("corruption, failed, argv", _FAILED_CHECK_CASES,
                         ids=[f"argv{i}" for i in range(len(_FAILED_CHECK_CASES))])
def test_failed_table_check_exits_1_without_output(capsys, monkeypatch, request,
                                                   corruption, failed, argv):
    if isinstance(corruption, str):
        request.getfixturevalue(corruption)
    else:
        _add_one(monkeypatch, *corruption)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "".join(f"table check failed: {name}\n" for name in failed)


def test_verify_recursions_reports_failed_check(capsys, corrupt_delta_walk):
    code, out, err = run(capsys, "verify", "recursions", "--max-genus", "8")
    assert code == 1
    assert "delta closed form vs direct sum: fail\n" in out
    assert out.endswith("FAILURES present\n")
    assert err == ""


def test_verify_theta_reports_failed_identity(capsys, corrupt_tangent_number):
    # a wrong T_5 moves A_6 and up, and theta_0 - theta_1 is no longer 1/9
    code, out, err = run(capsys, "verify", "theta", "--order", "8")
    assert code == 1
    assert out == ("verify theta --order 8\n"
                   "theta_0 - theta_1 constant 1/9 to degree 8: fail\nFAILURES present\n")
    assert err == ""


def test_verify_theta_reports_corrupted_total(capsys, corrupt_theta_totals):
    # the kernel the table's component line shares with verify theta
    code, out, err = run(capsys, "verify", "theta", "--order", "8")
    assert code == 1
    assert out == ("verify theta --order 8\n"
                   "theta_0 - theta_1 constant 1/9 to degree 8: fail\nFAILURES present\n")
    assert err == ""


def test_components_command(capsys):
    code, out, _ = run(capsys, "components", "--genus", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == 6
    assert payload["independent"] is True
    assert all(c["value"] == payload["A"] for c in payload["components"])


def test_localization_command(capsys):
    code, out, _ = run(capsys, "localization", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 10
    first = payload["entries"][0]
    assert first["classes"] == ["1", "1", "1"]
    assert first["value"] == {"inverse_t1t2_scale": "1/3"}


def test_duval_command(capsys):
    code, out, _ = run(capsys, "duval", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cyclotomic_order"] == 6
    assert payload["matrix"] == [[["-1/3", "-1/3"], ["2/3", "-1/3"]],
                                 [["2/3", "-1/3"], ["-1/3", "-1/3"]]]
    assert payload["q_values"] == [["-1", "1"], ["-1", "1"]]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "tables.json"
    code, out, _ = run(capsys, "tables", "--max-genus", "2", "--format", "json",
                       "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[2]["B"] == "2/3"


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run(capsys, "tables", "--max-genus", "3", "-o", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot write output file {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_usage_error_exit_code(capsys):
    assert main(["bogus"]) == 2
    assert main(["tables", "--no-such-flag"]) == 2
    assert main([]) == 2


def test_byte_stable_output(capsys):
    _, first, _ = run(capsys, "tables", "--max-genus", "6", "--format", "json")
    _, second, _ = run(capsys, "tables", "--max-genus", "6", "--format", "json")
    assert first == second

@pytest.mark.parametrize("argv, message", [
    (["verify", "crc", "--order", "2"], "--order must be >= 3, got 2"),
    (["verify", "crc", "--order", "-5"], "--order must be >= 3, got -5"),
    (["verify", "theta", "--order", "-1"], "--order must be >= 0, got -1"),
    (["duval", "--n", "1"], "--n must be >= 2, got 1"),
    (["tables", "--max-genus", "-1"], "--max-genus must be >= 0, got -1"),
    (["components", "--genus", "0"], "--genus must be >= 1, got 0"),
    (["verify", "recursions", "--max-genus", "0"], "--max-genus must be >= 1, got 0"),
    (["verify", "theta", "--order=-5"], "--order must be >= 0, got -5"),
    # no list or range of these lengths exists, so they are refused before any work
    (["verify", "crc", "--order", str(10 ** 21)], f"--order must be <= {sys.maxsize}, got {10 ** 21}"),
    (["tables", "--max-genus", str(10 ** 20)], f"--max-genus must be <= {sys.maxsize}, got {10 ** 20}"),
    (["duval", "--n", str(10 ** 20)], f"--n must be <= {sys.maxsize}, got {10 ** 20}"),
    (["verify", "theta", f"--order={10 ** 20}"], f"--order must be <= {sys.maxsize}, got {10 ** 20}"),
])
def test_out_of_range_argument_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message + "\n"


# (argv, the command words the error line names, the token it names)
_USAGE_ERRORS = [
    ([], (), "command"),
    (["bogus"], (), "'bogus'"),
    (["-x"], (), "-x"),
    (["verify"], ("verify",), "command"),
    (["verify", "bogus"], ("verify",), "'bogus'"),
    (["tables", "--no-such-flag"], ("tables",), "--no-such-flag"),
    (["tables", "extra"], ("tables",), "extra"),
    (["verify", "theta", "--o", "5"], ("verify", "theta"), "--o"),
    (["tables", "--max-genus"], ("tables",), "--max-genus"),
    (["tables", "--max-genus", "--format", "json"], ("tables",), "--max-genus"),
    (["localization", "-o"], ("localization",), "--output"),
    (["tables", "--max-genus", "2", "--output="], ("tables",), "--output"),
    (["-o"], (), "-o"),
    (["tables", "--max-genus", "x"], ("tables",), "'x'"),
    (["verify", "crc", "--order=4.5"], ("verify", "crc"), "'4.5'"),
    (["tables", "--format", "xml"], ("tables",), "'xml'"),
    (["duval", "--n", "3", "--format", "csv"], ("duval",), "'csv'"),
    (["components"], ("components",), "--genus"),
    (["duval", "--format", "json"], ("duval",), "--n"),
]


@pytest.mark.parametrize("argv, words, token", _USAGE_ERRORS,
                         ids=[" ".join(argv) or "no-args" for argv, _, _ in _USAGE_ERRORS])
def test_usage_error_is_one_stderr_line(capsys, argv, words, token):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith(" ".join(("crepant", *words)) + ": error: ")
    assert token in err.split(": error: ", 1)[1]


def test_options_in_equals_prefix_and_attached_forms():
    args = cli.parse_args(["tables", "--max=5", "--form=csv", "-oout.csv"])
    assert (args.func, args.max_genus, args.format, args.output) == (
        cli._cmd_tables, 5, "csv", "out.csv")
    args = cli.parse_args(["verify", "crc", "--ord", "4", "-o=out.json"])
    assert (args.func, args.order, args.format, args.output) == (
        cli._cmd_verify_crc, 4, "text", "out.json")


def test_defaults_and_last_value_wins():
    args = cli.parse_args(["verify", "recursions"])
    assert (args.max_genus, args.format, args.output) == (20, "text", None)
    args = cli.parse_args(["duval", "--n", "3", "--n=7", "--format", "json",
                           "--format=text", "-o", "a", "-ob"])
    assert (args.n, args.format, args.output) == (7, "text", "b")


_OPTIONS = ["--format", "--output"]
# (the words before -h, the commands or options that level's help names)
_HELP_LEVELS = [
    ([], ["tables", "components", "verify", "localization", "duval"]),
    (["verify"], ["recursions", "theta", "crc"]),
    (["tables"], ["--max-genus", *_OPTIONS]),
    (["components"], ["--genus", *_OPTIONS]),
    (["verify", "recursions"], ["--max-genus", *_OPTIONS]),
    (["verify", "theta"], ["--order", *_OPTIONS]),
    (["verify", "crc"], ["--order", *_OPTIONS]),
    (["localization"], _OPTIONS),
    (["duval"], ["--n", *_OPTIONS]),
]


@pytest.mark.parametrize("words, names", _HELP_LEVELS,
                         ids=[" ".join(words) or "root" for words, _ in _HELP_LEVELS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_at_each_level(capsys, words, names, flag):
    code, out, err = run(capsys, *words, flag)
    assert code == 0
    assert err == ""
    assert out.startswith(" ".join(["usage: crepant", *words]) + " ")
    # the last block: a title, then one row per command or option
    heads = [line[2:].split("  ")[0] for line in out.split("\n\n")[-1].splitlines()[1:]]
    listed = [word for word in " ".join(heads).split()
              if word.startswith("--") or (word.isalpha() and word.islower())]
    assert listed == names


def test_console_script_is_main_and_reads_sys_argv(capsys, monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["crepant"]
    assert target == "crepant.cli:main"
    monkeypatch.setattr(sys, "argv", ["crepant", "verify", "theta", "--order", "3"])
    assert cli.main() == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")


def test_module_help_is_the_benchmark_set_up_probe():
    proc = subprocess.run([sys.executable, "-m", "crepant.cli", "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: crepant")
    assert proc.stderr == ""


# Besides the crepant modules, the child reports whether it loaded
# dataclasses or inspect (no subcommand needs them, and importing
# dataclasses imports inspect, about 12 ms of every run), whether it
# loaded json (no run needs it: JSON strings come from _json), whether it
# loaded argparse, gettext, locale or textwrap (the command line is parsed
# from cli's own table; they and argparse's parsers cost about 5 ms), and
# which crepant modules define a Q(w) name.  The report is a repr, so the
# child never imports json itself.
_REPORT_MODULES = (
    "import sys\n"
    "from crepant.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('crepant'))\n"
    "slow = [m for m in ('dataclasses', 'inspect', 'json', 'argparse', 'gettext', 'locale',\n"
    "                   'textwrap') if m in sys.modules]\n"
    "qw = [m for m in loaded\n"
    "      if {'Cyc3', 'LinT', 'geometric_exp_series'} & vars(sys.modules[m]).keys()]\n"
    "sys.stderr.write(repr([code, loaded, slow, qw]))\n"
)


def _child_env():
    """The environment of a fresh interpreter that imports this checkout's crepant."""
    src = str(Path(crepant.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


_TABLE = ["hurwitz", "components"]
_CRC = ["hurwitz", "potentials", "record"]
# (argv, the crepant modules besides crepant and crepant.cli it loads):
# none loads crepant.oracles, the Hodge-side ones load neither algebra
# nor potentials, duval compiles no Q(w) code, verify crc loads neither
# algebra (its Cyc3 == int comparisons included) nor the theta kernel
# of components, and no JSON run loads json.
_IMPORT_CASES = [
    (["duval", "--n", "3"], ["algebra", "mckay", "record"]),
    (["--help"], []),
    (["tables", "--max-genus", "4"], _TABLE),
    (["components", "--genus", "4"], _TABLE),
    (["verify", "recursions", "--max-genus", "4"], ["hurwitz"]),
    (["verify", "theta", "--order", "4"], _TABLE),
    (["verify", "crc", "--order", "4"], _CRC),
    (["localization"], ["potentials", "record"]),
    (["verify", "crc", "--order", "4", "--format", "json"], _CRC),
    (["tables", "--max-genus", "4", "--format", "json"], _TABLE),
]


@pytest.mark.parametrize("argv, modules", _IMPORT_CASES,
                         ids=[f"argv{i}" for i in range(len(_IMPORT_CASES))])
def test_subcommand_imports_only_what_it_runs(argv, modules):
    # a fresh interpreter, so the modules the other tests imported do not count
    proc = subprocess.run([sys.executable, "-c", _REPORT_MODULES, *argv],
                          capture_output=True, text=True, env=_child_env(), check=True)
    code, loaded, slow, qw = ast.literal_eval(proc.stderr)
    assert code == 0
    assert loaded == sorted(["crepant", "crepant.cli", *(f"crepant.{m}" for m in modules)])
    assert slow == []
    assert qw == (["crepant.potentials"] if "potentials" in modules else [])


def test_oracles_load_no_components():
    # the oracles share no kernel with the theta identity they check
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, crepant.oracles\n"
         "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('crepant'))))"],
        capture_output=True, text=True, env=_child_env(), check=True)
    assert "crepant.components" not in ast.literal_eval(proc.stderr)


_PRODUCTION_MODULES = sorted(
    p.name for p in Path(crepant.__file__).parent.glob("*.py") if p.name != "oracles.py")
# every function and class that oracles.py defines at top level, and the module itself
_ORACLE_NAMES = {"oracles"} | {
    node.name for node in ast.parse((Path(crepant.__file__).parent / "oracles.py").read_text()).body
    if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


@pytest.mark.parametrize("module", _PRODUCTION_MODULES)
def test_production_modules_neither_import_nor_define_the_oracles(module):
    # the subprocess test above sees passing runs only; this one reads every
    # production module, the failure path of verify_crc included
    tree = ast.parse((Path(crepant.__file__).parent / module).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found.add(node.name)
    assert found & _ORACLE_NAMES == set()


def _crepant_imports(node, scope=None):
    """(the innermost enclosing function's name or None, crepant module) per import under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _crepant_imports(child, child.name)
            continue
        if isinstance(child, ast.ImportFrom):
            names = [".".join(filter(None, ("crepant" if child.level else "", child.module,
                                            alias.name))) for alias in child.names]
        else:
            names = [alias.name for alias in child.names] if isinstance(child, ast.Import) else []
            yield from _crepant_imports(child, scope)
        yield from ((scope, name.split(".")[1]) for name in names if name.startswith("crepant."))


def test_neither_field_module_imports_the_other():
    # Q(w) compares with Q(zeta_m) through record.Number, so potentials never
    # imports algebra; algebra's module __getattr__ serves only the names the
    # benchmark's tracer still looks up there.
    def imports(module):
        return list(_crepant_imports(ast.parse((Path(crepant.__file__).parent / module).read_text())))

    # the scan sees an import inside a function, and names the function
    assert ("check_n3_specialization", "potentials") in imports("mckay.py")
    assert [m for _, m in imports("potentials.py") if m == "algebra"] == []
    assert [scope for scope, m in imports("algebra.py") if m == "potentials"] == ["__getattr__"]


def _annotations(tree):
    """The annotation nodes of ``tree``: argument, return and variable annotations."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


@pytest.mark.parametrize("module", _PRODUCTION_MODULES)
def test_module_level_crepant_imports_are_used_outside_annotations(module):
    # With postponed annotations a name used only there needs no import at
    # run time; importing it anyway loads, and compiles, its whole module.
    tree = ast.parse((Path(crepant.__file__).parent / module).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").startswith("crepant"))
                for alias in node.names}
    in_annotations = {id(n) for a in _annotations(tree) for n in ast.walk(a)}
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and id(n) not in in_annotations}
    assert imported - used == set()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["duval", "--n", "30", "--format", "json"],             # 204 KB
    ["duval", "--n", "60"],                                  # 169 KB
    ["tables", "--max-genus", "200", "--format", "csv"],     # 898 KB
    ["tables", "--max-genus", "200"],                        # 906 KB
], ids=["duval-json", "duval-text", "tables-csv", "tables-text"])
def test_closed_stdout_is_a_usage_error_not_a_traceback(argv, unbuffered):
    # The reader stops after 100 bytes, so a later write meets a broken pipe.
    # Unbuffered, each write is one system call: a single large write would
    # lose its tail to the closed pipe without an error and exit 0.
    env = _child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "crepant.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 2
    assert err == b"stdout was closed before the output was written\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["localization"],                                        # 1 KB, fails at the last flush
    ["tables", "--max-genus", "200"],                        # 906 KB, fails mid-stream
], ids=["localization", "tables"])
def test_full_stdout_is_a_usage_error_not_a_traceback(argv, unbuffered):
    # /dev/full refuses every write with ENOSPC
    env = _child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "crepant.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == b"cannot write to stdout: No space left on device\n"


class _WriteSpy:
    """A stdout that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_json_output_goes_out_in_few_large_writes(monkeypatch):
    # the writer makes 936 pieces for this payload (json's own encoder makes
    # 16,639); each would be one system call with unbuffered stdout
    from crepant import mckay

    payload = mckay.transform_json(mckay.duval_transform(30))
    spy = _WriteSpy()
    monkeypatch.setattr(sys, "stdout", spy)
    cli._emit_json(payload, None)
    text = "".join(spy.writes)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert len(spy.writes) <= -(-len(text) // cli._WRITE_CHARS) == 25
    assert all(len(w) >= cli._WRITE_CHARS for w in spy.writes[:-1])


def _json_text(value) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit_json(value, None)
    return buf.getvalue()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40)


@given(_JSON_VALUES)
@example({"": [], "e": {}, "s": ["", "q\"b\\", "\x00\x1f\n\t\x7f", "\u00e9\u2028\U0001f600"],
          "n": [0, -1, 10 ** 40, -(2 ** 70), True, False, None],
          "deep": [[[]], [{}], [["x"], 1]], "mixed": ["a", 2, ["b", {}], "c"]})
@example([])
@example("")
def test_json_writer_matches_json_dump_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, F(1, 2), (1, 2), {"a": [0.5]}, ["x", ("y",)], {"a": F(1, 3)}],
                         ids=["float", "fraction", "tuple", "nested-float", "tuple-in-list",
                              "nested-fraction"])
def test_json_writer_rejects_what_json_would_round_or_recast(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_json_strings_come_from_the_function_json_encodes_with():
    import _json

    assert _json.encode_basestring_ascii is json.encoder.encode_basestring_ascii


@pytest.mark.parametrize("argv, golden", [
    (["duval", "--n", "5", "--format", "json"], "duval_n5.json.out"),
    (["tables", "--max-genus", "8", "--format", "json"], "tables_g8.json.out"),
], ids=["duval", "tables"])
def test_json_output_without_the_c_encoder(capsys, monkeypatch, argv, golden):
    # Without _json, _emit_json falls back to json.encoder, which is imported
    # afresh here so that it binds its pure-Python encode_basestring_ascii.
    monkeypatch.setitem(sys.modules, "_json", None)
    monkeypatch.delitem(sys.modules, "json.encoder")
    monkeypatch.setattr(json, "encoder", json.encoder)
    code, out, _ = run(capsys, *argv)
    fallback = sys.modules["json.encoder"]
    assert fallback.encode_basestring_ascii is fallback.py_encode_basestring_ascii
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


def test_text_output_goes_out_in_pieces(monkeypatch):
    # pieces end at line ends, so each is at least _WRITE_CHARS and less than a
    # line longer; each line is formed only after the pieces before it went out
    text = "".join(f"line {i}\n" for i in range(5000))
    spy = _WriteSpy()
    written_before = []

    def lines():
        for i in range(5000):
            written_before.append(len(spy.writes))
            yield f"line {i}"

    monkeypatch.setattr(sys, "stdout", spy)
    cli._report(SimpleNamespace(format="text", output=None), None, lines())
    assert "".join(spy.writes) == text
    assert len(spy.writes) == -(-len(text) // cli._WRITE_CHARS) > 1
    assert all(cli._WRITE_CHARS <= len(w) < cli._WRITE_CHARS + len("line 4999\n")
               and w.endswith("\n") for w in spy.writes[:-1])
    assert written_before[-1] == len(spy.writes) - 1


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_text_and_csv_tables_peak_no_higher_than_json(tmp_path, fmt):
    # tracemalloc peaks in bytes of this run, after a warm-up, on Python 3.11:
    # json 484,603; text 1,019,115 and csv 1,032,633 while each format was
    # joined into one string, 471,961 and 473,331 now that lines stream.
    def peak(f):
        argv = ["tables", "--max-genus", "120", "--format", f, "-o", str(tmp_path / f)]
        main(argv)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(fmt) <= 1.1 * peak("json")


def test_every_public_name_resolves():
    # a stale export would otherwise fail only when someone first reads it
    assert [name for name in crepant.__all__ if not hasattr(crepant, name)] == []
