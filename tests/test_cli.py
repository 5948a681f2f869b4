"""CLI surface: subcommands, formats, exit codes, byte stability."""
import json

import pytest

from crepant import hurwitz
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


def test_verify_recursions_enumerates_gamma_to_18(capsys, enumerated_genera):
    code, _, _ = run(capsys, "verify", "recursions", "--max-genus", "20")
    assert code == 0
    assert enumerated_genera == list(range(19))


def _corrupt_delta_direct(monkeypatch):
    monkeypatch.setattr(hurwitz, "delta_direct", lambda g: hurwitz.delta(g) + 1)


@pytest.mark.parametrize("argv", [
    ["tables", "--max-genus", "8"],
    ["tables", "--max-genus", "8", "--format", "csv"],
    ["components", "--genus", "6", "--format", "json"],
    ["verify", "crc", "--order", "8", "--format", "json"],
])
def test_failed_table_check_exits_1_without_output(capsys, monkeypatch, argv):
    _corrupt_delta_direct(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "table check failed: delta closed form vs direct sum\n"


def test_verify_recursions_reports_failed_check(capsys, monkeypatch):
    _corrupt_delta_direct(monkeypatch)
    code, out, err = run(capsys, "verify", "recursions", "--max-genus", "8")
    assert code == 1
    assert "delta closed form vs direct sum: fail\n" in out
    assert out.endswith("FAILURES present\n")
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
])
def test_out_of_range_argument_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message + "\n"
