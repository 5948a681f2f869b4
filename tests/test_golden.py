"""Byte-for-byte comparison of CLI output and CRC reports with recorded goldens.

Each file under ``tests/golden/`` was recorded before the code that
produces it was restructured: the ``verify crc`` outputs from the
bivariate coefficient-by-coefficient comparison, before the
direction-wise route existed; the ``verify recursions``, ``tables``,
``components``, ``verify theta`` and ``duval`` outputs while ``verify
recursions`` still ran its own copy of the Hodge-table checks; the
``localization --format text`` and ``verify crc --order 30`` outputs
while the identity-sector constants of both potentials were still
written by hand and the localization values came from a linear solve;
the ``verify theta --order 8 --format text`` and ``--order 50`` outputs
while ``theta_pair`` still summed on A_g over an lcm denominator and
``verify theta`` decided the identity itself; the ``components --genus
40`` and ``verify theta --order 80`` outputs while the component rows
and the theta identity were still summed term by term; and every
``tables`` and ``components`` output while the table still stored one
value per component label.  Every ``tables``, ``components`` and
``verify theta`` output predates the mirrored degree sums, the diagonal
walk of the weights and the integer chain solver; the ``tables
--max-genus 100 --format csv`` and ``verify theta --order 120`` outputs
were recorded before the walk, to reach it beyond degree 79; every
``verify crc`` output and ``verify_crc_failures.json`` predates the
per-form route, which compares degrees >= 2 once per linear form
instead of once per index; and the failure reports in
``verify_crc_failures.json`` predate the coefficient walk, which reads
a failing index coefficient by coefficient up to its first mismatch
instead of building two bivariate series.  The ``verify recursions``
outputs were recorded again, and changed only by their check lines, when
the table stopped reporting the A-bullet recursion and the ODE and
merged "A-bullet = gamma * A" with "functional equation for A and B".

- ``cli_cases.json`` lists each CLI invocation with its stdout file and
  exit code;
- ``verify_crc_failures.json`` holds the ``verify_crc`` reports of three
  corrupted inputs, serialized with ``json.dumps(report, indent=2)``.
"""
import copy
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from crepant.cli import main
from crepant.potentials import OMEGA_BAR, ChangeOfVars, Cyc3, verify_crc

GOLDEN = Path(__file__).parent / "golden"
CLI_CASES = json.loads((GOLDEN / "cli_cases.json").read_text())


@pytest.mark.parametrize("case", CLI_CASES, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_golden(case, capsys):
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / case["stdout"]).read_text()


def test_failure_reports_match_golden(table16):
    std = ChangeOfVars.standard()
    broken = copy.deepcopy(table16)
    broken.A[5] = broken.A[5] + 1
    (j00, j01), row2 = std.jacobian
    off = ChangeOfVars(jacobian=((j00 + Cyc3(F(1, 7)), j01), row2),
                       q_values=std.q_values)
    reports = {
        "order9_A5_plus_1": verify_crc(9, broken),
        "order6_q_wbar_wbar": verify_crc(
            6, table16, cov=ChangeOfVars(std.jacobian, (OMEGA_BAR, OMEGA_BAR))),
        "order6_jacobian_off_direction": verify_crc(6, table16, cov=off),
    }
    expected = (GOLDEN / "verify_crc_failures.json").read_text()
    assert json.dumps(reports, indent=2) + "\n" == expected
