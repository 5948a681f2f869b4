"""Self-test of the correctness gate (``run.py --self-test``).

1. Spot-check the recorded references against known values:
   B_2 = 2/3, B_3 = 10/9, A_5 = 2/27, gamma_g = (2^(g+1) + (-1)^g) / 3,
   every recorded verify check passes, and each DuVal matrix is over
   Q(zeta_2n).
2. The gate ignores keys the reference lacks and catches changed values.
3. The cheap self-test invocations pass the gate through the timed path,
   and fail it (nonzero failed_ops) once their references are tampered.
"""
from __future__ import annotations

import copy
from fractions import Fraction

import gate
from workloads import SELF_TEST


def spot_check(reference: dict) -> list[str]:
    problems = []
    for name, entry in reference.items():
        payload = entry["payload"]
        if name.startswith("tables"):
            rows = {row["g"]: row for row in payload}
            for g, field, value in ((2, "B", "2/3"), (3, "B", "10/9"), (5, "A", "2/27")):
                if g in rows and rows[g][field] != value:
                    problems.append(f"{name}: {field}_{g} = {rows[g][field]}, expected {value}")
            for g, row in rows.items():
                if row["gamma"] != (2 ** (g + 1) + (-1) ** g) // 3:
                    problems.append(f"{name}: gamma_{g} = {row['gamma']}")
            for g, row in rows.items():
                if g >= 1 and Fraction(row["Abullet"]) != row["gamma"] * Fraction(row["A"]):
                    problems.append(f"{name}: Abullet_{g} != gamma_{g} * A_{g}")
        elif name.startswith("verify"):
            if not payload["all_pass"] or any(c["status"] != "pass" for c in payload["checks"]):
                problems.append(f"{name}: recorded a failing check")
        elif name.startswith("duval"):
            n = payload["n"]
            if payload["cyclotomic_order"] != 2 * n or len(payload["matrix"]) != n - 1:
                problems.append(f"{name}: matrix is not (n-1) rows over Q(zeta_2n)")
        if entry["exit"] != 0:
            problems.append(f"{name}: recorded exit {entry['exit']}")
    return problems


def gate_semantics() -> list[str]:
    ref = {"checks": [{"idx": "000", "status": "pass"}], "all_pass": True}
    out = {"checks": [{"idx": "000", "status": "pass", "elapsed_ms": 3.5}],
           "all_pass": True, "timings": {}}
    problems = []
    if not gate.matches(ref, out):
        problems.append("an added field was counted as a failure")
    out["checks"][0]["status"] = "fail"
    if gate.matches(ref, out):
        problems.append("a changed status was not caught")
    if gate.matches({"v": "2/3"}, {"v": "2/5"}) or gate.matches({"v": 1}, {"v": True}):
        problems.append("a changed value was not caught")
    return problems


def _tamper(payload) -> bool:
    """Change the first string leaf of a payload in place."""
    items = payload.items() if isinstance(payload, dict) else enumerate(payload)
    for k, v in items:
        if isinstance(v, str):
            payload[k] = v + "1"
            return True
        if isinstance(v, (dict, list)) and _tamper(v):
            return True
    return False


def run(env, reference: dict) -> int:
    from run import timed_run

    problems = spot_check(reference) + gate_semantics()
    honest = timed_run(env, SELF_TEST, 0.0, reference)
    print(f"self-test, true references: failed_ops {len(honest['failures'])}/{honest['attempted']}")
    problems += [f"true reference failed: {f}" for f in honest["failures"]]

    tampered = copy.deepcopy(reference)
    for inv in SELF_TEST[:-1]:
        _tamper(tampered[gate.key(inv)]["payload"])
    tampered[gate.key(SELF_TEST[-1])]["exit"] = 1
    caught = timed_run(env, SELF_TEST, 0.0, tampered)
    print(f"self-test, tampered references: failed_ops {len(caught['failures'])}/{caught['attempted']}")
    flagged = {f.split(":", 1)[0] for f in caught["failures"]}
    for inv in SELF_TEST:
        if gate.key(inv) not in flagged:
            problems.append(f"tampered reference for {gate.key(inv)} was not caught")

    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test passed" if not problems else f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0
