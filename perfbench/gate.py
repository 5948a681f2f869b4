"""Correctness gate: compare a CLI invocation's JSON payload with a reference.

The payload is the mathematical content of an output: table rows (B,
A-bullet, A, gamma, component values), each check's idx/name and status,
``all_pass``, and the DuVal matrix and q-value coefficient strings.
``project`` keeps only those keys; ``matches`` then compares an output
against the reference on the reference's keys alone, so fields a later
version adds (timings, say) are ignored while any changed value fails.

References live in ``reference.json`` next to this file, one entry per
invocation, keyed by the space-joined CLI arguments.  ``record.py``
writes them.
"""
from __future__ import annotations

import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

PAYLOAD_KEYS = frozenset({
    # tables rows
    "g", "B", "Abullet", "A", "gamma", "components", "l", "value",
    # verify reports
    "suite", "order", "max_genus", "checks", "idx", "name", "status", "all_pass",
    # duval
    "n", "cyclotomic_order", "matrix", "q_values",
})


def key(invocation) -> str:
    return " ".join(invocation)


def project(doc):
    """The payload part of a parsed JSON output."""
    if isinstance(doc, dict):
        return {k: project(v) for k, v in doc.items() if k in PAYLOAD_KEYS}
    if isinstance(doc, list):
        return [project(v) for v in doc]
    return doc


def matches(ref, out) -> bool:
    """True when ``out`` agrees with ``ref`` on every key ``ref`` has."""
    if isinstance(ref, dict):
        return isinstance(out, dict) and all(k in out and matches(v, out[k])
                                             for k, v in ref.items())
    if isinstance(ref, list):
        return (isinstance(out, list) and len(out) == len(ref)
                and all(matches(r, o) for r, o in zip(ref, out)))
    return type(ref) is type(out) and ref == out


def check(reference: dict, invocation, exit_code: int, stdout: str) -> str | None:
    """None when the invocation's result is correct, else the reason it is not."""
    entry = reference.get(key(invocation))
    if entry is None:
        return f"no reference for {key(invocation)!r}"
    if exit_code != entry["exit"]:
        return f"exit code {exit_code}, expected {entry['exit']}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not matches(entry["payload"], doc):
        return "payload differs from the reference"
    return None


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["invocations"]
