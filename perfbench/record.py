"""Write reference.json: the payload of every invocation the benchmark can run.

    python3 perfbench/record.py        # from the root of a checkout

The references are recorded once, from the commit that defined the
benchmark, and are not re-recorded to make a failing gate pass: a
change that alters a payload on purpose says so and records anew.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
from run import Env, cli_args, git_rev  # noqa: E402
from workloads import all_invocations  # noqa: E402


def main() -> int:
    env = Env(os.getcwd())
    lines = []
    for inv in all_invocations():
        res = env.cli(cli_args(inv))
        if res["rc"] != 0:
            print(f"{gate.key(inv)}: exit {res['rc']}\n{res['stderr']}", file=sys.stderr)
            return 1
        entry = {"exit": res["rc"], "payload": gate.project(json.loads(res["stdout"]))}
        lines.append(f"{json.dumps(gate.key(inv))}: {json.dumps(entry, separators=(',', ':'))}")
        print(f"recorded {gate.key(inv)} ({res['wall_s']:.2f} s)", file=sys.stderr)
    with open(gate.REFERENCE_PATH, "w") as fh:
        fh.write('{"recorded_from": ' + json.dumps(git_rev(env.root)) + ',\n"invocations": {\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
