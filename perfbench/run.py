"""crepant benchmark: timed CLI workloads, a traced per-layer run, a correctness gate.

Run from the root of a checkout (stdlib only, no install needed):

    python3 perfbench/run.py --workload crc --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45      # every workload, summary table
    python3 perfbench/run.py --workload hodge --trace 1        # per-layer numbers
    python3 perfbench/run.py --self-test                       # the gate catches tampering

``--trace 0`` times real ``python3 -m crepant.cli`` processes, one at a
time, and reports end-to-end figures: means of wall and CPU time over the
run and the median set-up time, each scaled by a calibration timed
alongside (``calibrate.py``), and the median peak RSS.  ``--trace 1`` runs each
invocation in-process under ``tracer.py`` and reports per-layer calls
and self times.  Every output is checked against ``reference.json``.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import SELF_TEST, WORKLOADS  # noqa: E402

RESULTS = os.path.join(HERE, "results")
SETUP_ARGS = ("--help",)
CALIBRATE = os.path.join(HERE, "calibrate.py")
# Timed metrics are scaled to a host that runs calibrate.py, start-up
# included, in this time.  The value only sets the scale; in the
# baseline runs (README) the calibration took 0.17 to 0.22 s.
CALIBRATION_NOMINAL_S = 0.22
# One calibration per this many seconds of workload time.  The scale's
# noise comes mostly from the calibration's own jitter, so it needs about
# as many samples as the workload, spread over the whole run.
CALIBRATE_EVERY_S = 1.0
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0
MIN_SAMPLES = 3
MIN_TRACED = 2
SETUP_WARM = 3


class Env:
    """Where the program under test lives and how its processes are started."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "crepant", "cli.py")):
            raise FileNotFoundError(f"no crepant sources under {self.src}")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=self.src + (os.pathsep + path if path else ""))

    def run(self, argv: list[str]) -> dict:
        """Spawn one child, wait for it, and return its exit, output and usage."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return {"rc": proc.returncode, "stdout": out.decode(), "stderr": err[0].decode(),
                "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mib": usage.ru_maxrss / 1024}

    def cli(self, args) -> dict:
        return self.run([sys.executable, "-m", "crepant.cli", *args])


def cli_args(invocation) -> list[str]:
    return [*invocation, "--format", "json"]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def git_rev(root: str) -> str:
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: str) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_rev": git_rev(root), "loadavg_start": os.getloadavg()}


# ---------------------------------------------------------------------------
# Timed mode: real CLI processes, end-to-end metrics
# ---------------------------------------------------------------------------

def setup_ok(result: dict) -> bool:
    return result["rc"] == 0 and result["stdout"].startswith("usage: crepant")


def timed_run(env: Env, invocations, seconds: float, reference: dict) -> dict:
    """Alternate a set-up probe and one pass over the workload, with calibrations, until time is up.

    On a shared host the speed of every process shifts by up to 2x for
    tens of seconds to minutes at a time, so raw times of the same code
    spread by a quarter between runs.  The run therefore also times
    ``calibrate.py``, whose work never changes, about once per
    ``CALIBRATE_EVERY_S`` of workload time (before the next invocation),
    and the timed metrics are scaled by ``CALIBRATION_NOMINAL_S`` over
    its mean time in the run:
    seconds on a host that runs the calibration in the nominal time.
    ``wall_s`` and ``cpu_s`` are means over the run's passes and
    ``setup_s`` the median of the probes, each so scaled; the raw
    figures are kept in the result.
    """
    expected = calibrate.checksum()
    for _ in range(SETUP_WARM):  # compile bytecode and warm the file cache
        env.cli(SETUP_ARGS)
        env.run([sys.executable, CALIBRATE])
    setup, walls, cpus, rsss, cal_walls, cal_cpus, failures = [], [], [], [], [], [], []
    attempted = 0
    owed = CALIBRATE_EVERY_S  # so the run starts with a calibration
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        probe = env.cli(SETUP_ARGS)
        attempted += 1
        setup.append(probe["wall_s"])
        if not setup_ok(probe):
            failures.append(f"--help: exit {probe['rc']}")
        wall = cpu = rss = 0.0
        for inv in invocations:
            while owed >= CALIBRATE_EVERY_S:
                owed -= CALIBRATE_EVERY_S
                cal = env.run([sys.executable, CALIBRATE])
                attempted += 1
                cal_walls.append(cal["wall_s"])
                cal_cpus.append(cal["cpu_s"])
                if cal["rc"] != 0 or cal["stdout"].strip() != expected:
                    failures.append(f"calibrate.py: exit {cal['rc']}, output {cal['stdout'].strip()!r}")
            res = env.cli(cli_args(inv))
            owed += res["wall_s"]
            attempted += 1
            reason = gate.check(reference, inv, res["rc"], res["stdout"])
            if reason:
                failures.append(f"{gate.key(inv)}: {reason}")
            wall += res["wall_s"]
            cpu += res["cpu_s"]
            rss = max(rss, res["rss_mib"])
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        now = time.perf_counter()
        if len(walls) >= MIN_SAMPLES and now + (now - t_iter) > start + seconds:
            break
    wall_scale = CALIBRATION_NOMINAL_S / statistics.fmean(cal_walls)
    cpu_scale = CALIBRATION_NOMINAL_S / statistics.fmean(cal_cpus)
    metrics = {
        "wall_s": (statistics.fmean(walls) * wall_scale, "s"),
        "cpu_s": (statistics.fmean(cpus) * cpu_scale, "s"),
        "peak_rss_mib": (statistics.median(rsss), "MiB"),
        "setup_s": (statistics.median(setup) * wall_scale, "s"),
    }
    raw = {"wall_s": statistics.fmean(walls), "cpu_s": statistics.fmean(cpus),
           "setup_s": statistics.median(setup), "calibration_wall_s": statistics.fmean(cal_walls),
           "calibration_cpu_s": statistics.fmean(cal_cpus)}
    return {"attempted": attempted, "failures": failures, "metrics": metrics, "raw": raw,
            "samples": {"wall_s": walls, "cpu_s": cpus, "peak_rss_mib": rsss, "setup_s": setup,
                        "calibration_wall_s": cal_walls, "calibration_cpu_s": cal_cpus},
            "measured_s": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# Traced mode: in-process children under tracer.py, per-layer metrics
# ---------------------------------------------------------------------------

def tracer_child(env: Env, mode: str, inv, spans_path: str) -> dict:
    res = env.run([sys.executable, os.path.join(HERE, "tracer.py"), mode, spans_path, "--",
                   *cli_args(inv)])
    if res["rc"] == 0:
        return json.loads(res["stdout"].splitlines()[-1])
    # A crashed child fails the gate (its exit code) and reports why.
    return {"rc": res["rc"], "output": "", "wall_s": 0.0, "root_wall_s": 0.0,
            "calls": {}, "self_s": {}, "module_self_s": {}, "missing": [],
            "problems": [f"tracer child crashed: {res['stderr'][-500:]}"]}


def traced_run(env: Env, invocations, seconds: float, reference: dict, spans_stem: str) -> dict:
    """Alternate untraced and traced in-process runs of the workload until time is up."""
    plain_walls, traced_walls, iterations, failures = [], [], [], []
    missing: set[str] = set()
    attempted = 0
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        plain_wall = traced_wall = 0.0
        calls = {name: 0 for name in tracer.SPAN_NAMES}
        self_s = {name: 0.0 for name in tracer.SPAN_NAMES}
        module_self = {m: 0.0 for m in tracer.MODULES}
        out_bytes = 0
        # Alternate which mode runs first, so drift does not bias the overhead.
        modes = ("plain", "traced") if len(iterations) % 2 == 0 else ("traced", "plain")
        for k, inv in enumerate(invocations):
            for mode in modes:
                child = tracer_child(env, mode, inv, f"{spans_stem}-{k}.tsv.gz")
                attempted += 1
                reason = gate.check(reference, inv, child["rc"], child["output"])
                if reason:
                    failures.append(f"{mode} {gate.key(inv)}: {reason}")
                if mode == "plain":
                    plain_wall += child["wall_s"]
                    continue
                traced_wall += child["root_wall_s"]
                out_bytes += len(child["output"].encode())
                failures += [f"{gate.key(inv)}: {p}" for p in child["problems"]]
                for name in tracer.SPAN_NAMES:
                    calls[name] += child["calls"].get(name, 0)
                    self_s[name] += child["self_s"].get(name, 0.0)
                for m, v in child["module_self_s"].items():
                    module_self[m] += v
                missing.update(child["missing"])
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        iterations.append({"calls": calls, "self_s": self_s, "module_self_s": module_self,
                           "output_bytes": out_bytes})
        now = time.perf_counter()
        if len(iterations) >= MIN_TRACED and now + (now - t_iter) > start + seconds:
            break
    first = iterations[0]
    for it in iterations[1:]:
        if it["calls"] != first["calls"] or it["output_bytes"] != first["output_bytes"]:
            failures.append("call counts or output size differ between traced runs")
    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = (first["calls"][name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(it["self_s"][name] for it in iterations), "s")
    for m in tracer.MODULES:
        metrics[f"{m}.self_s"] = (statistics.median(it["module_self_s"][m] for it in iterations), "s")
    metrics["cli.output_bytes"] = (first["output_bytes"], "bytes")
    # Paired differences: each pass runs both modes back to back, so a
    # change in machine speed between passes cancels.
    metrics["trace.overhead_s"] = (
        statistics.median(t - p for t, p in zip(traced_walls, plain_walls)), "s")
    return {"attempted": attempted, "failures": failures, "metrics": metrics, "missing": sorted(missing),
            "samples": {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls},
            "measured_s": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def shares(metrics: dict) -> dict:
    """Each module's share of the traced self time."""
    total = sum(metrics[f"{m}.self_s"][0] for m in tracer.MODULES) or 1.0
    return {m: metrics[f"{m}.self_s"][0] / total for m in tracer.MODULES}


def module_calls(metrics: dict, module: str) -> int:
    return sum(metrics[f"{n}.calls"][0] for n in tracer.SPAN_NAMES if n.startswith(module + "."))


def run_workload(env: Env, name: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> dict:
    workload = WORKLOADS[name]
    invocations = workload.invocations(seed)
    meta = metadata(env.root)
    meta.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                invocations=[gate.key(i) for i in invocations])
    os.makedirs(RESULTS, exist_ok=True)
    if trace:
        result = traced_run(env, invocations, seconds, reference,
                            os.path.join(RESULTS, f"spans-{name}-seed{seed}"))
    else:
        result = timed_run(env, invocations, seconds, reference)
    meta["loadavg_end"] = os.getloadavg()
    result["meta"] = meta
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def final_line(result: dict) -> str:
    failed = len(result["failures"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def describe(name: str, result: dict) -> None:
    """Human-readable lines for one workload (never the last stdout line)."""
    meta = result["meta"]
    print(f"[{name}] {' + '.join(meta['invocations'])}")
    print(f"[{name}] meta " + json.dumps({k: meta[k] for k in (
        "python", "nproc", "affinity", "git_rev", "loadavg_start", "loadavg_end")}))
    for reason in result["failures"][:20]:
        print(f"[{name}] FAILED {reason}")
    for missing in result.get("missing", []):
        print(f"[{name}] not traced (not found): {missing}")
    if "raw" in result:
        print(f"[{name}] unscaled " + " ".join(f"{k} {v:.4f}" for k, v in result["raw"].items()))
    for metric, samples in result["samples"].items():
        q1, q2, q3 = quartiles(samples)
        print(f"[{name}] {metric}: mean {statistics.fmean(samples):.4f} median {q2:.4f} "
              f"q1 {q1:.4f} q3 {q3:.4f} n {len(samples)}")
    print(f"[{name}] failed_ops {len(result['failures'])}/{result['attempted']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the references and that the gate catches a tampered one")
    args = parser.parse_args(argv)

    try:
        env = Env(os.getcwd())
        reference = gate.load_reference()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    if args.self_test:
        import selftest
        return selftest.run(env, reference)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(env, name, args.seed, args.seconds, bool(args.trace), reference)
        describe(name, results[name])
    if args.workload != "all":
        print(final_line(results[args.workload]))
        return 0

    print(f"{'workload':8} {'metric':34} {'value':>14} unit")
    for name, result in results.items():
        rows = dict(result["metrics"])
        if args.trace:
            for m, share in shares(rows).items():
                rows[f"share.{m}"] = (share, "fraction")
                rows[f"calls.{m}"] = (module_calls(rows, m), "count")
        rows["failed_ops"] = (len(result["failures"]) / result["attempted"], "fraction")
        for metric, (value, unit) in rows.items():
            if args.trace and metric.endswith(".calls") and value == 0:
                continue
            print(f"{name:8} {metric:34} {value:14.6g} {unit}")
    print(json.dumps({name: json.loads(final_line(r)) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
