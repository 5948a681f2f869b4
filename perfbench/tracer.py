"""In-process layer tracing of one crepant CLI invocation.

Run as a child of ``run.py``:

    python3 perfbench/tracer.py {plain|traced} SPANS_PATH -- <crepant CLI args>

The child imports crepant from the checkout's ``src``, optionally wraps
the functions listed in ``TRACED``, calls ``crepant.cli.main`` with its
stdout captured, and prints one JSON object: exit code, captured
output, in-process wall time and, when traced, per-function call counts
and self times, per-module self times and the span-tree consistency
problems found (none expected).  Traced runs write every span as
``id, parent, name, start_s, end_s`` rows to SPANS_PATH (gzip TSV).

Python binds ``from .algebra import f`` as a separate name in each
importing module, so every module-level function is patched in every
crepant module namespace that holds it, and every method on its class
(aliases such as ``__rmul__ = __mul__`` included, counted under the
primary name).  After patching, no crepant namespace may still hold an
unwrapped original.
"""
from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import sys
import time
import types
from array import array

MODULES = ("algebra", "hurwitz", "potentials", "mckay", "cli")

TRACED = {
    "algebra": (
        "Cyc3.__mul__", "BiSeries.__mul__", "BiSeries.__add__", "BiSeries.build",
        "compose_linear", "geometric_exp_series",
        "USeries.__mul__", "USeries.reciprocal", "tau_series",
        "CycElement.__mul__", "CycField.zeta_pow", "CycField._reduce",
        "_poly_divmod", "cyclotomic_polynomial",
    ),
    "hurwitz": (
        "build_hodge_table", "b_recursive", "abullet_recursive", "b_values",
        "a_values", "abullet_values", "gamma_bruteforce", "solve_components",
        "solve_exact_linear", "theta_pair", "theta_check", "table_rows",
    ),
    "potentials": (
        "verify_crc", "fy_third_partial", "fx_third_partial", "triple_intersection",
    ),
    "mckay": ("duval_transform", "transform_json"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, quals in TRACED.items() for qual in quals)

# Higher-order functions whose callable arguments run another module's
# code: each call of such a callable gets a span named after the module
# that defined it, so that work is not counted as the callee's.
CALLBACK_TAKERS = frozenset({"algebra.BiSeries.build"})

# Tolerance for float rounding when self times are summed (seconds).
_EPS = 1e-9


class Tracer:
    """Span recorder: parallel arrays, one entry per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn):
        fid = self.name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter
        module = name.split(".", 1)[0]
        foreign = self.foreign_callable
        takes_callbacks = name in CALLBACK_TAKERS

        def traced(*args, **kwargs):
            if takes_callbacks:
                args = tuple(foreign(a, module) for a in args)
            idx = len(starts)
            name_ids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def foreign_callable(self, arg, module: str):
        """Wrap ``arg`` in a span if it is a function another crepant module defined."""
        if not isinstance(arg, types.FunctionType):
            return arg
        owner = arg.__module__.rsplit(".", 1)[-1]
        if owner == module or owner not in MODULES:
            return arg
        return self.wrap(f"{owner}.{arg.__qualname__}", arg)

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever crepant binds it."""
        mods = [importlib.import_module("crepant")]
        mods += [importlib.import_module(f"crepant.{m}") for m in MODULES]
        originals = []
        for mod_name, quals in TRACED.items():
            home = importlib.import_module(f"crepant.{mod_name}")
            for qual in quals:
                name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name, None)
                    raw = vars(cls).get(attr) if cls is not None else None
                    if raw is None:
                        self.missing.append(name)
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self.wrap(name, raw.__func__))
                    else:
                        wrapped = self.wrap(name, raw)
                    for key, value in list(vars(cls).items()):
                        if value is raw:
                            setattr(cls, key, wrapped)
                else:
                    raw = getattr(home, qual, None)
                    if raw is None:
                        self.missing.append(name)
                        continue
                    wrapped = self.wrap(name, raw)
                    for mod in mods:
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                setattr(mod, key, wrapped)
                originals.append((name, raw))
        for name, raw in originals:
            for mod in mods:
                spaces = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                        if isinstance(v, type) and v.__module__.startswith("crepant")]
                if any(value is raw for space in spaces for value in space.values()):
                    raise RuntimeError(f"{name} is still bound unwrapped in {mod.__name__}")

    def summary(self) -> dict:
        """Calls and self times per function and module, plus consistency problems."""
        n = len(self.starts)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        child = [0.0] * n
        problems = []
        root_wall = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p < 0:
                root_wall += dur
                continue
            child[p] += dur
            if not (starts[p] <= starts[i] and ends[i] <= ends[p]):
                problems.append(f"span {i} ({self.names[name_ids[i]]}) escapes its parent {p}")
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for i in range(n):
            own = ends[i] - starts[i] - child[i]
            if own < -_EPS:
                problems.append(f"span {i} ({self.names[name_ids[i]]}) has self time {own}")
            name = self.names[name_ids[i]]
            calls[name] += 1
            self_s[name] += own
        module_self = {m: 0.0 for m in MODULES}
        for name, own in self_s.items():
            module_self[name.split(".", 1)[0]] += own
        total_self = sum(module_self.values())
        if abs(total_self - root_wall) > 1e-6 * max(1.0, root_wall):
            problems.append(f"module self times sum to {total_self}, traced wall is {root_wall}")
        if self.stack:
            problems.append("span stack not empty at the end of the run")
        return {"calls": calls, "self_s": self_s, "module_self_s": module_self,
                "root_wall_s": root_wall, "problems": problems,
                "missing": self.missing}

    def write_spans(self, path: str) -> None:
        t0 = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.parents[i]}\t{self.names[self.name_ids[i]]}\t"
                         f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n")


def main(argv: list[str]) -> int:
    mode, spans_path, sep, *cli_args = argv
    if mode not in ("plain", "traced") or sep != "--":
        print("usage: tracer.py {plain|traced} SPANS_PATH -- CLI_ARGS...", file=sys.stderr)
        return 2
    cli = importlib.import_module("crepant.cli")
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(cli_args)
    wall = time.perf_counter() - t0
    result = {"rc": rc, "wall_s": wall, "output": buf.getvalue()}
    if tracer is not None:
        result.update(tracer.summary())
        tracer.write_spans(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
