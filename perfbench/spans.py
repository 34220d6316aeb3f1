"""Spans around the package's functions, installed from outside it.

Only the traced run installs the wrappers. A wrapper replaces the
module attribute and every `from .x import y` binding of the same
object in the package's other modules, because those bindings were
fixed at import time. Spans stay in memory as
[name, parent, op, start, end, work] and are written out at the end.
Work counts come from call arguments and return values.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

# Every public function of the computational modules is wrapped. Of fileio
# and cli only the boundary is wrapped, so cli.main's self time covers
# argparse, pipeline glue, result sorting and JSON, and a load's self
# time covers reading and parsing.
ALL_PUBLIC = ("gf2", "boolfn", "matroid", "tester", "families")
BOUNDARY = {"fileio": ("load_function", "load_matroid", "load_graph",
                       "save_function", "save_matroid", "save_graph"),
            "cli": ("main",)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _find_work(args, kwargs, result):
    f, m = args[0], args[1]
    total = 1 << (f.n * m.rank)
    if result is None:
        return {"assignments": total, "assignments_examined": total}
    t = 0
    for j, u in enumerate(result.map.images):
        t |= u.bits << (j * f.n)
    return {"assignments": total, "assignments_examined": t + 1}


WORK = {
    "tester.count_patterns": lambda a, k, r: {"assignments": 1 << (a[0].n * a[1].rank)},
    "tester.find_pattern": _find_work,
    "tester.run_tester": lambda a, k, r: {"samples": a[3] if len(a) > 3 else k["samples"]},
    "boolfn.wht": lambda a, k, r: {"butterfly_ops": a[0].n << a[0].n, "n": a[0].n},
    "boolfn.power_sum": lambda a, k, r: {"coeffs": int(a[0].coeffs.shape[0])},
    **{f"fileio.{name}": _file_bytes for name in BOUNDARY["fileio"]},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None          # spans are recorded only while an operation is set
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer, work = self, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, tracer.stack[-1] if tracer.stack else -1, tracer.op,
                    perf_counter(), 0.0, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[4] = perf_counter()
                tracer.stack.pop()
                if work is not None and ok:
                    span[5] = work(args, kwargs, result)
        return traced

    def install(self) -> None:
        originals = {}
        for mod_name in ALL_PUBLIC + tuple(BOUNDARY):
            mod = sys.modules[f"matroidlab.{mod_name}"]
            names = BOUNDARY.get(mod_name) or [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and callable(obj) and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == mod.__name__]
            for n in names:
                originals[id(getattr(mod, n))] = self._wrap(f"{mod_name}.{n}", getattr(mod, n))
        boolfn = sys.modules["matroidlab.boolfn"]
        for owner, attr, name in ((boolfn.BooleanFunction, "__init__", "boolfn.BooleanFunction"),
                                  (boolfn.FourierSpectrum, "power_sum", "boolfn.power_sum")):
            orig = vars(owner)[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "matroidlab":
                for n, obj in list(vars(mod).items()):
                    if id(obj) in originals:
                        self._patches.append((mod, n, obj))
                        setattr(mod, n, originals[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def aggregate(self, weight) -> dict:
        """Per span name: calls, seconds, self seconds and work counts,
        each span scaled by weight(op)."""
        child = [0.0] * len(self.spans)
        for name, parent, op, start, end, work in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, parent, op, start, end, work) in enumerate(self.spans):
            w = weight(op)
            agg = out.setdefault(name, {"calls": 0.0, "seconds": 0.0, "self_s": 0.0})
            agg["calls"] += w
            agg["seconds"] += w * (end - start)
            agg["self_s"] += w * (end - start - child[i])
            for key, value in (work or {}).items():
                if key == "n":
                    if value == 20:  # the WHT's reference size
                        agg["n20_calls"] = agg.get("n20_calls", 0.0) + w
                        agg["n20_seconds"] = agg.get("n20_seconds", 0.0) + w * (end - start)
                else:
                    agg[key] = agg.get(key, 0.0) + w * value
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i] + span, separators=(",", ":")) + "\n")
