"""One workload in its own process: write the seeded inputs with the
package, then run the operation list as in-process `cli.main(argv)`
calls, one at a time (a closed loop with one client).

Modes:
  setup  import, write inputs, one warm-up operation, exit (timed by run.py)
  run    the same set-up, then whole passes over the operation list for
         about --seconds (at least MIN_OPS operations), timing a speed
         probe between operations; with --trace 1, untraced and traced
         passes alternate and the traced ones record spans

The last stdout line is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter, process_time

import numpy as np


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--expect", default=None)
    p.add_argument("--trace-out", default=None)
    return p.parse_args(argv)


def materialize(inputs: dict, workdir: str, ml) -> None:
    """Write every input file with the package's constructors and writers."""
    import workloads as w
    from matroidlab.gf2 import GFVector

    def graphic(g):
        return ml.matroid.BinaryMatroid([GFVector(g.V, r) for r in g.rows()])

    for name, inp in inputs.items():
        if isinstance(inp, w.Function):
            ml.fileio.save_function(os.path.join(workdir, f"{name}.boolfn"),
                                    ml.boolfn.BooleanFunction(w.domain_dim(inp), inp.table))
        elif isinstance(inp, w.Canonical):
            f = ml.matroid.canonical_function(graphic(inp.graph), inp.n)
            ml.fileio.save_function(os.path.join(workdir, f"{name}.boolfn"), f)
        elif isinstance(inp, w.Graphic):
            ml.fileio.save_matroid(os.path.join(workdir, f"{name}.matroid"), graphic(inp.graph))
        elif isinstance(inp, w.Cographic):
            g = ml.matroid.Graph.from_edges(inp.graph.V, inp.graph.edges)
            ml.fileio.save_matroid(os.path.join(workdir, f"{name}.matroid"),
                                   ml.matroid.cographic_from_graph(g))
        elif isinstance(inp, w.GraphFile):
            g = ml.matroid.Graph.from_edges(inp.graph.V, inp.graph.edges)
            ml.fileio.save_graph(os.path.join(workdir, f"{name}.graph"), g)
        else:
            raise TypeError(f"unknown input kind for {name}")


# enough latency samples that the 90th percentile has ten beyond it
MIN_OPS = 100

# Machine-speed probe. A shared host drifts by up to 2x over minutes, and
# that drift moved the end-to-end figures more than any bound can allow.
# This fixed, benchmark-owned mix of the package's kinds of work is timed
# every REFERENCE_EVERY_S between operations, and run.py scales each
# operation by the probe time in effect when it ran.
REFERENCE_EVERY_S = 0.5


class Probe:
    """A fixed unit of work: numpy gathers over preallocated 2^19-entry
    buffers (no allocation, so the time does not depend on what the
    package left in the heap), a sort with a Python key and exact integer
    power sums, as the spectral pipelines do, and a dict loop."""

    SIZE = 1 << 19

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 2, 1024).astype(np.uint8)
        self.ts = np.arange(self.SIZE, dtype=np.int64)
        self.a, self.b = np.empty_like(self.ts), np.empty_like(self.ts)
        self.va, self.vb = np.empty(self.SIZE, np.uint8), np.empty(self.SIZE, np.uint8)
        self.coeffs = rng.integers(-4096, 4096, 1 << 13)
        self.acc = dict.fromkeys(range(1024), 0)

    def __call__(self) -> float:
        start = process_time()
        for shift in (9, 10):
            np.right_shift(self.ts, shift, out=self.a)
            np.bitwise_and(self.a, 1023, out=self.a)
            np.bitwise_and(self.ts, 1023, out=self.b)
            np.take(self.table, self.a, out=self.va)
            np.take(self.table, self.b, out=self.vb)
            np.bitwise_and(self.va, self.vb, out=self.va)
            np.bitwise_xor(self.a, self.b, out=self.a)
            np.take(self.table, self.a, out=self.vb)
            np.bitwise_and(self.va, self.vb, out=self.va)
            int(self.va.sum())
        c = self.coeffs
        sorted(range(c.shape[0]), key=lambda i: (-abs(int(c[i])), i))
        sum(int(x) ** 4 for x in c)
        acc = self.acc
        for i in range(10000):
            acc[i & 1023] ^= i * i
        return process_time() - start


class Runner:
    """Runs one operation the way a fresh CLI process would see it. Its time
    is CPU time of this process: the package is single-threaded, and on a
    shared host wall time also counts whatever the hypervisor steals."""

    def __init__(self, ml, caches):
        self.ml = ml
        self.caches = caches

    def __call__(self, op):
        for cache in self.caches:   # every CLI process starts with empty caches
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        start = process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.ml.cli.main(list(op.argv))
            except SystemExit as exc:     # argparse exits
                code = exc.code
            except Exception:             # a traceback is a failure
                code = "traceback"
                err.write(traceback.format_exc())
        return process_time() - start, code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    import matroidlab
    import matroidlab.boolfn
    import matroidlab.cli
    import matroidlab.families
    import matroidlab.fileio
    import matroidlab.matroid
    src = os.path.realpath(os.path.join(args.root, "src", "matroidlab"))
    if os.path.dirname(os.path.realpath(matroidlab.__file__)) != src:
        sys.stderr.write(f"imported matroidlab from {matroidlab.__file__}, not {src}\n")
        return 2
    import workloads
    from checks import Checker
    from spans import Tracer

    ml = matroidlab
    caches = [obj for mod in (ml.families, ml.boolfn, ml.matroid, ml.cli)
              for obj in vars(mod).values() if isinstance(obj, functools._lru_cache_wrapper)]
    inputs, ops, warmup = workloads.build(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.op = "setup"
    materialize(inputs, args.workdir, ml)
    if tracer:
        tracer.op = None
        tracer.uninstall()
    os.chdir(args.workdir)
    run = Runner(ml, caches)
    _, code, _, err = run(ops[warmup])
    if code != ops[warmup].exit:
        sys.stderr.write(f"warm-up operation failed with {code}: {err}\n")
        return 1
    if args.mode == "setup":
        return 0

    with open(args.expect, encoding="ascii") as fh:
        expect = json.load(fh)
    check = Checker(inputs, ml.matroid.verify_homomorphism, ml.fileio.load_matroid)
    samples, failures = [], []
    pass_seconds = {"untraced": [], "traced": []}
    reference = Probe()
    started = probed = perf_counter()
    probe = reference()
    while True:
        # traced and untraced passes alternate which goes first
        order = (False, True) if len(pass_seconds["untraced"]) % 2 == 0 else (True, False)
        for traced in (order if tracer else (False,)):
            if traced:
                tracer.install()
            kind = "traced" if traced else "untraced"
            total = 0.0
            for i, op in enumerate(ops):
                if perf_counter() - probed >= REFERENCE_EVERY_S:
                    probe, probed = reference(), perf_counter()
                if traced:
                    tracer.op = len(pass_seconds["traced"]) * len(ops) + i
                dt, code, out, err = run(op)
                if traced:
                    tracer.op = None
                total += dt
                problem = check(i, op, expect[i], code, out, err)
                if problem:
                    failures.append(f"{' '.join(op.argv)}: {problem}")
                samples.append([i, dt, bool(problem), traced, probe])
            pass_seconds[kind].append(total)
            if traced:
                tracer.uninstall()
        # whole passes only, so every run measures the same mix; stop before
        # a pass that would end past --seconds, once MIN_OPS have been timed
        elapsed = perf_counter() - started
        rounds = len(pass_seconds["untraced"])
        if rounds * len(ops) >= MIN_OPS and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    summary = {
        "samples": samples,
        "failures": failures[:20],
        "pass_seconds": pass_seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
    }
    if tracer:
        traced_passes = len(pass_seconds["traced"])
        summary["layers"] = tracer.aggregate(
            lambda op: 1.0 if op == "setup" else 1.0 / traced_passes)
        if args.trace_out:
            tracer.write(args.trace_out)
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
