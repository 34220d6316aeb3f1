"""matroidlab benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 20 --trace 0

Each workload runs in its own worker process (perfbench/worker.py), so
peak_rss_mb belongs to that workload alone. Expected answers come from
oracle.py in this process and are handed to the worker, which checks
every report outside the timed region. Set-up is timed by starting
SETUP_RUNS fresh worker processes that import the package, write the
inputs and run one warm-up operation; setup_s is the median of their CPU
times (user + system).

Operation times are scaled to a nominal machine speed: the worker times a
fixed probe kernel between operations, and each operation is scaled by
REFERENCE_S over the probe time in effect when it ran. On a shared host
whose speed drifts over minutes this keeps the figures comparable across
runs; the raw probe median is printed on the line before the result.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from traced passes (spans recorded around package calls,
see spans.py), per execution of one set-up plus one pass of the list.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 5
# Operation times are reported at a nominal machine speed: each is scaled by
# REFERENCE_S over the speed probe's time when it ran (see worker.reference).
REFERENCE_S = 0.02
TIME_LIMIT_S = 170     # the whole run, set-ups and oracle included
WORK_ROOT = ".perfbench"


def layer_of(span: str):
    """The layer a span belongs to, named after the workload built to
    isolate it; None for spans no workload is built around."""
    if span in ("tester.count_patterns", "tester.find_pattern"):
        return "exact_scan"
    if span == "tester.run_tester":
        return "sampling"
    if (span in ("tester.min_repair_distance", "tester.pattern_hitting_number",
                 "tester.enumerate_instances", "boolfn.BooleanFunction")
            or span.split(".")[0] in ("matroid", "families", "gf2")):
        return "search"
    if span.startswith("boolfn.") or span == "cli.main":
        return "spectral"
    return None


def _children_cpu() -> float:
    """CPU seconds of all finished child processes (user + system)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def run_worker(args_list: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise TimeoutError("out of time before starting a worker")
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args_list,
                          capture_output=True, text=True, timeout=timeout)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(summary: dict, ops: list, setup_times: list[float]) -> dict:
    # (operation, seconds at the nominal probe speed) for untraced samples
    timed = [(i, dt * REFERENCE_S / probe)
             for i, dt, _, traced, probe in summary["samples"] if not traced]
    lat = [dt for _, dt in timed]
    assign = [(ops[i].assignments, dt) for i, dt in timed if ops[i].assignments]
    drawn = [(ops[i].samples, dt) for i, dt in timed if ops[i].samples]
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * percentile(lat, 0.5), "ms"),
        "op_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB"),
        "assignments_per_s": (sum(a for a, _ in assign) / sum(t for _, t in assign), "1/s"),
        "samples_per_s": (sum(a for a, _ in drawn) / sum(t for _, t in drawn), "1/s"),
    }


def per_layer(summary: dict) -> dict:
    layers = summary["layers"]

    def get(name, key="self_s"):
        return layers.get(name, {}).get(key, 0.0)

    def group(names, key):
        return sum(get(n, key) for n in names)

    def rate(num, den):
        return num / den if den else 0.0

    m: dict = {}
    for name in ("tester.count_patterns", "tester.find_pattern", "tester.run_tester"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name), "s")
    m["tester.count_patterns.assignments"] = (get("tester.count_patterns", "assignments"), "count")
    m["tester.count_patterns.assignments_per_s"] = (
        rate(get("tester.count_patterns", "assignments"),
             get("tester.count_patterns", "seconds")), "1/s")
    m["tester.find_pattern.assignments"] = (get("tester.find_pattern", "assignments"), "count")
    m["tester.find_pattern.assignments_examined"] = (
        get("tester.find_pattern", "assignments_examined"), "count")
    samples, seconds = get("tester.run_tester", "samples"), get("tester.run_tester", "seconds")
    m["tester.run_tester.samples"] = (samples, "count")
    m["tester.run_tester.samples_per_s"] = (rate(samples, seconds), "1/s")
    m["tester.run_tester.ms_per_1e6_samples"] = (rate(1e9 * seconds, samples), "ms")
    for name in ("cycle_count_fourier", "brute_force_cycle_count", "von_neumann_gap",
                 "min_repair_distance", "pattern_hitting_number"):
        m[f"tester.{name}.self_s"] = (get(f"tester.{name}"), "s")
    for name in ("boolfn.BooleanFunction", "boolfn.wht", "families.achieved_patterns",
                 "gf2.rank_and_basis", "gf2.coset_decompose"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name), "s")
    m["boolfn.wht.butterfly_ops"] = (get("boolfn.wht", "butterfly_ops"), "count")
    m["boolfn.wht.ms_at_n20"] = (rate(1000 * get("boolfn.wht", "n20_seconds"),
                                      get("boolfn.wht", "n20_calls")), "ms")
    m["boolfn.power_sum.self_s"] = (get("boolfn.power_sum"), "s")
    m["boolfn.power_sum.coeffs"] = (get("boolfn.power_sum", "coeffs"), "count")
    for name in ("boolfn.regularity_decompose", "cli.main", "matroid.complexity",
                 "matroid.find_homomorphism", "matroid.circuits", "matroid.odd_girth",
                 "families.verify_characterization", "matroid.canonical_function"):
        m[f"{name}.self_s"] = (get(name), "s")
    for kind in ("load", "save"):
        names = [f"fileio.{kind}_{x}" for x in ("function", "matroid", "graph")]
        m[f"fileio.{kind}.self_s"] = (group(names, "self_s"), "s")
        m[f"fileio.{kind}.bytes"] = (group(names, "bytes"), "bytes")
    total_self = sum(v["self_s"] for v in layers.values())
    for label in ("exact_scan", "sampling", "spectral", "search"):
        own = sum(v["self_s"] for n, v in layers.items() if layer_of(n) == label)
        m[f"layer.{label}.self_share"] = (rate(own, total_self), "ratio")
    passes = summary["pass_seconds"]
    m["trace.overhead_ratio"] = (sum(passes["traced"]) / sum(passes["untraced"]), "ratio")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    deadline = monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "matroidlab", "cli.py")):
        return fail("run from the root of a matroidlab checkout (src/matroidlab not found)")
    if "MATROIDLAB_WORKERS" in os.environ:
        return fail("MATROIDLAB_WORKERS must be unset; results are recorded without it")

    import oracle
    inputs, ops, _ = workloads.build(args.workload, args.seed)
    work = os.path.join(root, WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        expect_path = os.path.join(work, "expect.json")
        with open(expect_path, "w", encoding="ascii") as fh:
            json.dump(oracle.expectations(inputs, ops), fh)
        common = ["--workload", args.workload, "--seed", str(args.seed), "--root", root]
        setup_times = []
        for i in range(SETUP_RUNS):
            workdir = os.path.join(work, f"setup{i}")
            os.makedirs(workdir)
            before = _children_cpu()
            proc = run_worker(common + ["--mode", "setup", "--workdir", workdir], deadline)
            setup_times.append(_children_cpu() - before)
            if proc.returncode != 0:
                return fail(f"set-up run failed ({proc.returncode}): {proc.stderr[-2000:]}")
            shutil.rmtree(workdir)
        workdir = os.path.join(work, "run")
        os.makedirs(workdir)
        trace_out = os.path.join(root, WORK_ROOT,
                                 f"trace-{args.workload}-seed{args.seed}.jsonl")
        proc = run_worker(common + ["--mode", "run", "--workdir", workdir,
                                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                                    "--expect", expect_path, "--trace-out", trace_out],
                          deadline)
        if proc.returncode != 0:
            return fail(f"measured run failed ({proc.returncode}): {proc.stderr[-2000:]}")
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, TimeoutError) as exc:
        return fail(f"time limit: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(summary) if args.trace else end_to_end(summary, ops, setup_times)
    attempted = len(summary["samples"])
    failed = sum(1 for s in summary["samples"] if s[2])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "latency_samples": sum(1 for s in summary["samples"] if not s[3]),
        "probe_s_median": statistics.median(s[4] for s in summary["samples"]),
        "passes": {k: len(v) for k, v in summary["pass_seconds"].items()},
        "setup_runs_s": setup_times,
        "failures": summary["failures"],
        "env": {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
                "python": platform.python_version(), "numpy": summary["numpy"],
                "MATROIDLAB_WORKERS": "unset"},
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
