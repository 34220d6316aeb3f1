"""Command-line front end: file conversion, seeded experiment
orchestration, and structured report emission.

Reports are JSON documents with sorted keys; every numeric result is
wrapped as {"value": ..., "exact": true|false}. Identical arguments and
seeds produce byte-identical reports except for the runtime_ms field.

`main(argv)` is the Python entry point: it takes the command-line
arguments as a list and returns the exit code. It reuses one parser,
built when this module is imported.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from functools import partial

import numpy as np

from . import __version__
from .boolfn import BooleanFunction, check_regularity_n, random_function, regularity_decompose, wht
from .errors import BudgetExceededError, InvalidInputError, MatroidLabError
from .families import verify_characterization
from .fileio import (load_function, load_graph, load_matroid, save_function,
                     save_matroid)
from .gf2 import GFVector
from .matroid import (HOM_NODE_BUDGET, canonical_function, canonical_ones,
                      check_canonical_args, circuits, cographic_from_graph, complexity,
                      cycle_space_basis, find_homomorphism, graphic_from_graph, named_graph,
                      odd_girth)
from .tester import (PATTERN_BUDGET_BITS, PatternSpec, brute_force_cycle_count,
                     check_instance_walk, check_pattern_args, check_tester_args,
                     check_von_neumann_args, count_patterns, cycle_count_fourier, derive_seed,
                     enumerate_instances, find_pattern, min_repair_distance,
                     pattern_hitting_number, run_tester, von_neumann_gap)

EXIT_OK = 0
EXIT_PROPERTY_VIOLATED = 2
EXIT_BUDGET = 3
EXIT_MALFORMED = 4

# json.dumps cannot print an int of more than 4,300 digits (about
# 14,284 bits); a result that could pass this many bits exits 3 before
# the work starts
REPORT_INT_MAX_BITS = 14_000
# a cycle-count report adds the physical-side scan over the 2^(n*(K-1))
# zero-sum tuples as a second computation only up to this many bits:
# ~0.06 s there on 2 vCPUs, against ~2.5 s at the scan's 30-bit cap
CYCLE_ORACLE_MAX_BITS = 24

SWEEP_CORPUS = ("c3", "c4", "c5", "c6", "c7", "c8", "k4", "k5", "k5e", "petersen")


class PropertyViolation(MatroidLabError):
    """An assertion-style check found a violating pattern."""


def _plain(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


def _check_report_bits(bits: int, what: str) -> None:
    if bits > REPORT_INT_MAX_BITS:
        raise BudgetExceededError(
            f"{what} = {bits} bits exceeds the report's cap of {REPORT_INT_MAX_BITS} bits")


def exact(v) -> dict:
    return {"exact": True, "value": _plain(v)}


def sampled(v) -> dict:
    return {"exact": False, "value": _plain(v)}


# ---------------------------------------------------------------------------
# experiment pipelines: each reads the parsed arguments and returns
# (params, results)


def _exp_complexity_sweep(args):
    names = args.graphs or list(SWEEP_CORPUS)
    results = {}
    for name in names:
        m = graphic_from_graph(named_graph(name))
        c = complexity(m, cap=1)
        results[name] = exact(c if c is not None else "exceeds cap")
    return {"graphs": list(names)}, results


def _exp_complexity_single(args):
    m = load_matroid(args.matroid)
    c = complexity(m, cap=args.cap)
    return ({"cap": args.cap, "k": m.k, "m": m.m},
            {"complexity": exact(c if c is not None else "exceeds cap")})


def _exp_circuits(args):
    m = load_matroid(args.matroid)
    subsets = circuits(m)
    return ({"k": m.k, "m": m.m},
            {"circuit_count": exact(len(subsets)),
             "circuits": [list(c) for c in subsets],
             "cycle_space_basis": [list(c) for c in cycle_space_basis(m)]})


def _exp_oddgirth(args):
    m = load_matroid(args.matroid)
    og = odd_girth(m)
    return ({"k": m.k, "m": m.m},
            {"odd_girth": exact(og if og is not None else "none")})


def _exp_hom(args):
    source = load_matroid(args.source)
    target = load_matroid(args.target)
    phi = find_homomorphism(source, target, node_budget=args.budget)
    found = phi is not None
    return ({"source_k": source.k, "target_k": target.k},
            {"homomorphism_exists": found,
             "assignment": list(phi.assignment) if found else "none"})


def _freeness_args(args):
    f = load_function(args.function)
    m = load_matroid(args.matroid)
    sigma = PatternSpec.from_string(args.sigma)
    return f, m, sigma


def _exp_free(args):
    f, m, sigma = _freeness_args(args)
    inst = find_pattern(f, m, sigma, budget_bits=args.budget)
    results = {"free": inst is None, "sigma": str(sigma)}
    if inst is not None:
        results["witness_points"] = [p.to_bits() for p in inst.points]
        results["witness_basis_images"] = [u.to_bits() for u in inst.map.images]
    return {"n": f.n, "k": m.k, "sigma": str(sigma)}, results


def _exp_count(args):
    f, m, sigma = _freeness_args(args)
    _check_report_bits(f.n * m.m, "n*m")
    rep = count_patterns(f, m, sigma, budget_bits=args.budget)
    return ({"n": f.n, "k": m.k, "rank": rep.rank, "sigma": str(sigma)},
            {"span_count": exact(rep.span_count),
             "span_total": exact(rep.span_total),
             "full_map_count": exact(rep.full_map_count),
             "full_map_total": exact(rep.full_map_total),
             "density": exact(rep.density),
             "counting_convention":
                 "span-basis assignments; full maps are from the matroid's "
                 "presentation space {0,1}^m"})


def _exp_test(args):
    check_tester_args(args.samples, args.seed)
    f, m, sigma = _freeness_args(args)
    rejections, rate = run_tester(f, m, sigma, args.samples, args.seed)
    results = {
        "samples": exact(args.samples),
        "rejections": sampled(rejections),
        "empirical_rate": sampled(str(rate)),
    }
    try:
        results["exact_density"] = exact(
            count_patterns(f, m, sigma, budget_bits=args.budget).density)
    except BudgetExceededError:     # over --budget or past int64: sampled figures only
        pass
    return {"n": f.n, "k": m.k, "samples": args.samples, "sigma": str(sigma)}, results


def _exp_tester_calibration(args):
    if args.buckets < 1:
        raise InvalidInputError(f"buckets must be positive, got {args.buckets}")
    c3 = graphic_from_graph(named_graph("c3"))
    if args.function:
        base = load_function(args.function)
        n = base.n
    else:
        base, n = None, args.n
        check_canonical_args(c3, n)
    m = load_matroid(args.matroid) if args.matroid else c3
    sigma = PatternSpec.from_string(args.sigma or "1" * m.k)
    # each bucket's count and tester run make these checks (its seed is derived,
    # never negative); make them before the 2^n canonical table and index of ones
    check_pattern_args(n, m, sigma, args.budget)
    check_tester_args(args.samples)
    if base is None:
        base = canonical_function(c3, n)
    ones = np.flatnonzero(base.table)
    rows = []
    size = 1 << base.n
    for i in range(args.buckets):
        prune_rng = np.random.Generator(np.random.PCG64(derive_seed(args.seed, 1, i)))
        remove = round(len(ones) * i / max(args.buckets - 1, 1))
        table = base.table.copy()
        if remove:
            table[ones[prune_rng.choice(len(ones), size=remove, replace=False)]] = 0
        variant = BooleanFunction(base.n, table)
        exact_density = count_patterns(variant, m, sigma, budget_bits=args.budget).density
        _, rate = run_tester(variant, m, sigma, args.samples, derive_seed(args.seed, 2, i))
        rows.append([str(Fraction(remove, size)), str(rate), str(exact_density)])
    return ({"buckets": args.buckets, "n": base.n, "samples": args.samples,
             "sigma": str(sigma)},
            {"series": {
                "columns": ["distance_bucket", "empirical_rate", "exact_density"],
                "exact_columns": [True, False, True],
                "rows": rows,
            }})


def _exp_distance(args):
    f, m, sigma = _freeness_args(args)
    rep = min_repair_distance(f, m, sigma)
    results = {
        "flips": exact(rep.flips),
        "delta": exact(rep.delta),
    }
    if sigma.is_all_ones():
        hit = pattern_hitting_number(f, m)
        results["hitting_number"] = exact(hit)
        results["hitting_matches_repair"] = hit == rep.flips
    return {"n": f.n, "k": m.k, "sigma": str(sigma)}, results


def _exp_fourier(args):
    f = load_function(args.function)
    spectrum = wht(f)
    return ({"n": f.n},
            {"ones_count": exact(f.ones_count()),
             "parseval_power_sum": exact(spectrum.power_sum(2)),
             "max_abs_nonzero": exact(spectrum.max_abs_nonzero()),
             "top_coefficients": [
                 {"alpha": GFVector(f.n, a).to_bits(),
                  "coeff": exact(spectrum.coeff(a))}
                 for a in spectrum.top(16)]})


def _exp_von_neumann(args):
    if args.trials < 1:
        raise InvalidInputError(f"trials must be positive, got {args.trials}")
    m = graphic_from_graph(named_graph(args.graph))
    check_von_neumann_args(m, args.n)
    violations = 0
    min_margin = None
    for t in range(args.trials):
        rng = np.random.Generator(np.random.PCG64(derive_seed(args.seed, t)))
        fs = [random_function(args.n, rng) for _ in range(m.k)]
        rep = von_neumann_gap(fs, m)
        if not rep.holds:
            violations += 1
        margin = rep.rhs_fourth_power - rep.lhs ** 4
        if min_margin is None or margin < min_margin:
            min_margin = margin
    return ({"n": args.n, "trials": args.trials, "k": m.k},
            {"violations": exact(violations),
             "min_margin_fourth_power": exact(min_margin)})


def _exp_regularity(args):
    if args.function:
        f = load_function(args.function)
    else:
        check_regularity_n(args.n)     # before the 2^n draw
        rng = np.random.Generator(np.random.PCG64(derive_seed(args.seed, 0)))
        f = random_function(args.n, rng)
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise InvalidInputError(f"eps is not a fraction: {args.eps!r}") from None
    sub, frac = regularity_decompose(f, eps, args.max_codim)
    return ({"eps": str(eps), "n": f.n},
            {"codim": exact(sub.codim),
             "uniform_fraction": exact(frac),
             "subspace_basis": [GFVector(f.n, b).to_bits() for b in sub.basis]})


def _exp_characterize(args):
    rep = verify_characterization(args.n, args.k)
    return ({"k": args.k, "n": args.n},
            {"mismatches": exact(rep.mismatches),
             "containment_failures": rep.containment_failures,
             "sigma_verdicts": [asdict(v) for v in rep.verdicts]})


def _exp_hierarchy_cycles(args):
    k, n = args.k, args.n
    if k % 2 == 0 or k < 3:
        raise InvalidInputError("cycle hierarchy needs odd k >= 3")
    big = k + 2
    m_big = graphic_from_graph(named_graph(f"c{big}"))
    m_small = graphic_from_graph(named_graph(f"c{k}"))
    # C_{k+2}'s walk, the first and the costlier, priced before the 2^n table
    check_instance_walk(m_big, canonical_ones(m_big, n))
    f = canonical_function(m_big, n)
    hit = pattern_hitting_number(f, m_big)    # positive iff an instance exists
    return ({"k": k, "n": n},
            {f"c{big}_canonical_contains_c{big}": hit > 0,
             f"c{k}_free": not enumerate_instances(f, m_small),
             "hitting_number": exact(hit),
             "farness_lower_bound_flips": exact(1 << (n - big))})


def _exp_hierarchy_cliques(args):
    a, b, n = args.a, args.b, args.n
    m_a = graphic_from_graph(named_graph(f"k{a}"))
    m_b = graphic_from_graph(named_graph(f"k{b}"))
    check_canonical_args(m_a, n)      # rejects a bad -n before the search
    sigma = PatternSpec.all_ones(m_b.k)
    check_pattern_args(n, m_b, sigma, PATTERN_BUDGET_BITS)    # and the n*rank cap
    phi = find_homomorphism(m_b, m_a, node_budget=args.budget)
    free = find_pattern(canonical_function(m_a, n), m_b, sigma) is None
    return ({"a": a, "b": b, "n": n},
            {f"hom_k{b}_to_k{a}": "none" if phi is None else list(phi.assignment),
             f"canonical_k{a}_is_k{b}_free": free})


def _exp_fourier_count(args):
    f = load_function(args.function)
    k = args.cycle_count
    _check_report_bits(f.n * (k - 1), "n*(k-1)")
    fast = cycle_count_fourier(f, k)
    results = {"cycle_count": exact(fast)}
    if f.n * (k - 1) <= CYCLE_ORACLE_MAX_BITS:
        brute = brute_force_cycle_count(f, k)
        results["brute_force_count"] = exact(brute)
        results["oracle_match"] = brute == fast
    return {"k": k, "n": f.n}, results


def emit_plot_data(experiment: str, results: dict) -> str:
    """Tab-separated rows for the report's sampled series."""
    series = results.get("series")
    if not isinstance(series, dict) or "columns" not in series:
        raise InvalidInputError(
            f"report for {experiment!r} carries no plottable series")
    lines = ["\t".join(series["columns"])]
    for row in series.get("rows", []):
        lines.append("\t".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _report(experiment: str, pipeline, args) -> int:
    """Run one pipeline, write its report, then apply --plot-out and
    --assert-free where the subcommand has them."""
    start = time.monotonic()
    params, results = pipeline(args)
    runtime_ms = int((time.monotonic() - start) * 1000)
    text = json.dumps({"experiment": experiment, "params": params, "results": results,
                       "runtime_ms": runtime_ms, "seed": args.seed, "version": __version__},
                      sort_keys=True, indent=2) + "\n"
    plot_out = getattr(args, "plot_out", None)
    plot = emit_plot_data(experiment, results) if plot_out else None
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if plot_out:
        with open(plot_out, "w", encoding="ascii") as fh:
            fh.write(plot)
    if getattr(args, "assert_free", False) and not results.get("free", True):
        raise PropertyViolation("function contains the forbidden pattern")
    return EXIT_OK


# subcommands with a mode pick their experiment here


def _run_complexity(args) -> int:
    if args.sweep:
        return _report("complexity-sweep", _exp_complexity_sweep, args)
    if not args.matroid:
        raise InvalidInputError("complexity needs --matroid or --sweep")
    return _report("complexity", _exp_complexity_single, args)


def _run_test(args) -> int:
    if args.calibrate:
        return _report("tester-calibration", _exp_tester_calibration, args)
    if args.plot_out:
        raise InvalidInputError("test --plot-out needs --calibrate: only the "
                                "calibration has a series to plot")
    if not (args.function and args.matroid and args.sigma):
        raise InvalidInputError("test needs --function, --matroid and --sigma")
    return _report("test", _exp_test, args)


def _run_fourier(args) -> int:
    if args.check_von_neumann:
        return _report("von-neumann", _exp_von_neumann, args)
    if args.cycle_count is not None:
        if not args.function:
            raise InvalidInputError("fourier --cycle-count needs --function")
        return _report("cycle-count", _exp_fourier_count, args)
    if not args.function:
        raise InvalidInputError("fourier needs --function")
    return _report("fourier", _exp_fourier, args)


# each hierarchy kind's own options: flag -> (default, help text)
_HIERARCHY_OPTIONS = {
    "cycles": {"-k": (3, "odd cycle length")},
    "cliques": {"-a": (3, "size of the clique whose canonical function is searched"),
                "-b": (5, "size of the clique searched for"),
                "--budget": (HOM_NODE_BUDGET, "cap on the homomorphism search, in DFS nodes "
                              "(target elements passed over)")},
}


def _run_hierarchy(args) -> int:
    """Each kind reads only its own options; the other kind's are
    malformed input."""
    for kind, options in _HIERARCHY_OPTIONS.items():
        for flag, (default, _) in options.items():
            name = flag.lstrip("-")
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif kind != args.kind:
                raise InvalidInputError(f"hierarchy --kind {args.kind} does not take {flag}")
    if args.kind == "cycles":
        return _report("hierarchy-cycles", _exp_hierarchy_cycles, args)
    return _report("hierarchy-cliques", _exp_hierarchy_cliques, args)


# file writers check --out before any work


def _write_matroid(build, args) -> int:
    if not args.out:
        raise InvalidInputError(f"{args.command} needs --out for the matroid file")
    m = build(load_graph(args.graph))
    save_matroid(args.out, m)
    sys.stdout.write(f"wrote {args.command} matroid: k={m.k} m={m.m} rank={m.rank}\n")
    return EXIT_OK


def _write_canonical(args) -> int:
    if not args.out:
        raise InvalidInputError("canonical needs --out for the function file")
    f = canonical_function(load_matroid(args.matroid), args.n)
    save_function(args.out, f)
    sys.stdout.write(f"wrote canonical function: n={f.n} ones={f.ones_count()}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing: each subcommand carries the code it runs as `run`


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="matroidlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, run, help, budget=None):
        """A subcommand; `budget`, given only to the subcommands that read
        a --budget, is its (default, help text). hierarchy takes its
        --budget from _HIERARCHY_OPTIONS instead."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--seed", type=int, default=0)
        if budget:
            default, text = budget
            p.add_argument("--budget", type=int, default=default,
                           help=f"{text} (default {default})")
        p.add_argument("--out", default=None)
        return p

    bits = (PATTERN_BUDGET_BITS, "cap on n*rank, in bits")

    p = add("graphic", partial(_write_matroid, graphic_from_graph),
            "graph file -> graphic matroid file")
    p.add_argument("--graph", required=True)

    p = add("cographic", partial(_write_matroid, cographic_from_graph),
            "graph file -> cographic matroid file")
    p.add_argument("--graph", required=True)

    p = add("circuits", partial(_report, "circuits", _exp_circuits),
            "all circuits of a matroid")
    p.add_argument("--matroid", required=True)

    p = add("oddgirth", partial(_report, "oddgirth", _exp_oddgirth),
            "odd girth of a matroid")
    p.add_argument("--matroid", required=True)

    p = add("complexity", _run_complexity, "partition complexity of a matroid")
    p.add_argument("--matroid")
    p.add_argument("--cap", type=int, default=1)
    p.add_argument("--sweep", action="store_true",
                   help="run the named graphic-matroid corpus instead")
    p.add_argument("--graphs", nargs="*", default=None)

    p = add("hom", partial(_report, "hom", _exp_hom), "search for a matroid homomorphism",
            (HOM_NODE_BUDGET, "cap on the search, in DFS nodes (target elements passed over)"))
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)

    p = add("canonical", _write_canonical, "canonical indicator function of a matroid")
    p.add_argument("--matroid", required=True)
    p.add_argument("-n", type=int, required=True)

    p = add("free", partial(_report, "free", _exp_free), "exhaustive freeness check", bits)
    p.add_argument("--function", required=True)
    p.add_argument("--matroid", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--assert-free", action="store_true")

    p = add("count", partial(_report, "count", _exp_count), "exact violation count", bits)
    p.add_argument("--function", required=True)
    p.add_argument("--matroid", required=True)
    p.add_argument("--sigma", required=True)

    p = add("test", _run_test, "randomized k-query tester",
            (PATTERN_BUDGET_BITS, "cap on n*rank for exact densities, in bits"))
    p.add_argument("--function")
    p.add_argument("--matroid")
    p.add_argument("--sigma")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--calibrate", action="store_true",
                   help="run the distance-bucket calibration pipeline")
    p.add_argument("--buckets", type=int, default=5)
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--plot-out", default=None)

    p = add("distance", partial(_report, "distance", _exp_distance),
            "exact minimum repair distance")
    p.add_argument("--function", required=True)
    p.add_argument("--matroid", required=True)
    p.add_argument("--sigma", required=True)

    p = add("fourier", _run_fourier, "spectrum summary / counting / von Neumann")
    p.add_argument("--function")
    p.add_argument("--cycle-count", type=int, default=None, metavar="K",
                   help="exact zero-sum k-tuple count via the spectrum")
    p.add_argument("--check-von-neumann", action="store_true",
                   help="run the von Neumann inequality experiment")
    p.add_argument("--graph", default="c3")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("-n", type=int, default=6)

    p = add("regularity", partial(_report, "regularity-search", _exp_regularity),
            "toy-scale regularity decomposition")
    p.add_argument("--function")
    p.add_argument("--eps", default="1/4")
    p.add_argument("--max-codim", type=int, default=None)
    p.add_argument("-n", type=int, default=4)

    p = add("characterize", partial(_report, "characterize", _exp_characterize),
            "verify the cycle characterization")
    p.add_argument("-k", type=int, default=4)
    p.add_argument("-n", type=int, default=3)

    p = add("hierarchy", _run_hierarchy, "cycle/clique separation experiments")
    p.add_argument("--kind", choices=tuple(_HIERARCHY_OPTIONS), default="cycles")
    for kind, options in _HIERARCHY_OPTIONS.items():
        for flag, (default, text) in options.items():
            p.add_argument(flag, type=int,
                           help=f"{text}; --kind {kind} only (default {default})")
    p.add_argument("-n", type=int, default=7)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except PropertyViolation as exc:
        sys.stderr.write(f"property violated: {exc}\n")
        return EXIT_PROPERTY_VIOLATED
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (MatroidLabError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
