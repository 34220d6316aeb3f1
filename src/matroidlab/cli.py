"""Command-line front end: file conversion, seeded experiment
orchestration, and structured report emission.

Reports are JSON documents with sorted keys; every numeric result is
wrapped as {"value": ..., "exact": true|false}. Identical configs and
seeds produce byte-identical reports except for the runtime_ms field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

import numpy as np

from . import __version__
from .boolfn import BooleanFunction, random_function, regularity_decompose, wht
from .errors import BudgetExceededError, InvalidInputError, MatroidLabError
from .families import verify_characterization
from .fileio import (load_function, load_graph, load_matroid, save_function,
                     save_matroid)
from .gf2 import GFVector
from .matroid import (BinaryMatroid, canonical_function, circuits, cographic_from_graph,
                      complexity, cycle_space_basis, find_homomorphism,
                      graphic_from_graph, named_graph, odd_girth)
from .tester import (PatternSpec, brute_force_cycle_count, count_patterns,
                     cycle_count_fourier, derive_seed, find_pattern,
                     min_repair_distance, pattern_hitting_number, run_tester,
                     von_neumann_gap)

EXIT_OK = 0
EXIT_PROPERTY_VIOLATED = 2
EXIT_BUDGET = 3
EXIT_MALFORMED = 4

SWEEP_CORPUS = ("c3", "c4", "c5", "c6", "c7", "c8", "k4", "k5", "k5e", "petersen")


class PropertyViolation(MatroidLabError):
    """An assertion-style check found a violating pattern."""


@dataclass
class ExperimentConfig:
    experiment: str
    inputs: dict[str, str] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    budget: Optional[int] = None
    out: Optional[str] = None


@dataclass
class Report:
    experiment: str
    params: dict
    results: dict
    seed: int
    runtime_ms: int
    version: str

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "params": self.params,
            "results": self.results,
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
            "version": self.version,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _plain(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, GFVector):
        return v.to_bits()
    return v


def exact(v) -> dict:
    return {"exact": True, "value": _plain(v)}


def sampled(v) -> dict:
    return {"exact": False, "value": _plain(v)}


# ---------------------------------------------------------------------------
# experiment pipelines


def _exp_complexity_sweep(cfg: ExperimentConfig):
    names = cfg.params.get("graphs") or list(SWEEP_CORPUS)
    results = {}
    for name in names:
        m = graphic_from_graph(named_graph(name))
        c = complexity(m, cap=1)
        results[name] = exact(c if c is not None else "exceeds cap")
    return {"graphs": list(names)}, results


def _exp_complexity_single(cfg: ExperimentConfig):
    m = load_matroid(cfg.inputs["matroid"])
    cap = cfg.params.get("cap", 1)
    c = complexity(m, cap=cap)
    return ({"cap": cap, "k": m.k, "m": m.m},
            {"complexity": exact(c if c is not None else "exceeds cap")})


def _exp_circuits(cfg: ExperimentConfig):
    m = load_matroid(cfg.inputs["matroid"])
    subsets = circuits(m)
    return ({"k": m.k, "m": m.m},
            {"circuit_count": exact(len(subsets)),
             "circuits": [list(c) for c in subsets],
             "cycle_space_basis": [list(c) for c in cycle_space_basis(m)]})


def _exp_oddgirth(cfg: ExperimentConfig):
    m = load_matroid(cfg.inputs["matroid"])
    og = odd_girth(m)
    return ({"k": m.k, "m": m.m},
            {"odd_girth": exact(og if og is not None else "none")})


def _exp_hom(cfg: ExperimentConfig):
    source = load_matroid(cfg.inputs["source"])
    target = load_matroid(cfg.inputs["target"])
    kwargs = {}
    if cfg.budget is not None:
        kwargs["node_budget"] = cfg.budget
    phi = find_homomorphism(source, target, **kwargs)
    found = phi is not None
    return ({"source_k": source.k, "target_k": target.k},
            {"homomorphism_exists": found,
             "assignment": list(phi.assignment) if found else "none"})


def _freeness_args(cfg: ExperimentConfig):
    f = load_function(cfg.inputs["function"])
    m = load_matroid(cfg.inputs["matroid"])
    sigma = PatternSpec.from_string(cfg.params["sigma"])
    return f, m, sigma


def _exp_free(cfg: ExperimentConfig):
    f, m, sigma = _freeness_args(cfg)
    kwargs = {"budget_bits": cfg.budget} if cfg.budget is not None else {}
    inst = find_pattern(f, m, sigma, **kwargs)
    results = {"free": inst is None, "sigma": str(sigma)}
    if inst is not None:
        results["witness_points"] = [p.to_bits() for p in inst.points]
        results["witness_basis_images"] = [u.to_bits() for u in inst.map.images]
    return {"n": f.n, "k": m.k, "sigma": str(sigma)}, results


def _exp_count(cfg: ExperimentConfig):
    f, m, sigma = _freeness_args(cfg)
    kwargs = {"budget_bits": cfg.budget} if cfg.budget is not None else {}
    rep = count_patterns(f, m, sigma, **kwargs)
    return ({"n": f.n, "k": m.k, "rank": rep.rank, "sigma": str(sigma)},
            {"span_count": exact(rep.span_count),
             "span_total": exact(rep.span_total),
             "full_map_count": exact(rep.full_map_count),
             "full_map_total": exact(rep.full_map_total),
             "density": exact(rep.density),
             "counting_convention":
                 "span-basis assignments; full maps are from the matroid's "
                 "presentation space {0,1}^m"})


def _exp_test(cfg: ExperimentConfig):
    f, m, sigma = _freeness_args(cfg)
    samples = cfg.params.get("samples", 100000)
    rejections, rate = run_tester(f, m, sigma, samples, cfg.seed)
    results = {
        "samples": exact(samples),
        "rejections": sampled(rejections),
        "empirical_rate": sampled(str(rate)),
    }
    if f.n * m.rank <= (cfg.budget if cfg.budget is not None else 30):
        results["exact_density"] = exact(count_patterns(f, m, sigma).density)
    return {"n": f.n, "k": m.k, "samples": samples, "sigma": str(sigma)}, results


def _exp_tester_calibration(cfg: ExperimentConfig):
    n = cfg.params.get("n", 10)
    samples = cfg.params.get("samples", 100000)
    buckets = cfg.params.get("buckets", 5)
    if "function" in cfg.inputs:
        base = load_function(cfg.inputs["function"])
        n = base.n
    else:
        base = canonical_function(graphic_from_graph(named_graph("c3")), n)
    if "matroid" in cfg.inputs:
        m = load_matroid(cfg.inputs["matroid"])
    else:
        m = graphic_from_graph(named_graph("c3"))
    sigma = PatternSpec.from_string(cfg.params.get("sigma", "1" * m.k))
    ones = base.ones()
    rows = []
    size = 1 << base.n
    for i in range(buckets):
        prune_rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 1, i)))
        remove = round(len(ones) * i / max(buckets - 1, 1))
        removed = prune_rng.choice(len(ones), size=remove, replace=False) if remove else []
        table = base.table.copy()
        for idx in removed:
            table[ones[int(idx)]] = 0
        variant = BooleanFunction(base.n, table)
        exact_density = count_patterns(variant, m, sigma).density
        _, rate = run_tester(variant, m, sigma, samples, derive_seed(cfg.seed, 2, i))
        rows.append([str(Fraction(remove, size)), str(rate), str(exact_density)])
    return ({"buckets": buckets, "n": n, "samples": samples, "sigma": str(sigma)},
            {"series": {
                "columns": ["distance_bucket", "empirical_rate", "exact_density"],
                "exact_columns": [True, False, True],
                "rows": rows,
            }})


def _exp_distance(cfg: ExperimentConfig):
    f, m, sigma = _freeness_args(cfg)
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


def _exp_fourier(cfg: ExperimentConfig):
    f = load_function(cfg.inputs["function"])
    spectrum = wht(f)
    top = sorted(range(1 << f.n), key=lambda a: (-abs(spectrum.coeff(a)), a))[:16]
    return ({"n": f.n},
            {"ones_count": exact(f.ones_count()),
             "parseval_power_sum": exact(spectrum.power_sum(2)),
             "max_abs_nonzero": exact(spectrum.max_abs_nonzero()),
             "top_coefficients": [
                 {"alpha": GFVector(f.n, a).to_bits() if f.n else "",
                  "coeff": exact(spectrum.coeff(a))}
                 for a in top]})


def _exp_von_neumann(cfg: ExperimentConfig):
    n = cfg.params.get("n", 6)
    trials = cfg.params.get("trials", 100)
    if "matroid" in cfg.inputs:
        m = load_matroid(cfg.inputs["matroid"])
    else:
        m = graphic_from_graph(named_graph(cfg.params.get("graph", "c3")))
    violations = 0
    min_margin = None
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, t)))
        fs = [random_function(n, rng) for _ in range(m.k)]
        rep = von_neumann_gap(fs, m)
        if not rep.holds:
            violations += 1
        margin = rep.rhs_fourth_power - rep.lhs ** 4
        if min_margin is None or margin < min_margin:
            min_margin = margin
    return ({"n": n, "trials": trials, "k": m.k},
            {"violations": exact(violations),
             "min_margin_fourth_power": exact(min_margin)})


def _exp_regularity(cfg: ExperimentConfig):
    if "function" in cfg.inputs:
        f = load_function(cfg.inputs["function"])
    else:
        n = cfg.params.get("n", 4)
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 0)))
        f = random_function(n, rng)
    raw_eps = cfg.params.get("eps", "1/4")
    try:
        eps = Fraction(raw_eps)
    except (ValueError, ZeroDivisionError):
        raise InvalidInputError(f"eps is not a fraction: {raw_eps!r}") from None
    max_codim = cfg.params.get("max_codim")
    sub, frac = regularity_decompose(f, eps, max_codim)
    return ({"eps": str(eps), "n": f.n},
            {"codim": exact(sub.codim),
             "uniform_fraction": exact(frac),
             "subspace_basis": [b.to_bits() for b in sub.basis]})


def _exp_characterize(cfg: ExperimentConfig):
    k = cfg.params.get("k", 4)
    n = cfg.params.get("n", 3)
    rep = verify_characterization(n, k)
    doc = rep.to_dict()
    return ({"k": k, "n": n},
            {"mismatches": exact(doc["mismatches"]),
             "containment_failures": doc["containment_failures"],
             "sigma_verdicts": doc["sigma_verdicts"]})


def _exp_hierarchy_cycles(cfg: ExperimentConfig):
    k = cfg.params.get("k", 3)
    n = cfg.params.get("n", 7)
    if k % 2 == 0 or k < 3:
        raise InvalidInputError("cycle hierarchy needs odd k >= 3")
    big = k + 2
    m_big = graphic_from_graph(named_graph(f"c{big}"))
    m_small = graphic_from_graph(named_graph(f"c{k}"))
    f = canonical_function(m_big, n)
    contains = find_pattern(f, m_big, PatternSpec.all_ones(big)) is not None
    small_free = find_pattern(f, m_small, PatternSpec.all_ones(k)) is None
    hit = pattern_hitting_number(f, m_big)
    return ({"k": k, "n": n},
            {f"c{big}_canonical_contains_c{big}": contains,
             f"c{k}_free": small_free,
             "hitting_number": exact(hit),
             "farness_lower_bound_flips": exact(1 << (n - big))})


def _exp_hierarchy_cliques(cfg: ExperimentConfig):
    a = cfg.params.get("a", 3)
    b = cfg.params.get("b", 5)
    n = cfg.params.get("n", 5)
    m_a = graphic_from_graph(named_graph(f"k{a}"))
    m_b = graphic_from_graph(named_graph(f"k{b}"))
    kwargs = {"node_budget": cfg.budget} if cfg.budget is not None else {}
    phi = find_homomorphism(m_b, m_a, **kwargs)
    f = canonical_function(m_a, n)
    free = find_pattern(f, m_b, PatternSpec.all_ones(m_b.k)) is None
    return ({"a": a, "b": b, "n": n},
            {f"hom_k{b}_to_k{a}": "none" if phi is None else list(phi.assignment),
             f"canonical_k{a}_is_k{b}_free": free})


def _exp_fourier_count(cfg: ExperimentConfig):
    f = load_function(cfg.inputs["function"])
    k = cfg.params.get("k", 3)
    fast = cycle_count_fourier(f, k)
    results = {"cycle_count": exact(fast)}
    if f.n * (k - 1) <= 24:
        brute = brute_force_cycle_count(f, k)
        results["brute_force_count"] = exact(brute)
        results["oracle_match"] = brute == fast
    return {"k": k, "n": f.n}, results


_PIPELINES = {
    "complexity-sweep": _exp_complexity_sweep,
    "complexity": _exp_complexity_single,
    "circuits": _exp_circuits,
    "oddgirth": _exp_oddgirth,
    "hom": _exp_hom,
    "free": _exp_free,
    "count": _exp_count,
    "test": _exp_test,
    "tester-calibration": _exp_tester_calibration,
    "distance": _exp_distance,
    "fourier": _exp_fourier,
    "cycle-count": _exp_fourier_count,
    "von-neumann": _exp_von_neumann,
    "regularity-search": _exp_regularity,
    "characterize": _exp_characterize,
    "hierarchy-cycles": _exp_hierarchy_cycles,
    "hierarchy-cliques": _exp_hierarchy_cliques,
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Execute a named pipeline and assemble its report."""
    if cfg.experiment not in _PIPELINES:
        raise InvalidInputError(f"unknown experiment {cfg.experiment!r}")
    start = time.monotonic()
    params, results = _PIPELINES[cfg.experiment](cfg)
    runtime_ms = int((time.monotonic() - start) * 1000)
    return Report(experiment=cfg.experiment, params=params, results=results,
                  seed=cfg.seed, runtime_ms=runtime_ms, version=__version__)


def emit_plot_data(report: Report) -> str:
    """Tab-separated rows for the report's sampled series."""
    series = report.results.get("series")
    if not isinstance(series, dict) or "columns" not in series:
        raise InvalidInputError(
            f"report for {report.experiment!r} carries no plottable series")
    lines = ["\t".join(series["columns"])]
    for row in series.get("rows", []):
        lines.append("\t".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


def _write_report(report: Report, out: Optional[str]) -> None:
    text = report.to_json()
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="matroidlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--out", default=None)
        return p

    p = add("graphic", help="graph file -> graphic matroid file")
    p.add_argument("--graph", required=True)

    p = add("cographic", help="graph file -> cographic matroid file")
    p.add_argument("--graph", required=True)

    p = add("circuits", help="all circuits of a matroid")
    p.add_argument("--matroid", required=True)

    p = add("oddgirth", help="odd girth of a matroid")
    p.add_argument("--matroid", required=True)

    p = add("complexity", help="partition complexity of a matroid")
    p.add_argument("--matroid")
    p.add_argument("--cap", type=int, default=1)
    p.add_argument("--sweep", action="store_true",
                   help="run the named graphic-matroid corpus instead")
    p.add_argument("--graphs", nargs="*", default=None)

    p = add("hom", help="search for a matroid homomorphism")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)

    p = add("canonical", help="canonical indicator function of a matroid")
    p.add_argument("--matroid", required=True)
    p.add_argument("-n", type=int, required=True)

    p = add("free", help="exhaustive freeness check")
    p.add_argument("--function", required=True)
    p.add_argument("--matroid", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--assert-free", action="store_true")

    p = add("count", help="exact violation count")
    p.add_argument("--function", required=True)
    p.add_argument("--matroid", required=True)
    p.add_argument("--sigma", required=True)

    p = add("test", help="randomized k-query tester")
    p.add_argument("--function")
    p.add_argument("--matroid")
    p.add_argument("--sigma")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--calibrate", action="store_true",
                   help="run the distance-bucket calibration pipeline")
    p.add_argument("--buckets", type=int, default=5)
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--plot-out", default=None)

    p = add("distance", help="exact minimum repair distance")
    p.add_argument("--function", required=True)
    p.add_argument("--matroid", required=True)
    p.add_argument("--sigma", required=True)

    p = add("fourier", help="spectrum summary / counting / von Neumann")
    p.add_argument("--function")
    p.add_argument("--cycle-count", type=int, default=None, metavar="K",
                   help="exact zero-sum k-tuple count via the spectrum")
    p.add_argument("--check-von-neumann", action="store_true",
                   help="run the von Neumann inequality experiment")
    p.add_argument("--graph", default="c3")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("-n", type=int, default=6)

    p = add("regularity", help="toy-scale regularity decomposition")
    p.add_argument("--function")
    p.add_argument("--eps", default="1/4")
    p.add_argument("--max-codim", type=int, default=None)
    p.add_argument("-n", type=int, default=4)

    p = add("characterize", help="verify the cycle characterization")
    p.add_argument("-k", type=int, default=4)
    p.add_argument("-n", type=int, default=3)

    p = add("hierarchy", help="cycle/clique separation experiments")
    p.add_argument("--kind", choices=("cycles", "cliques"), default="cycles")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-a", type=int, default=3)
    p.add_argument("-b", type=int, default=5)
    p.add_argument("-n", type=int, default=7)

    return parser


def _dispatch(args) -> int:
    common = dict(seed=args.seed, budget=args.budget)
    if args.command == "graphic" or args.command == "cographic":
        g = load_graph(args.graph)
        m = graphic_from_graph(g) if args.command == "graphic" else cographic_from_graph(g)
        if not args.out:
            raise InvalidInputError(f"{args.command} needs --out for the matroid file")
        save_matroid(args.out, m)
        sys.stdout.write(f"wrote {args.command} matroid: k={m.k} m={m.m} rank={m.rank}\n")
        return EXIT_OK

    if args.command == "canonical":
        m = load_matroid(args.matroid)
        f = canonical_function(m, args.n)
        if not args.out:
            raise InvalidInputError("canonical needs --out for the function file")
        save_function(args.out, f)
        sys.stdout.write(f"wrote canonical function: n={f.n} ones={f.ones_count()}\n")
        return EXIT_OK

    if args.command == "complexity":
        if args.sweep:
            cfg = ExperimentConfig("complexity-sweep", params={"graphs": args.graphs},
                                   out=args.out, **common)
        else:
            if not args.matroid:
                raise InvalidInputError("complexity needs --matroid or --sweep")
            cfg = ExperimentConfig("complexity", inputs={"matroid": args.matroid},
                                   params={"cap": args.cap}, out=args.out, **common)
    elif args.command == "circuits":
        cfg = ExperimentConfig("circuits", inputs={"matroid": args.matroid},
                               out=args.out, **common)
    elif args.command == "oddgirth":
        cfg = ExperimentConfig("oddgirth", inputs={"matroid": args.matroid},
                               out=args.out, **common)
    elif args.command == "hom":
        cfg = ExperimentConfig("hom", inputs={"source": args.source, "target": args.target},
                               out=args.out, **common)
    elif args.command == "free":
        cfg = ExperimentConfig("free",
                               inputs={"function": args.function, "matroid": args.matroid},
                               params={"sigma": args.sigma}, out=args.out, **common)
    elif args.command == "count":
        cfg = ExperimentConfig("count",
                               inputs={"function": args.function, "matroid": args.matroid},
                               params={"sigma": args.sigma}, out=args.out, **common)
    elif args.command == "test":
        inputs = {}
        if args.function:
            inputs["function"] = args.function
        if args.matroid:
            inputs["matroid"] = args.matroid
        params = {"samples": args.samples, "n": args.n, "buckets": args.buckets}
        if args.sigma:
            params["sigma"] = args.sigma
        name = "tester-calibration" if args.calibrate else "test"
        if name == "test" and ("function" not in inputs or "matroid" not in inputs
                               or "sigma" not in params):
            raise InvalidInputError("test needs --function, --matroid and --sigma")
        cfg = ExperimentConfig(name, inputs=inputs, params=params, out=args.out, **common)
    elif args.command == "distance":
        cfg = ExperimentConfig("distance",
                               inputs={"function": args.function, "matroid": args.matroid},
                               params={"sigma": args.sigma}, out=args.out, **common)
    elif args.command == "fourier":
        if args.check_von_neumann:
            cfg = ExperimentConfig("von-neumann",
                                   params={"n": args.n, "trials": args.trials,
                                           "graph": args.graph},
                                   out=args.out, **common)
        elif args.cycle_count is not None:
            if not args.function:
                raise InvalidInputError("fourier --cycle-count needs --function")
            cfg = ExperimentConfig("cycle-count", inputs={"function": args.function},
                                   params={"k": args.cycle_count}, out=args.out, **common)
        else:
            if not args.function:
                raise InvalidInputError("fourier needs --function")
            cfg = ExperimentConfig("fourier", inputs={"function": args.function},
                                   out=args.out, **common)
    elif args.command == "regularity":
        inputs = {"function": args.function} if args.function else {}
        cfg = ExperimentConfig("regularity-search", inputs=inputs,
                               params={"eps": args.eps, "max_codim": args.max_codim,
                                       "n": args.n},
                               out=args.out, **common)
    elif args.command == "characterize":
        cfg = ExperimentConfig("characterize", params={"k": args.k, "n": args.n},
                               out=args.out, **common)
    elif args.command == "hierarchy":
        if args.kind == "cycles":
            cfg = ExperimentConfig("hierarchy-cycles", params={"k": args.k, "n": args.n},
                                   out=args.out, **common)
        else:
            cfg = ExperimentConfig("hierarchy-cliques",
                                   params={"a": args.a, "b": args.b, "n": args.n},
                                   out=args.out, **common)
    else:
        raise InvalidInputError(f"unknown command {args.command!r}")

    report = run_experiment(cfg)
    _write_report(report, cfg.out)
    if getattr(args, "plot_out", None):
        with open(args.plot_out, "w", encoding="ascii") as fh:
            fh.write(emit_plot_data(report))
    if getattr(args, "assert_free", False) and not report.results.get("free", True):
        raise PropertyViolation("function contains the forbidden pattern")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
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
