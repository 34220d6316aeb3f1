"""Seeded inputs and operation lists for the four benchmark workloads.

Everything here is plain numpy and stdlib: the inputs are described as
truth tables, graphs and GF(2) rows, so the oracle can compute expected
answers without going through the package under test. The worker turns
these descriptions into .boolfn/.matroid/.graph files with the package's
own constructors and writers, because every CLI user pays that cost.

Why each workload exists:

- exact-scan: `count`/`free` at n*rank = 20-24, dense and sparse inputs,
  early witnesses and one full-scan certificate. Nearly all time is in the
  chunked assignment scan behind count_patterns and find_pattern.
- sampling: `test` with 1-2 x 10^6 samples at n*rank > 30, so the
  pipeline skips its exact density, plus one calibration run. It uses the
  same evaluate-points-under-linear-maps step as exact-scan, with random
  maps, so a merged evaluation loop that favours one shows on the other.
- spectral: `fourier` summaries at n = 16-18, Fourier cycle counts,
  the von Neumann experiment, regularity search on structured functions
  and `canonical -n 20`. Time sits in the WHT, power sums and CLI glue.
- search: complexity, circuits, odd girth, homomorphisms, repair
  distance, the characterization and both hierarchy experiments. Pure
  Python search in matroid, families, gf2 and the tester's repair code.

Every workload also carries one `test` operation and at least one
operation that reports an exact span-assignment verdict, so both
throughput metrics (samples/s and assignments/s) exist on every workload;
on the workloads not built around them they are the no-change control.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("exact-scan", "sampling", "spectral", "search")


@dataclass
class Graph:
    V: int
    edges: list  # sorted (u, v) pairs with u < v, the package's normal form

    def rows(self) -> list[int]:
        """Graphic matroid rows e_u + e_v, bit j = coordinate j."""
        return [(1 << u) | (1 << v) for u, v in self.edges]


def cycle(k: int) -> Graph:
    return Graph(k, sorted([(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]))


def complete(a: int) -> Graph:
    return Graph(a, [(i, j) for i in range(a) for j in range(i + 1, a)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, sorted(tuple(sorted(e)) for e in edges))


@dataclass
class Function:
    """A truth table given directly (random or structured)."""
    table: np.ndarray


@dataclass
class Canonical:
    """canonical_function(graphic(graph), n), built by the package."""
    graph: Graph
    n: int


@dataclass
class Graphic:
    graph: Graph


@dataclass
class Cographic:
    """cographic_from_graph(graph), built by the package."""
    graph: Graph


@dataclass
class GraphFile:
    graph: Graph


@dataclass
class Op:
    """One CLI call. `check` names the oracle route; `args` feed it."""
    argv: list
    check: str
    args: dict = field(default_factory=dict)
    exit: int = 0
    assignments: int = 0   # span assignments covered by exact verdicts in the report
    samples: int = 0       # random linear maps the tester draws


def random_table(rng, n: int, density: float) -> np.ndarray:
    """Random table with f(0) = 0, so the zero map never witnesses 1^k."""
    table = (rng.random(1 << n) < density).astype(np.uint8)
    table[0] = 0
    return table


def _count(fn, mat, sigma, inputs, check="count"):
    f, m = inputs[fn], inputs[mat]
    # span assignments 2^(n*rank); a connected graph's graphic matroid has rank V-1
    bits = domain_dim(f) * (m.graph.V - 1)
    return Op([check, "--function", f"{fn}.boolfn", "--matroid", f"{mat}.matroid",
               "--sigma", sigma],
              check, {"function": fn, "matroid": mat, "sigma": sigma},
              assignments=1 << bits)


def domain_dim(f) -> int:
    """n of a Function or Canonical input."""
    if isinstance(f, Canonical):
        return f.n
    return int(f.table.shape[0]).bit_length() - 1


def _test(fn, mat, sigma, samples, tseed):
    return Op(["test", "--function", f"{fn}.boolfn", "--matroid", f"{mat}.matroid",
               "--sigma", sigma, "--samples", str(samples), "--seed", str(tseed)],
              "test", {"function": fn, "matroid": mat, "sigma": sigma,
                       "samples": samples},
              samples=samples)


def linear_image(rng, table: np.ndarray) -> np.ndarray:
    """f(Ax) for a random invertible A over GF(2). Distances to
    (M, Sigma)-freeness do not change under such maps, so the seed moves
    the input but not the size of the repair search."""
    n = int(table.shape[0]).bit_length() - 1
    while True:
        cols = [int(c) for c in rng.integers(0, 1 << n, size=n)]
        span = {0}
        for c in cols:
            span |= {x ^ c for x in span}
        if len(span) == 1 << n:
            break
    x = np.arange(1 << n)
    image = np.zeros(1 << n, dtype=np.int64)
    for j, c in enumerate(cols):
        image ^= np.where((x >> j) & 1, c, 0)
    return table[image]


# n = 4 functions at repair distance 5 from (C_3, 110)- and (C_3, 100)-freeness;
# random tables instead made one distance operation cost 15 ms or 400 ms
# depending on the seed.
REPAIR_110 = np.array([0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0], dtype=np.uint8)
REPAIR_100 = np.array([0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1], dtype=np.uint8)


def build(workload: str, seed: int) -> tuple[dict, list[Op], int]:
    """Inputs, the fixed operation list of one pass, and the index of the
    warm-up operation, all determined by (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    tseed = lambda i: seed * 100 + i  # noqa: E731  CLI --seed of the i-th test op
    inputs: dict = {}
    ops: list[Op] = []

    if workload == "exact-scan":
        inputs.update(c3=Graphic(cycle(3)), c5=Graphic(cycle(5)), k4=Graphic(complete(4)))
        inputs.update(
            f12d=Function(random_table(rng, 12, 0.5)), f12s=Function(random_table(rng, 12, 0.1)),
            f6d=Function(random_table(rng, 6, 0.5)), f6s=Function(random_table(rng, 6, 0.15)),
            f8d=Function(random_table(rng, 8, 0.5)), f8s=Function(random_table(rng, 8, 0.2)),
            f16=Function(random_table(rng, 16, 0.5)),
            can5=Canonical(cycle(5), 12))
        ops += [
            _count("f12d", "c3", "111", inputs), _count("f12s", "c3", "111", inputs),
            _count("f12d", "c3", "101", inputs),
            _count("f6d", "c5", "11111", inputs), _count("f6s", "c5", "11111", inputs),
            _count("f6d", "c5", "11010", inputs),
            _count("f8d", "k4", "111111", inputs), _count("f8s", "k4", "111111", inputs),
            _count("can5", "c3", "111", inputs), _count("can5", "c3", "111", inputs, "free"),
            # early witnesses
            _count("f12d", "c3", "111", inputs, "free"),
            _count("f6d", "c5", "11010", inputs, "free"),
            _count("f8d", "k4", "111111", inputs, "free"),
            # expected non-zero exits: over the bit budget, over the enumeration cap
            Op(["count", "--budget", "20", "--function", "f12d.boolfn", "--matroid",
                "c3.matroid", "--sigma", "111"], "exit", {"stderr": "budget exceeded"}, exit=3),
            Op(["characterize", "-k", "3", "-n", "4"], "exit", {"stderr": "error:"}, exit=4),
            _test("f16", "c3", "111", 10 ** 6, tseed(0)),
        ]
        warmup = 10

    elif workload == "sampling":
        inputs.update(c3=Graphic(cycle(3)), c5=Graphic(cycle(5)), k4=Graphic(complete(4)),
                      k5=Graphic(complete(5)))
        inputs.update(f16=Function(random_table(rng, 16, 0.5)),
                      f8=Function(random_table(rng, 8, 0.5)),
                      f11=Function(random_table(rng, 11, 0.5)))
        m = 10 ** 6
        ops += [
            _test("f16", "c3", "111", m, tseed(0)),
            _test("f16", "c3", "110", 2 * m, tseed(1)),
            _test("f8", "c5", "11111", m, tseed(2)),
            _test("f8", "c5", "11010", m, tseed(3)),
            _test("f8", "k5", "1" * 10, m, tseed(4)),
            _test("f8", "k5", "1101111011", m, tseed(5)),
            _test("f11", "k4", "111111", m, tseed(6)),
            _test("f11", "k4", "110110", 2 * m, tseed(7)),
            Op(["test", "--calibrate", "-n", "10", "--samples", str(2 * 10 ** 5),
                "--seed", str(tseed(8))], "calibrate",
               {"n": 10, "samples": 2 * 10 ** 5, "buckets": 5},
               assignments=5 << 20, samples=5 * 2 * 10 ** 5),
        ]
        warmup = 0

    elif workload == "spectral":
        inputs.update(c3=Graphic(cycle(3)))
        x = np.arange(64)
        bit = lambda j: (x >> j) & 1  # noqa: E731
        # structured n <= 6 functions with a known non-trivial decomposition
        shift = int(rng.integers(1, 64))
        inputs.update(
            f16=Function(random_table(rng, 16, 0.5)), f17=Function(random_table(rng, 17, 0.5)),
            f18=Function(random_table(rng, 18, 0.5)), f20=Function(random_table(rng, 20, 0.5)),
            f10=Function(random_table(rng, 10, 0.5)),
            sub6=Function(((x ^ shift) & 3 == 0).astype(np.uint8)),
            ip6=Function((bit(0) & bit(1) ^ bit(2) & bit(3) ^ bit(4) & bit(5)).astype(np.uint8)),
            aff5=Function((((np.arange(32) ^ shift) & 7) == 0).astype(np.uint8)))
        ops += [
            Op(["fourier", "--function", "f16.boolfn"], "fourier", {"function": "f16"}),
            Op(["fourier", "--function", "f17.boolfn"], "fourier", {"function": "f17"}),
            Op(["fourier", "--function", "f18.boolfn"], "fourier", {"function": "f18"}),
            Op(["fourier", "--cycle-count", "4", "--function", "f20.boolfn"], "cycle",
               {"function": "f20", "k": 4}, assignments=1 << (20 * 3)),
            Op(["fourier", "--cycle-count", "3", "--function", "f10.boolfn"], "cycle",
               {"function": "f10", "k": 3}, assignments=1 << (10 * 2)),
            Op(["fourier", "--check-von-neumann", "-n", "6", "--trials", "60",
                "--seed", str(seed)], "vonneumann", {}),
            Op(["regularity", "--function", "sub6.boolfn", "--eps", "1/8"], "regularity",
               {"function": "sub6", "eps": [1, 8]}),
            Op(["regularity", "--function", "ip6.boolfn", "--eps", "1/8"], "regularity",
               {"function": "ip6", "eps": [1, 8]}),
            Op(["regularity", "--function", "aff5.boolfn", "--eps", "1/16"], "regularity",
               {"function": "aff5", "eps": [1, 16]}),
            Op(["canonical", "--matroid", "c3.matroid", "-n", "20", "--out", "can20.boolfn"],
               "canonical", {"graph": "c3", "n": 20, "out": "can20.boolfn"}),
            _test("f16", "c3", "111", 10 ** 6, tseed(0)),
        ]
        warmup = 0

    else:  # search
        inputs.update(c3=Graphic(cycle(3)), c5=Graphic(cycle(5)), c7=Graphic(cycle(7)),
                      k5=Graphic(complete(5)), petersen=Graphic(petersen()),
                      k33=GraphFile(complete_bipartite(3, 3)),
                      k33cog=Cographic(complete_bipartite(3, 3)),
                      canc3=Canonical(cycle(3), 5), canc5=Canonical(cycle(5), 5),
                      r4a=Function(linear_image(rng, REPAIR_110)),
                      r4b=Function(linear_image(rng, REPAIR_100)),
                      f16=Function(random_table(rng, 16, 0.5)))
        ops += [
            Op(["complexity", "--sweep"], "sweep", {}),
            Op(["complexity", "--matroid", "k5.matroid", "--cap", "2"], "complexity",
               {"value": 1}),
            Op(["cographic", "--graph", "k33.graph", "--out", "k33cog_cli.matroid"],
               "stdout", {"text": "wrote cographic matroid: k=9 m=4 rank=4\n"}),
            Op(["circuits", "--matroid", "petersen.matroid"], "circuits",
               {"count": 57, "basis": 6}),
            Op(["circuits", "--matroid", "k33cog.matroid"], "circuits",
               {"count": 24, "basis": 5}),
            Op(["oddgirth", "--matroid", "petersen.matroid"], "oddgirth", {"value": 5}),
            Op(["oddgirth", "--matroid", "k33cog.matroid"], "oddgirth", {"value": 3}),
            Op(["hom", "--source", "petersen.matroid", "--target", "c5.matroid"], "hom",
               {"source": "petersen", "target": "c5", "exists": True}),
            Op(["hom", "--source", "c5.matroid", "--target", "c7.matroid"], "hom",
               {"source": "c5", "target": "c7", "exists": False}),
            Op(["hom", "--source", "k5.matroid", "--target", "c3.matroid"], "hom",
               {"source": "k5", "target": "c3", "exists": False}),
            Op(["distance", "--function", "canc3.boolfn", "--matroid", "c3.matroid",
                "--sigma", "111"], "distance", {"function": "canc3", "sigma": "111", "flips": 4}),
            Op(["distance", "--function", "canc5.boolfn", "--matroid", "c5.matroid",
                "--sigma", "11111"], "distance",
               {"function": "canc5", "sigma": "11111", "flips": 1}),
            Op(["distance", "--function", "r4a.boolfn", "--matroid", "c3.matroid",
                "--sigma", "110"], "distance", {"function": "r4a", "sigma": "110"}),
            Op(["distance", "--function", "r4b.boolfn", "--matroid", "c3.matroid",
                "--sigma", "100"], "distance", {"function": "r4b", "sigma": "100"}),
            Op(["characterize", "-k", "4", "-n", "3"], "characterize", {"sigmas": 14}),
            Op(["characterize", "-k", "3", "-n", "3"], "characterize", {"sigmas": 6}),
            Op(["hierarchy", "--kind", "cycles", "-k", "3", "-n", "7"], "hierarchy_cycles", {},
               assignments=(1 << 28) + (1 << 14)),
            Op(["hierarchy", "--kind", "cliques", "-a", "3", "-b", "5", "-n", "5"],
               "hierarchy_cliques", {}, assignments=1 << 20),
            Op(["hom", "--source", "k5.matroid", "--target", "c3.matroid", "--budget", "3"],
               "exit", {"stderr": "budget exceeded"}, exit=3),
            # a fixed amount of homomorphism DFS: no Petersen -> C_7 map exists
            # and the full search takes seconds, so it always runs out
            Op(["hom", "--source", "petersen.matroid", "--target", "c7.matroid",
                "--budget", "150000"], "exit", {"stderr": "budget exceeded"}, exit=3),
            _test("f16", "c3", "111", 10 ** 6, tseed(0)),
        ]
        warmup = 0
    return inputs, ops, warmup
