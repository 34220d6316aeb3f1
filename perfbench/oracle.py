"""Expected answers computed without the package under test.

Exact pattern counts use a route the package does not: vertex-potential
elimination for graphic matroids. A span assignment of a connected
graph's graphic matroid is a choice of vertex potentials p_v in F^n with
p_0 = 0, and edge (u, v) evaluates f at p_u + p_v. All vertices but the
last two are enumerated; the last two are summed out through one
Walsh-Hadamard transform each:

  sum_{y,z} h_a(y) h_b(z) g(y + z) = 2^-n * sum_alpha H_a(alpha) H_b(alpha) G(alpha).

numpy int64 arithmetic wraps modulo 2^64, so sums whose true value fits
in int64 come out exact even when partial sums overflow.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from workloads import Canonical, Function, Graph, cycle

_BATCH_ENTRIES = 1 << 20


def wht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis."""
    a = np.array(values, dtype=np.int64)
    size = a.shape[-1]
    lead = a.shape[:-1]
    h = 1
    while h < size:
        v = a.reshape(*lead, size // (2 * h), 2, h)
        lo = v[..., 0, :].copy()
        v[..., 0, :] += v[..., 1, :]
        v[..., 1, :] = lo - v[..., 1, :]
        h *= 2
    return a


def table_n(table: np.ndarray) -> int:
    return int(table.shape[0]).bit_length() - 1


def canonical_table(g: Graph, n: int) -> np.ndarray:
    """Indicator of {ground vectors} x {0,1}^(n - V)."""
    table = np.zeros(1 << n, dtype=np.uint8)
    high = np.arange(1 << (n - g.V), dtype=np.int64) << g.V
    for row in set(g.rows()):
        table[high | row] = 1
    return table


def input_table(inp) -> np.ndarray:
    if isinstance(inp, Function):
        return inp.table
    if isinstance(inp, Canonical):
        return canonical_table(inp.graph, inp.n)
    raise TypeError(f"not a function input: {inp!r}")


def graph_count(g: Graph, sigma: str, table: np.ndarray) -> int:
    """Number of potentials p (p_0 = 0) with f(p_u + p_v) = sigma_e on
    every edge e = (u, v), edges in matroid row order."""
    n = table_n(table)
    size = 1 << n
    ones = table.astype(bool)
    g_of = {e: (ones if s == "1" else ~ones) for e, s in zip(g.edges, sigma)}
    if len(g.edges) == g.V and all(sum(v in e for e in g.edges) == 2 for v in range(g.V)):
        # a cycle: its edge values are exactly the zero-sum k-tuples
        spec = np.ones(size, dtype=np.int64)
        for gv in g_of.values():
            spec *= wht(gv)
        return int(spec.sum()) >> n
    a, b = g.V - 2, g.V - 1
    fixed = list(range(1, g.V - 2))
    combos = 1 << (n * len(fixed))
    batch = max(1, _BATCH_ENTRIES // size)
    y = np.arange(size, dtype=np.int64)
    total = 0
    for start in range(0, combos, batch):
        c = np.arange(start, min(start + batch, combos), dtype=np.int64)
        pot = {0: np.zeros_like(c)}
        for i, v in enumerate(fixed):
            pot[v] = (c >> (i * n)) & (size - 1)
        weight = np.ones(c.shape, dtype=bool)
        h = {a: np.ones((c.shape[0], size), dtype=bool),
             b: np.ones((c.shape[0], size), dtype=bool)}
        inner_edge = None
        for (u, v), gv in g_of.items():
            if u in h and v in h:
                inner_edge = gv
            elif v in h:  # edges are sorted with u < v, and a < b are the top vertices
                h[v] &= gv[pot[u][:, None] ^ y[None, :]]
            else:
                weight &= gv[pot[u] ^ pot[v]]
        if inner_edge is None:
            inner = h[a].sum(axis=1, dtype=np.int64) * h[b].sum(axis=1, dtype=np.int64)
        else:
            spec = wht(h[a]) * wht(h[b]) * wht(inner_edge)[None, :]
            inner = spec.sum(axis=1) >> n
        total += int(inner[weight].sum())
    return total


def spectrum_summary(table: np.ndarray) -> dict:
    """What `fourier` must report: ones, Parseval sum, max |nonzero
    coefficient| and the 16 largest |coefficients|, ties by index."""
    n = table_n(table)
    coeffs = wht(table)
    order = np.lexsort((np.arange(coeffs.shape[0]), -np.abs(coeffs)))[:16]
    return {
        "ones": int(table.sum()),
        "parseval": int((coeffs * coeffs).sum()),
        "max_abs": int(np.abs(coeffs[1:]).max()),
        "top": [[bits(int(a), n), int(coeffs[a])] for a in order],
    }


def power_sum(table: np.ndarray, k: int) -> int:
    """sum_alpha coeffs[alpha]^k with exact Python integers."""
    values, counts = np.unique(wht(table), return_counts=True)
    return sum(int(v) ** k * int(c) for v, c in zip(values, counts))


def bits(x: int, n: int) -> str:
    """Coordinate string, coordinate 0 first."""
    return "".join("1" if x >> j & 1 else "0" for j in range(n))


def c3_repair_flips(table: np.ndarray, sigma: str) -> int:
    """Minimum flips to (C_3, sigma)-freeness, by testing every function
    on the same domain (n <= 4)."""
    n = table_n(table)
    size = 1 << n
    if size > 16:
        raise ValueError("brute-force repair oracle needs n <= 4")
    all_tables = (np.arange(1 << size)[:, None] >> np.arange(size)[None, :]) & 1
    want = [int(s) for s in sigma]
    contains = np.zeros(1 << size, dtype=bool)
    for x in range(size):
        for z in range(size):
            contains |= ((all_tables[:, x] == want[0]) & (all_tables[:, z] == want[1])
                         & (all_tables[:, x ^ z] == want[2]))
    flips = (all_tables != table[None, :].astype(np.int64)).sum(axis=1)
    return int(flips[~contains].min())


def uniform_fraction(table: np.ndarray, basis: list[str], eps: Fraction) -> Fraction:
    """Fraction of cosets of span(basis) on which the restriction is
    eps-uniform (every nonzero-frequency |coefficient| / |coset| <= eps)."""
    size = table.shape[0]
    sub = np.zeros(1, dtype=np.int64)
    for vec in basis:
        w = int(vec[::-1], 2)
        sub = np.concatenate([sub, sub ^ w])
    seen = np.zeros(size, dtype=bool)
    good = cosets = 0
    for rep in range(size):
        if seen[rep]:
            continue
        pts = sub ^ rep
        seen[pts] = True
        cosets += 1
        coeffs = wht(table[pts])
        worst = int(np.abs(coeffs[1:]).max()) if coeffs.shape[0] > 1 else 0
        good += Fraction(worst, coeffs.shape[0]) <= eps
    return Fraction(good, cosets)


def _frac(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def expectations(inputs: dict, ops: list) -> list[dict]:
    """One dict of expected values per operation, JSON-serializable."""
    out = []
    memo: dict = {}

    def count(fn, mat, sigma):
        key = (fn, mat, sigma)
        if key not in memo:
            memo[key] = graph_count(inputs[mat].graph, sigma, input_table(inputs[fn]))
        return memo[key]

    for op in ops:
        a = op.args
        exp: dict = {}
        if op.check in ("count", "free"):
            exp["span_count"] = count(a["function"], a["matroid"], a["sigma"])
            exp["span_total"] = op.assignments
        elif op.check == "test":
            g = inputs[a["matroid"]].graph
            total = 1 << (table_n(inputs[a["function"]].table) * (g.V - 1))
            exp["density"] = _frac(Fraction(count(a["function"], a["matroid"], a["sigma"]),
                                            total))
        elif op.check == "calibrate":
            base = canonical_table(cycle(3), a["n"])
            exp["first_density"] = _frac(Fraction(graph_count(cycle(3), "111", base),
                                                  1 << (2 * a["n"])))
        elif op.check == "fourier":
            exp = spectrum_summary(inputs[a["function"]].table)
        elif op.check == "cycle":
            table = inputs[a["function"]].table
            exp["count"] = power_sum(table, a["k"]) >> table_n(table)
        elif op.check == "canonical":
            table = canonical_table(inputs[a["graph"]].graph, a["n"])
            text = (f"boolfn v1\nn={a['n']}\n"
                    f"table={np.packbits(table, bitorder='little').tobytes().hex()}\n")
            exp["sha256"] = hashlib.sha256(text.encode("ascii")).hexdigest()
            exp["ones"] = int(table.sum())
        elif op.check == "distance" and isinstance(inputs[a["function"]], Function):
            exp["flips"] = c3_repair_flips(inputs[a["function"]].table, a["sigma"])
        out.append(exp)
    return out
