"""Per-operation oracles: each CLI report is held against an answer
computed by another route (see oracle.py) or a fixed known value.
A check returns None when the report is right and a message otherwise.
`runtime_ms` is never looked at.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import oracle

# A seeded tester run must land within this many standard deviations
# (plus a small absolute slack) of samples * exact density.
BINOMIAL_SIGMAS = 6


def _val(x):
    return x["value"] if isinstance(x, dict) and "value" in x else x


def _binomial_ok(hits: int, samples: int, p: Fraction) -> bool:
    mean = samples * p
    sd = math.sqrt(float(mean * (1 - p)))
    return abs(hits - mean) <= BINOMIAL_SIGMAS * sd + 3


class Checker:
    def __init__(self, inputs: dict, verify_homomorphism, load_matroid):
        self.inputs = inputs
        self.verify_homomorphism = verify_homomorphism
        self.load_matroid = load_matroid
        self.recorded: dict = {}   # first report of each seeded tester op

    def __call__(self, index: int, op, exp: dict, code, out: str, err: str):
        if code != op.exit:
            return f"exit {code}, expected {op.exit}: {err.strip()[-300:]}"
        if op.check == "exit":
            return None if err.startswith(op.args["stderr"]) else f"stderr {err!r}"
        try:
            if op.check in ("stdout", "canonical"):
                return getattr(self, "_" + op.check)(index, op, exp, out)
            return getattr(self, "_" + op.check)(index, op, exp, json.loads(out)["results"])
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed report ({exc!r}): {out[:200]!r}"

    def _stdout(self, index, op, exp, out):
        return None if out == op.args["text"] else f"stdout {out!r}"

    def _canonical(self, index, op, exp, out):
        want = f"wrote canonical function: n={op.args['n']} ones={exp['ones']}\n"
        if out != want:
            return f"stdout {out!r}"
        with open(op.args["out"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return None if digest == exp["sha256"] else "canonical file differs from oracle"

    def _count(self, index, op, exp, res):
        got = (_val(res["span_count"]), _val(res["span_total"]))
        want = (exp["span_count"], exp["span_total"])
        return None if got == want else f"count {got} != oracle {want}"

    def _free(self, index, op, exp, res):
        if res["free"] != (exp["span_count"] == 0):
            return f"free={res['free']} but oracle count is {exp['span_count']}"
        if res["free"]:
            return None
        a = op.args
        table = oracle.input_table(self.inputs[a["function"]])
        graph = self.inputs[a["matroid"]].graph
        points = [int(p[::-1], 2) for p in res["witness_points"]]
        if [int(table[p]) for p in points] != [int(s) for s in a["sigma"]]:
            return "witness points do not carry sigma"
        pot = {0: 0}
        for _ in range(graph.V):   # potentials from the witness, edge by edge
            for (u, v), p in zip(graph.edges, points):
                if u in pot and v not in pot:
                    pot[v] = pot[u] ^ p
                elif v in pot and u not in pot:
                    pot[u] = pot[v] ^ p
        if any(pot[u] ^ pot[v] != p for (u, v), p in zip(graph.edges, points)):
            return "witness points are not the image of a linear map"
        return None

    def _test(self, index, op, exp, res):
        hits, samples = _val(res["rejections"]), _val(res["samples"])
        if self.recorded.setdefault(index, hits) != hits:
            return f"rejections {hits} != {self.recorded[index]} recorded for this seed"
        if Fraction(_val(res["empirical_rate"])) != Fraction(hits, samples):
            return "empirical_rate != rejections / samples"
        if samples != op.args["samples"] or "exact_density" in res:
            return "unexpected samples or exact density"
        p = Fraction(*exp["density"])
        return None if _binomial_ok(hits, samples, p) else f"{hits} hits far from density {p}"

    def _calibrate(self, index, op, exp, res):
        rows = res["series"]["rows"]
        key = json.dumps(rows)
        if self.recorded.setdefault(index, key) != key:
            return "calibration series differs from the one recorded for this seed"
        if len(rows) != op.args["buckets"]:
            return f"{len(rows)} rows"
        if Fraction(rows[0][2]) != Fraction(*exp["first_density"]):
            return f"undamaged density {rows[0][2]} != oracle"
        dens = [Fraction(r[2]) for r in rows]
        if dens[-1] != 0 or any(a < b for a, b in zip(dens, dens[1:])):
            return f"densities {rows} not decreasing to 0"
        for _, rate, d in rows:
            hits = Fraction(rate) * op.args["samples"]
            if not _binomial_ok(int(hits), op.args["samples"], Fraction(d)):
                return f"rate {rate} far from density {d}"
        return None

    def _fourier(self, index, op, exp, res):
        got = {"ones": _val(res["ones_count"]), "parseval": _val(res["parseval_power_sum"]),
               "max_abs": _val(res["max_abs_nonzero"]),
               "top": [[t["alpha"], _val(t["coeff"])] for t in res["top_coefficients"]]}
        n = oracle.table_n(self.inputs[op.args["function"]].table)
        if got["parseval"] != got["ones"] << n:
            return "parseval_power_sum != 2^n * ones_count"
        return None if got == exp else "spectrum summary differs from oracle"

    def _cycle(self, index, op, exp, res):
        if _val(res["cycle_count"]) != exp["count"]:
            return f"cycle_count {_val(res['cycle_count'])} != oracle {exp['count']}"
        if "oracle_match" in res and not (res["oracle_match"]
                                          and _val(res["brute_force_count"]) == exp["count"]):
            return "brute-force count disagrees"
        return None

    def _vonneumann(self, index, op, exp, res):
        if _val(res["violations"]) != 0 or Fraction(_val(res["min_margin_fourth_power"])) < 0:
            return f"von Neumann inequality violated: {res}"
        return None

    def _regularity(self, index, op, exp, res):
        table = self.inputs[op.args["function"]].table
        eps = Fraction(*op.args["eps"])
        basis = res["subspace_basis"]
        frac = Fraction(_val(res["uniform_fraction"]))
        if len(basis) != oracle.table_n(table) - _val(res["codim"]):
            return "codim does not match the basis"
        if frac < 1 - eps or oracle.uniform_fraction(table, basis, eps) != frac:
            return f"uniform fraction {frac} not confirmed"
        return None

    def _sweep(self, index, op, exp, res):
        bad = {k: v for k, v in res.items() if _val(v) != 1}
        return None if not bad and len(res) == 10 else f"graphic complexity != 1: {bad}"

    def _complexity(self, index, op, exp, res):
        got = _val(res["complexity"])
        return None if got == op.args["value"] else f"complexity {got}"

    def _circuits(self, index, op, exp, res):
        got = (_val(res["circuit_count"]), len(res["circuits"]), len(res["cycle_space_basis"]))
        want = (op.args["count"], op.args["count"], op.args["basis"])
        return None if got == want else f"circuits {got} != {want}"

    def _oddgirth(self, index, op, exp, res):
        got = _val(res["odd_girth"])
        return None if got == op.args["value"] else f"odd girth {got}"

    def _hom(self, index, op, exp, res):
        a = op.args
        if res["homomorphism_exists"] != a["exists"]:
            return f"homomorphism_exists={res['homomorphism_exists']}"
        if not a["exists"]:
            return None if res["assignment"] == "none" else "assignment without a homomorphism"
        from matroidlab.matroid import Homomorphism
        source = self.load_matroid(f"{a['source']}.matroid")
        target = self.load_matroid(f"{a['target']}.matroid")
        phi = Homomorphism(tuple(res["assignment"]))
        return None if self.verify_homomorphism(phi, source, target) else "witness fails"

    def _distance(self, index, op, exp, res):
        a = op.args
        flips = _val(res["flips"])
        n = oracle.table_n(oracle.input_table(self.inputs[a["function"]]))
        want = exp.get("flips", a.get("flips"))
        if flips != want or Fraction(_val(res["delta"])) != Fraction(flips, 1 << n):
            return f"flips {flips} != {want}"
        if set(a["sigma"]) == {"1"} and not (res["hitting_matches_repair"]
                                             and _val(res["hitting_number"]) == flips):
            return "hitting number does not match the repair distance"
        return None

    def _characterize(self, index, op, exp, res):
        if _val(res["mismatches"]) != 0 or res["containment_failures"]:
            return f"characterization mismatches: {_val(res['mismatches'])}"
        verdicts = res["sigma_verdicts"]
        if len(verdicts) != op.args["sigmas"] or not all(v["match"] for v in verdicts):
            return "sigma verdicts incomplete"
        return None

    def _hierarchy_cycles(self, index, op, exp, res):
        want = {"c5_canonical_contains_c5": True, "c3_free": True,
                "hitting_number": 4, "farness_lower_bound_flips": 4}
        got = {k: _val(res.get(k)) for k in want}
        return None if got == want else f"hierarchy {got}"

    def _hierarchy_cliques(self, index, op, exp, res):
        want = {"hom_k5_to_k3": "none", "canonical_k3_is_k5_free": True}
        return None if res == want else f"hierarchy {res}"

