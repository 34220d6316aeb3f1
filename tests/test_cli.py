import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matroidlab.cli
import matroidlab.families
import matroidlab.matroid
import matroidlab.tester
from matroidlab.boolfn import BooleanFunction, random_function
from matroidlab.cli import build_parser, emit_plot_data, main
from matroidlab.errors import InvalidInputError
from matroidlab.fileio import save_function, save_graph, save_matroid
from matroidlab.matroid import (canonical_function, complexity, cycle_graph,
                                graphic_from_graph, named_graph)
from matroidlab.tester import PATTERN_BUDGET_BITS, PatternSpec, find_pattern
from oracles import constant, hitting_number_by_milp, instances_by_scan

SRC = str(Path(matroidlab.__file__).resolve().parents[1])


def run_cli(*args):
    """Run the CLI in a child process that inherits this environment,
    with the package these tests import first on its PYTHONPATH."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "matroidlab", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture
def workdir(tmp_path):
    g = cycle_graph(3)
    save_graph(tmp_path / "k3.graph", g)
    m = graphic_from_graph(g)
    save_matroid(tmp_path / "k3.matroid", m)
    save_function(tmp_path / "canon.boolfn", canonical_function(m, 4))
    return tmp_path


def strip_runtime(text):
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": X', text)


def test_graphic_and_canonical_files(workdir):
    out = workdir / "m.matroid"
    r = run_cli("graphic", "--graph", str(workdir / "k3.graph"), "--out", str(out))
    assert r.returncode == 0
    assert out.read_text() == "matroid v1\nm=3 k=3\n110\n101\n011\n"

    fn = workdir / "f.boolfn"
    r = run_cli("canonical", "--matroid", str(out), "-n", "4", "--out", str(fn))
    assert r.returncode == 0
    assert fn.read_text() == (workdir / "canon.boolfn").read_text()


def test_free_exit_codes(workdir):
    r = run_cli("free", "--function", str(workdir / "canon.boolfn"),
                "--matroid", str(workdir / "k3.matroid"), "--sigma", "111")
    assert r.returncode == 0
    assert json.loads(r.stdout)["results"]["free"] is False

    r = run_cli("free", "--function", str(workdir / "canon.boolfn"),
                "--matroid", str(workdir / "k3.matroid"), "--sigma", "111",
                "--assert-free")
    assert r.returncode == 2


def test_budget_exit_code(workdir):
    save_matroid(workdir / "k5.matroid", graphic_from_graph(named_graph("k5")))
    save_function(workdir / "big.boolfn", constant(8, 1))
    r = run_cli("free", "--function", str(workdir / "big.boolfn"),
                "--matroid", str(workdir / "k5.matroid"), "--sigma", "1111111111")
    assert r.returncode == 3
    assert "budget" in r.stderr


@pytest.mark.parametrize("argv, code", [
    (["fourier", "--cycle-count", "2000", "--function", "{d}/f12.boolfn"], 3),
    (["fourier", "--cycle-count", "1000", "--function", "{d}/f12.boolfn"], 0),
    (["count", "--sigma", "111", "--function", "{d}/f15.boolfn",
      "--matroid", "{d}/wide.matroid"], 3),
])
def test_results_past_printable_ints_exit_3(workdir, capsys, argv, code):
    # json.dumps refuses ints of more than 4,300 digits: 12*1999 bits of
    # cycle count, or a full-map total of 2^(15*1000)
    rng = np.random.default_rng(1)
    save_function(workdir / "f12.boolfn", random_function(12, rng))
    save_function(workdir / "f15.boolfn", random_function(15, rng))
    pad = "0" * 997
    (workdir / "wide.matroid").write_text(
        f"matroid v1\nm=1000 k=3\n110{pad}\n101{pad}\n011{pad}\n")
    assert main([a.format(d=workdir) for a in argv]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1
        assert "14000 bits" in err
    else:
        assert json.loads(out)["results"]["cycle_count"]["exact"]


def test_distance_budget_exit_3_says_how_far_it_got(workdir, capsys, monkeypatch):
    # the canonical function is 2 flips from C_3-freeness: 3 one-point
    # sets fit the budget and none is free
    monkeypatch.setattr(matroidlab.tester, "REPAIR_CHECK_BUDGET", 3)
    assert main(["distance", "--function", str(workdir / "canon.boolfn"),
                 "--matroid", str(workdir / "k3.matroid"), "--sigma", "111"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert re.fullmatch(r"budget exceeded: repair search budget of 3 flip sets exceeded at "
                        r"flip-set size 1: 3 of the \d+ sets of that size ruled out\n", err)


@pytest.mark.parametrize("name, field, argv", [
    ("pattern_hitting_number", "hitting_matches_repair",
     ["distance", "--function", "{d}/canon.boolfn", "--matroid", "{d}/k3.matroid",
      "--sigma", "111"]),
    ("brute_force_cycle_count", "oracle_match",
     ["fourier", "--cycle-count", "4", "--function", "{d}/canon.boolfn"]),
])
def test_agreement_fields_report_a_disagreement(workdir, capsys, monkeypatch, name, field, argv):
    """An agreement field compares two computations: it reads true as
    they stand and false once one of them is off by one."""
    argv = [a.format(d=workdir) for a in argv]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"][field] is True
    computed = getattr(matroidlab.cli, name)
    monkeypatch.setattr(matroidlab.cli, name, lambda *args: computed(*args) + 1)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"][field] is False


def test_malformed_input_exit_code(workdir):
    bad = workdir / "bad.graph"
    bad.write_text("graph v2\nV=3\n")
    r = run_cli("graphic", "--graph", str(bad), "--out", str(workdir / "x.matroid"))
    assert r.returncode == 4
    r = run_cli("graphic", "--graph", str(workdir / "missing.graph"),
                "--out", str(workdir / "x.matroid"))
    assert r.returncode == 4
    r = run_cli("nonsense-command")
    assert r.returncode == 4


@pytest.mark.parametrize("argv", [
    ["count", "--function", "{d}/canon.boolfn", "--matroid", "{d}/k3.matroid",
     "--sigma", "11"],
    ["fourier", "--function", "{d}/latin1.boolfn"],
    ["regularity", "-n", "3", "--eps", "abc"],
    ["canonical", "--matroid", "{d}/k3.matroid", "-n", "30", "--out", "{d}/big.boolfn"],
    ["test", "--function", "{d}/canon.boolfn", "--sigma", "111"],
    ["fourier", "--cycle-count", "3"],
    ["fourier"],
    ["complexity"],
    ["graphic", "--graph", "{d}/k3.graph"],
    ["canonical", "--matroid", "{d}/k3.matroid", "-n", "4"],
    ["fourier", "--check-von-neumann", "-n", "-1", "--trials", "1"],
    ["characterize", "-n", "-1"],
    ["regularity", "-n", "-1"],
    ["test", "--function", "{d}/canon.boolfn", "--matroid", "{d}/k3.matroid",
     "--sigma", "111", "--seed", "-1"],
    ["test", "--calibrate", "-n", "3", "--buckets", "0"],
    ["test", "--calibrate", "-n", "3", "--buckets", "-1"],
    ["fourier", "--check-von-neumann", "-n", "2", "--trials", "0"],
    ["fourier", "--check-von-neumann", "-n", "2", "--trials", "-2"],
    ["characterize", "-k", "1", "-n", "2"],
    ["complexity", "--matroid", "{d}/k3.matroid", "--cap", "-1"],
    ["count", "--function", "{d}/canon.boolfn", "--matroid", "{d}/k3.matroid",
     "--sigma", "111", "--budget", "-1"],
    ["free", "--function", "{d}/canon.boolfn", "--matroid", "{d}/k3.matroid",
     "--sigma", "111", "--budget", "-1"],
    ["test", "--function", "{d}/canon.boolfn", "--matroid", "{d}/k3.matroid",
     "--sigma", "111", "--samples", "10", "--budget", "-1"],
    ["test", "--calibrate", "-n", "3", "--budget", "-1"],
    ["hom", "--source", "{d}/k3.matroid", "--target", "{d}/k3.matroid", "--budget", "-1"],
    ["hierarchy", "--kind", "cliques", "-a", "3", "-b", "4", "-n", "3", "--budget", "-1"],
    ["hierarchy", "--kind", "cycles", "-k", "3", "-n", "6", "--budget", "-1", "-a", "9"],
    ["hierarchy", "--kind", "cycles", "-k", "3", "-n", "6", "-a", "3"],
    ["hierarchy", "--kind", "cycles", "-n", "6", "-b", "5"],
    ["hierarchy", "-k", "3", "-n", "6", "--budget", "100"],
    ["hierarchy", "--kind", "cliques", "-a", "3", "-b", "4", "-n", "4", "-k", "99"],
    ["regularity", "-n", "3", "--max-codim", "-1"],
    ["regularity", "-n", "3", "--eps", "-1"],
    ["regularity", "-n", "3", "--eps", "3/2"],
    ["complexity", "--sweep", "--graphs", "cx"],
    ["complexity", "--sweep", "--graphs", "k3,x"],
    ["complexity", "--sweep", "--graphs", "k3,3,3"],
    ["fourier", "--check-von-neumann", "--graph", "cq", "--trials", "1"],
    ["characterize", "-k", "13", "-n", "3"],
    ["complexity", "--sweep", "--graphs", "k300"],
    ["complexity", "--sweep", "--graphs", "k6000"],
    ["fourier", "--check-von-neumann", "--graph", "c100000", "--trials", "1"],
    ["regularity", "-n", "0"],
    ["fourier", "--function", "{d}/huge.boolfn"],
    ["cographic", "--graph", "{d}/sparse.graph", "--out", "{d}/x.matroid"],
    ["graphic", "--graph", "{d}/sparse.graph", "--out", "{d}/x.matroid"],
])
def test_malformed_input_one_line_exit_4(workdir, capsys, argv):
    (workdir / "latin1.boolfn").write_bytes(b"boolfn v1\nn=2\ntable=0\xe6\n")
    # headers whose sizes the files do not back: 2^20000 points, 10^7 vertices
    (workdir / "huge.boolfn").write_text("boolfn v1\nn=20000\ntable=00\n")
    (workdir / "sparse.graph").write_text("graph v1\nV=10000000\ne 0 1\n")
    tracemalloc.start()
    try:
        assert main([a.format(d=workdir) for a in argv]) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20      # refused before any large allocation
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_clique_hierarchy_checks_n_before_the_search(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(matroidlab.cli, "find_homomorphism",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["hierarchy", "--kind", "cliques", "-a", "8", "-b", "9", "-n", "5"]) == 4
    assert calls == []
    assert capsys.readouterr().err == "error: n=5 must be at least ambient dimension 8\n"


def test_clique_hierarchy_checks_the_pattern_cap_before_the_search(capsys, monkeypatch):
    """n*rank(K_b) over the exhaustive cap exits 3 before any
    homomorphism search, which could run for 10^8 nodes first."""
    def search(*args, **kwargs):
        raise AssertionError("the homomorphism search ran")

    monkeypatch.setattr(matroidlab.cli, "find_homomorphism", search)
    assert main(["hierarchy", "--kind", "cliques", "-a", "5", "-b", "7", "-n", "8"]) == 3
    assert capsys.readouterr() == (
        "", "budget exceeded: n*rank = 48 exceeds exhaustive budget 30\n")


def test_hierarchy_cycles_argument_grid(monkeypatch, capsys):
    """Every k and n in -1..11 ends in exit 0 or a one-line exit 3 or 4.
    Malformed arguments are refused before any instance is enumerated;
    oversized ones by the enumeration's node budget. Where the exact
    engine's cap allows, find_pattern recomputes both verdicts."""
    calls = []
    real = matroidlab.tester.enumerate_instances

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matroidlab.tester, "enumerate_instances", spy)
    monkeypatch.setattr(matroidlab.cli, "enumerate_instances", spy)
    codes, hits = [], {}
    for k in range(-1, 12):
        for n in range(-1, 12):
            calls.clear()
            code = main(["hierarchy", "--kind", "cycles", "-k", str(k), "-n", str(n)])
            out, err = capsys.readouterr()
            codes.append(code)
            if code == 0:
                assert err == "" and len(calls) == 2, (k, n)
                doc = json.loads(out)
                assert doc["params"] == {"k": k, "n": n}, (k, n)
                res = doc["results"]
                hits[k, n] = res["hitting_number"]["value"]
                verdicts = [(k + 2, res[f"c{k + 2}_canonical_contains_c{k + 2}"]),
                            (k, not res[f"c{k}_free"])]
                f = canonical_function(graphic_from_graph(cycle_graph(k + 2)), n)
                for length, contains in verdicts:
                    if n * (length - 1) <= PATTERN_BUDGET_BITS:
                        inst = find_pattern(f, graphic_from_graph(cycle_graph(length)),
                                            PatternSpec.all_ones(length))
                        assert (inst is not None) == contains, (k, n, length)
                assert verdicts[0][1] and not verdicts[1][1], (k, n)
            elif code == 3:
                assert out == "", (k, n)
                assert re.fullmatch(r"budget exceeded: instance enumeration exceeded 10000000 "
                                    r"nodes; deepest element \d+ of \d+\n", err), (k, n)
            else:
                assert code == 4 and calls == [] and out == "", (k, n)
                assert err.startswith("error: ") and err.count("\n") == 1, (k, n)
    assert (codes.count(0), codes.count(3), codes.count(4)) == (6, 10, 153)
    assert hits == {(3, 5): 1, (3, 6): 2, (3, 7): 4, (3, 8): 8, (5, 7): 1, (5, 8): 2}


def test_hierarchy_cycles_runs_no_exact_count(monkeypatch, capsys):
    """Containment is a positive hitting number and C_k-freeness an
    empty instance list: neither find_pattern nor count_patterns runs,
    so n*rank = 32 for C_5 at n = 8 is no obstacle."""
    def refuse(*args, **kwargs):
        raise AssertionError("the exact engine ran")

    for module in (matroidlab.cli, matroidlab.tester):
        monkeypatch.setattr(module, "find_pattern", refuse)
        monkeypatch.setattr(module, "count_patterns", refuse)
    assert main(["hierarchy", "--kind", "cycles", "-k", "3", "-n", "8"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["c5_canonical_contains_c5"] is True and res["c3_free"] is True
    assert res["hitting_number"]["value"] == res["farness_lower_bound_flips"]["value"] == 8



def test_hierarchy_cycles_frontier_against_milp(capsys):
    """-k 5 -n 8, the largest cell that finishes: canonical C_7 at n=8,
    whose 64 instance sets the walk reaches one labeling each. The
    hitting number equals an integer program's on the scan's sets."""
    assert main(["hierarchy", "--kind", "cycles", "-k", "5", "-n", "8"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    c7 = graphic_from_graph(cycle_graph(7))
    sets = instances_by_scan(canonical_function(c7, 8), c7)
    assert len(sets) == 64
    assert res["hitting_number"]["value"] == hitting_number_by_milp(sets) == 2
    assert res["c7_canonical_contains_c7"] is True and res["c5_free"] is True


@pytest.mark.parametrize("argv", [
    ["fourier", "--check-von-neumann", "-n", "14", "--trials", "1"],
    ["fourier", "--check-von-neumann", "--graph", "k8", "-n", "2", "--trials", "1"],
])
def test_von_neumann_checks_before_drawing(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(matroidlab.cli, "random_function",
                        lambda *args, **kwargs: calls.append(args))
    assert main(argv) == 3
    assert calls == []
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_von_neumann_decides_complexity_one_once(monkeypatch):
    """Three trials run the complexity-1 coloring search as often as one
    complexity(M, cap=1) call does: once, not once per trial."""
    calls = []
    coloring_exists = matroidlab.matroid._coloring_exists

    def spy(*args):
        calls.append(args)
        return coloring_exists(*args)

    monkeypatch.setattr(matroidlab.matroid, "_coloring_exists", spy)
    assert complexity(graphic_from_graph(named_graph("k4")), cap=1) == 1
    once = len(calls)
    assert once > 0
    calls.clear()
    assert main(["fourier", "--check-von-neumann", "--graph", "k4", "-n", "2",
                 "--trials", "3"]) == 0
    assert len(calls) == once


@pytest.mark.parametrize("n, code, line", [
    (-1, 4, "error: domain dimension -1 out of supported range\n"),
    (0, 4, "error: regularity search needs n >= 1, got n=0\n"),
    (9, 3, "budget exceeded: n=9 exceeds regularity search cap 8\n"),
    (24, 3, "budget exceeded: n=24 exceeds regularity search cap 8\n"),
    (25, 4, "error: domain dimension 25 out of supported range\n"),
])
def test_regularity_refuses_n_before_the_draw(capsys, n, code, line):
    tracemalloc.start()
    try:
        assert main(["regularity", "-n", str(n)]) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20      # no 2^n table was drawn
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize("argv, code, line, ceiling", [
    (["test", "--calibrate", "-n", "24"], 3,
     "budget exceeded: n*rank = 48 exceeds exhaustive budget 30\n", 1 << 20),
    (["test", "--calibrate", "-n", "25"], 4,
     "error: n=25 exceeds the truth-table cap 24\n", 1 << 20),
    (["hierarchy", "--kind", "cliques", "-a", "3", "-b", "4", "-n", "24"], 3,
     "budget exceeded: n*rank = 72 exceeds exhaustive budget 30\n", 1 << 20),
    (["hierarchy", "--kind", "cliques", "-a", "3", "-b", "4", "-n", "2"], 4,
     "error: n=2 must be at least ambient dimension 3\n", 1 << 20),
    (["hierarchy", "--kind", "cycles", "-k", "3", "-n", "24"], 3,
     "budget exceeded: instance enumeration exceeded 10000000 nodes; "
     "deepest element 2 of 5\n", 1 << 20),
], ids=("calibrate-24", "calibrate-25", "cliques-24", "cliques-2", "cycles-24"))
def test_size_refusals_before_the_canonical_table(capsys, argv, code, line, ceiling):
    """The argument checks, then the n*rank cap or the price of the
    instance walk's leading levels, run before the 2^n canonical table."""
    tracemalloc.start()
    try:
        assert main(argv) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize("argv, code", [
    (["complexity", "--matroid", "{d}/k3.matroid", "--cap", "0"], 0),
    (["count", "--function", "{d}/canon.boolfn", "--matroid", "{d}/k3.matroid",
      "--sigma", "111", "--budget", "0"], 3),
    (["hom", "--source", "{d}/k3.matroid", "--target", "{d}/k3.matroid", "--budget", "0"], 3),
    (["regularity", "-n", "3", "--eps", "0"], 0),
    (["regularity", "-n", "3", "--eps", "1"], 0),
])
def test_zero_limits_stay_valid(workdir, capsys, argv, code):
    assert main([a.format(d=workdir) for a in argv]) == code
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("command, unit", [
    ("graphic", None), ("cographic", None), ("circuits", None), ("oddgirth", None),
    ("complexity", None), ("hom", "DFS nodes"), ("canonical", None), ("free", "bits"),
    ("count", "bits"), ("test", "bits"), ("distance", None), ("fourier", None),
    ("regularity", None), ("characterize", None), ("hierarchy", "DFS nodes")])
def test_budget_only_where_read(capsys, command, unit):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert ("--budget BUDGET" in text) == (unit is not None)
    if unit:
        assert f"in {unit}" in text


def test_parser_built_once_per_process(workdir, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["count", "--function", str(workdir / "canon.boolfn"),
                 "--matroid", str(workdir / "k3.matroid"), "--sigma", "111"]) == 0
    for argv in (["count", "--sigma", "111"], ["--version"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == []


def test_shared_parser_keeps_no_state(workdir, capsys):
    argv = ["count", "--function", str(workdir / "canon.boolfn"),
            "--matroid", str(workdir / "k3.matroid"), "--sigma", "111"]
    assert main(argv + ["--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["count", "--help"],
    ["count", "--function", "f.boolfn", "--matroid", "m.matroid"],
])
def test_shared_parser_output_matches_fresh_parser(capsys, argv):
    outputs = []
    for parse in (main, main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outputs.append((exc.value.code, capsys.readouterr()))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][1].out or outputs[0][1].err


def test_report_determinism(workdir):
    args = ("test", "--calibrate", "-n", "6", "--samples", "2000",
            "--buckets", "3", "--seed", "42")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert strip_runtime(a.stdout) == strip_runtime(b.stdout)
    c = run_cli(*args[:-1], "43")
    assert strip_runtime(c.stdout) != strip_runtime(a.stdout)


def test_report_shape_and_sorted_keys(workdir):
    r = run_cli("count", "--function", str(workdir / "canon.boolfn"),
                "--matroid", str(workdir / "k3.matroid"), "--sigma", "111",
                "--seed", "9")
    doc = json.loads(r.stdout)
    assert set(doc) == {"experiment", "params", "results", "runtime_ms",
                        "seed", "version"}
    assert doc["seed"] == 9
    assert doc["results"]["span_count"]["exact"] is True
    # serialized with sorted keys
    assert r.stdout == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_plot_data(workdir, capsys):
    plot = workdir / "cal.tsv"
    assert main(["test", "--calibrate", "-n", "6", "--samples", "1000",
                 "--buckets", "3", "--seed", "3", "--plot-out", str(plot)]) == 0
    capsys.readouterr()
    lines = plot.read_text().strip().split("\n")
    assert lines[0] == "distance_bucket\tempirical_rate\texact_density"
    assert len(lines) == 4


def test_plot_data_header_only_and_missing():
    empty = {"series": {"columns": ["a", "b"], "exact_columns": [True, True], "rows": []}}
    assert emit_plot_data("tester-calibration", empty) == "a\tb\n"
    with pytest.raises(InvalidInputError):
        emit_plot_data("count", {})


def test_plot_out_without_calibrate_is_refused_before_the_run(workdir, capsys, monkeypatch):
    def tester(*args):
        raise AssertionError("the tester ran")

    monkeypatch.setattr(matroidlab.cli, "run_tester", tester)
    plot = workdir / "p.tsv"
    assert main(["test", "--function", str(workdir / "canon.boolfn"),
                 "--matroid", str(workdir / "k3.matroid"), "--sigma", "111",
                 "--plot-out", str(plot)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not plot.exists()


def test_test_budget_reaches_exact_density(workdir, capsys, monkeypatch):
    seen = []
    count_patterns = matroidlab.cli.count_patterns

    def spy(*args, **kwargs):
        seen.append(kwargs.get("budget_bits"))
        return count_patterns(*args, **kwargs)

    monkeypatch.setattr(matroidlab.cli, "count_patterns", spy)
    assert main(["test", "--function", str(workdir / "canon.boolfn"),
                 "--matroid", str(workdir / "k3.matroid"), "--sigma", "111",
                 "--samples", "100", "--budget", "12"]) == 0
    assert "exact_density" in json.loads(capsys.readouterr().out)["results"]
    assert seen == [12]
    assert main(["test", "--calibrate", "-n", "3", "--samples", "100", "--buckets", "2",
                 "--budget", "6"]) == 0
    assert seen == [12, 6, 6]


@pytest.mark.parametrize("extra, code, message", [
    (["-n", "16"], 3, "budget exceeded: n*rank = 32 exceeds exhaustive budget 30\n"),
    (["-n", "6", "--budget", "-1"], 4, "error: budget must be nonnegative, got -1\n"),
    (["-n", "6", "--sigma", "11"], 4,
     "error: sigma length 2 does not match matroid size 3\n"),
], ids=("over-budget", "negative-budget", "bad-sigma"))
def test_calibrate_refuses_before_listing_ones(capsys, monkeypatch, extra, code, message):
    def unreachable(self):
        raise AssertionError("ones() listed before the refusal")

    monkeypatch.setattr(BooleanFunction, "ones", unreachable)
    assert main(["test", "--calibrate", "--samples", "10", *extra]) == code
    assert capsys.readouterr().err == message


def test_test_refuses_runaway_samples_before_drawing(workdir, capsys):
    tracemalloc.start()
    try:
        code = main(["test", "--function", str(workdir / "canon.boolfn"),
                     "--matroid", str(workdir / "k3.matroid"), "--sigma", "111",
                     "--samples", str(10 ** 18)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == (
        "budget exceeded: 1000000000000000000 samples exceed the tester budget of 4294967296\n")
    assert peak < 1 << 20


def test_writer_rejects_missing_out_before_work(workdir, capsys):
    tracemalloc.start()
    try:
        code = main(["canonical", "--matroid", str(workdir / "k3.matroid"), "-n", "22"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert capsys.readouterr().err == "error: canonical needs --out for the function file\n"
    assert peak < 1 << 20


@pytest.fixture
def c5_at_n16(workdir):
    """The constant-1 function at n = 16 on C_5 (rank 4): n*rank = 64."""
    save_matroid(workdir / "c5.matroid", graphic_from_graph(cycle_graph(5)))
    save_function(workdir / "one16.boolfn", constant(16, 1))
    return ["--function", str(workdir / "one16.boolfn"), "--matroid",
            str(workdir / "c5.matroid"), "--sigma", "11111", "--budget", "64"]


@pytest.mark.parametrize("command", ["count", "free"])
def test_count_past_62_bits_exits_3_before_work(c5_at_n16, capsys, command):
    tracemalloc.start()
    try:
        code = main([command] + c5_at_n16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1
    assert peak < 1 << 20


def test_test_past_62_bits_reports_sampled_figures_only(c5_at_n16, capsys):
    assert main(["test", "--samples", "1000"] + c5_at_n16) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert "exact_density" not in results
    assert results["rejections"]["value"] == 1000


def test_hierarchy_cycles_report_keys(workdir):
    r = run_cli("hierarchy", "--kind", "cycles", "-k", "3", "-n", "7", "--seed", "1")
    doc = json.loads(r.stdout)
    res = doc["results"]
    assert res["c5_canonical_contains_c5"] is True
    assert res["c3_free"] is True
    assert res["hitting_number"]["value"] >= 4


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    g = cycle_graph(3)
    save_graph(d / "c3.graph", g)
    save_matroid(d / "c3.matroid", graphic_from_graph(g))
    save_function(d / "f.boolfn", canonical_function(graphic_from_graph(g), 3))
    (d / "junk.txt").write_text("junk\n")
    return d


def fuzz_values(d):
    """Candidate values per option dest, each list led by the
    well-formed value a clean call gives: fixture files, graph names,
    sigma strings, junk."""
    f, m, g = str(d / "f.boolfn"), str(d / "c3.matroid"), str(d / "c3.graph")
    other = [str(d / "junk.txt"), str(d / "missing"), str(d)]
    return {
        "function": [f, m] + other,
        "matroid": [m, f] + other,
        "graph": [g, "c3", "k4", "cx", "k1"] + other,
        "sigma": ["111", "110", "000", "1", "11111", "012"],
        "eps": ["1/4", "0", "1", "-1", "1/0"],
        "out": [str(d / "out.txt"), str(d / "no" / "out.txt"), str(d)],
        "graphs": ["c3", "k4", "petersen", "cx", "k3,3"],
        "junk": ["", "x", "1/0", "0.5"],
        "n": SMALL_INTS + ["24", "25"],
    }


# options that name a command's input; in a clean call each is given a
# well-formed value
INPUTS = ("function", "matroid", "source", "target", "graph", "sigma", "out")
SMALL_INTS = ["-2", "-1", "0", "1", "2", "3", "5"]


FRONTIER_N = ["24", "25"]    # the truth-table cap and one past it


def option_argv(action, values, rnd, kind):
    """The option and a value drawn with `rnd`, or [] when it is left out.
    kind "clean" gives every input its well-formed value; "frontier"
    gives -n a value of FRONTIER_N, every flag, each option with choices
    one of them, each required input its well-formed value and --out
    its own half the time, and leaves every other option at its
    default, so that -n is read (an optional --function, say, would
    take its place); "junk" draws everything."""
    flag = action.option_strings[0]
    dest = {"source": "matroid", "target": "matroid", "plot_out": "out"}.get(
        action.dest, action.dest)
    if kind == "frontier":
        if action.dest == "n":
            return [flag, rnd.choice(FRONTIER_N)]
        if action.nargs == 0:
            return [flag]
        if action.choices:
            return [flag, rnd.choice(action.choices)]
        if action.required or (action.dest == "out" and rnd.random() < 1 / 2):
            return [flag, values[dest][0]]
        return []
    if kind == "clean" and action.dest in INPUTS:
        return [flag, values[dest][0]]
    if rnd.random() >= (7 / 8 if action.required else 1 / 3):
        return []
    if action.nargs == 0:
        return [flag]
    if action.nargs == "*":
        return [flag] + rnd.choices(values["graphs"], k=rnd.randint(0, 3))
    if rnd.random() < 1 / 8 and dest != "out":    # junk as --out would land in the cwd
        return [flag, rnd.choice(values["junk"])]
    if action.choices:
        return [flag, rnd.choice(action.choices)]
    if action.type is int:
        return [flag, rnd.choice(values.get(dest, SMALL_INTS))]
    return [flag, rnd.choice(values[dest])]


(SUBCOMMANDS,) = [a.choices for a in matroidlab.cli._PARSER._actions
                  if isinstance(a, argparse._SubParsersAction)]


def call_main(argv):
    """main(argv) with its output captured: the exit code, whether
    argparse exited, and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main(argv), False, err.getvalue()
        except SystemExit as exc:
            return exc.code, True, err.getvalue()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS) + [None])
def test_cli_arguments_end_in_a_documented_exit(fuzz_dir, command):
    """argv from a subcommand's own options, with small, odd and
    negative values; in a share of the calls every input is well formed,
    so the numbers reach the pipelines (command None: a lone top-level
    token). A command that takes -n gets a third of its calls at the
    frontier (option_argv), so it meets n = 24 and n = 25 with its other
    arguments valid, and the test fails if either never comes up. Every
    call exits 0, 2, 3 or 4 without a traceback. An argparse refusal
    prints its usage and one error line; any other failure prints
    exactly one error line, and every exit other than 0 stays under a
    traced peak of 4 MiB, a few MiB beyond the small files it reads,
    every command alike."""
    values = fuzz_values(fuzz_dir)
    actions = [] if command is None else [
        a for a in SUBCOMMANDS[command]._actions if a.option_strings and a.dest != "help"]
    kinds = ["clean", "junk"] + ["frontier"] * any(a.dest == "n" for a in actions)
    frontier = set()

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(data=st.data())
    def check(data):
        rnd = data.draw(st.randoms(use_true_random=True))
        if command is None:
            argv = [rnd.choice(["--version", "--help", "nonsense", ""])]
        else:
            argv, kind = [command], rnd.choice(kinds)
            for action in actions:
                argv += option_argv(action, values, rnd, kind)
            if kind == "frontier":
                frontier.add(argv[argv.index("-n") + 1])
        run_and_check(argv)

    check()
    assert sorted(frontier) == (FRONTIER_N if "frontier" in kinds else [])


def run_and_check(argv):
    """One fuzz call: a documented exit, and the output and traced peak
    that exit allows."""
    code, parser_exit, err = call_main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, argv
    if code:    # run again, traced and uncached; exits 0 do real work and go untraced
        matroidlab.families._free_by_weight.cache_clear()
        tracemalloc.start()
        try:
            call_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (argv, peak, err)
    if code == 0:
        assert err == "", argv
    elif parser_exit:
        lines = err.splitlines()
        assert code == 4 and lines[0].startswith("usage: "), (argv, err)
        assert [line for line in lines if ": error: " in line] == lines[-1:], (argv, err)
    else:
        assert err.count("\n") == 1, (argv, err)
        assert err.startswith(("error: ", "budget exceeded: ", "property violated: ")), argv
