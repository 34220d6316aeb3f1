"""Every documented refusal, run once: its error type and a fragment of
its message, and, where a command reaches it, the command's exit code
and the one line it prints."""

import re

import numpy as np
import pytest

from matroidlab.boolfn import random_function
from matroidlab.cli import main
from matroidlab.errors import (BudgetExceededError, DimensionMismatchError, FormatError,
                               InvalidInputError)
from matroidlab.fileio import load_function, load_graph, load_matroid, save_function, save_matroid
from matroidlab.gf2 import GFVector, LinearMap, rank_and_basis
from matroidlab.matroid import (BinaryMatroid, Graph, cographic_from_graph, complete_graph,
                                complexity, cycle_graph, graphic_from_graph, named_graph,
                                odd_girth)
from matroidlab.tester import (PatternSpec, brute_force_cycle_count, min_repair_distance,
                               run_tester, von_neumann_gap)
from oracles import cog_partition_criterion, complexity_at, constant

C3 = graphic_from_graph(cycle_graph(3))

# name -> (library call on the file directory, error type, message
# fragment, argv reaching the same refusal or None, its exit code)
REFUSALS = {
    # tester
    "general repair cap": (
        lambda d: min_repair_distance(load_function(d / "f5.boolfn"), C3,
                                      PatternSpec.from_string("110")),
        BudgetExceededError, "2^n = 32 exceeds the general repair cap of 16",
        ["distance", "--function", "{d}/f5.boolfn", "--matroid", "{d}/c3.matroid",
         "--sigma", "110"], 3),
    "brute-force cycle length": (
        lambda d: brute_force_cycle_count(constant(2, 1), 2),
        InvalidInputError, "cycle length k=2 must be at least 3", None, None),
    "brute-force tuple cap": (
        lambda d: brute_force_cycle_count(constant(11, 1), 4),
        BudgetExceededError, "tuple enumeration too large", None, None),
    "tester sigma length": (
        lambda d: run_tester(load_function(d / "f5.boolfn"), C3, PatternSpec.from_string("11"),
                             10, 0),
        DimensionMismatchError, "sigma length 2 does not match matroid size 3",
        ["test", "--function", "{d}/f5.boolfn", "--matroid", "{d}/c3.matroid",
         "--sigma", "11", "--samples", "10"], 4),
    "von Neumann function count": (
        lambda d: von_neumann_gap([constant(2, 1)] * 2, C3),
        InvalidInputError, "need 3 functions, got 2", None, None),
    "von Neumann shared domain": (
        lambda d: von_neumann_gap([constant(2, 1), constant(2, 1), constant(3, 1)], C3),
        DimensionMismatchError, "all functions must share one domain", None, None),
    "empty sigma": (
        lambda d: PatternSpec.from_string(""),
        InvalidInputError, "sigma must be a nonempty 0/1 tuple",
        ["count", "--function", "{d}/f5.boolfn", "--matroid", "{d}/c3.matroid",
         "--sigma", ""], 4),
    "sigma entry": (
        lambda d: PatternSpec((1, 2)),
        InvalidInputError, "sigma must be a nonempty 0/1 tuple", None, None),
    # matroid
    "odd girth cap": (
        lambda d: odd_girth(load_matroid(d / "k7.matroid")),
        BudgetExceededError, "k=21 exceeds enumeration cap 20",
        ["oddgirth", "--matroid", "{d}/k7.matroid"], 3),
    "general complexity cap": (
        lambda d: complexity(load_matroid(d / "k6.matroid"), cap=2),
        BudgetExceededError, "k=15 exceeds general complexity cap 12",
        ["complexity", "--matroid", "{d}/k6.matroid", "--cap", "2"], 3),
    "path name without edges": (
        lambda d: graphic_from_graph(named_graph("path1")),
        InvalidInputError, "graphic matroid needs at least one edge",
        ["complexity", "--sweep", "--graphs", "path1"], 4),
    "graphic of an edgeless graph": (
        lambda d: graphic_from_graph(load_graph(d / "edgeless.graph")),
        InvalidInputError, "graphic matroid needs at least one edge",
        ["graphic", "--graph", "{d}/edgeless.graph", "--out", "{d}/out.matroid"], 4),
    "cographic of an edgeless graph": (
        lambda d: cographic_from_graph(load_graph(d / "point.graph")),
        InvalidInputError, "cographic matroid needs at least one edge",
        ["cographic", "--graph", "{d}/point.graph", "--out", "{d}/out.matroid"], 4),
    "cographic of a disconnected graph": (
        lambda d: cographic_from_graph(load_graph(d / "split.graph")),
        InvalidInputError, "cographic construction requires a connected graph",
        ["cographic", "--graph", "{d}/split.graph", "--out", "{d}/out.matroid"], 4),
    "cycle length": (
        lambda d: named_graph("c2"),
        InvalidInputError, "a cycle needs at least 3 vertices",
        ["complexity", "--sweep", "--graphs", "c2"], 4),
    "graph without vertices": (
        lambda d: Graph(0, ()),
        InvalidInputError, "graph needs at least one vertex", None, None),
    "edge orientation": (
        lambda d: Graph(3, ((1, 0),)),
        InvalidInputError, "edge (1,0) not normalized u<v", None, None),
    "edge order": (
        lambda d: Graph(3, ((1, 2), (0, 1))),
        InvalidInputError, "edge list must be sorted", None, None),
    "edge to remove": (
        lambda d: cycle_graph(3).without_edge((0, 3)),
        InvalidInputError, "edge (0, 3) not in graph", None, None),
    "empty matroid": (
        lambda d: BinaryMatroid([]),
        InvalidInputError, "a matroid needs at least one element", None, None),
    "mixed matroid dimensions": (
        lambda d: BinaryMatroid([GFVector(2, 1), GFVector(3, 1)]),
        DimensionMismatchError, "mixed dimensions 2 and 3", None, None),
    # test oracles
    "complexity element index": (
        lambda d: complexity_at(C3, 3, 1),
        InvalidInputError, "element index 3 out of range", None, None),
    "criterion on a disconnected graph": (
        lambda d: cog_partition_criterion(Graph(4, ((0, 1), (2, 3))), (0, 1)),
        InvalidInputError, "criterion defined for connected graphs", None, None),
    "criterion edge": (
        lambda d: cog_partition_criterion(complete_graph(4), (0, 4)),
        InvalidInputError, "edge (0, 4) not in graph", None, None),
    # gf2
    "XOR dimensions": (
        lambda d: GFVector(2, 1) ^ GFVector(3, 1),
        DimensionMismatchError, "dim 2 vs 3", None, None),
    "empty vector set": (
        lambda d: rank_and_basis([]),
        InvalidInputError, "ambient dimension required for an empty vector set", None, None),
    "map image count": (
        lambda d: LinearMap(2, (GFVector(2, 1),)),
        InvalidInputError, "need 2 images, got 1", None, None),
    "map image dimensions": (
        lambda d: LinearMap(2, (GFVector(2, 1), GFVector(3, 1))),
        DimensionMismatchError, "mixed image dimensions [2, 3]", None, None),
    # fileio
    "invalid hex": (
        lambda d: load_function(d / "hex.boolfn"),
        FormatError, "line 3: table is not valid hex",
        ["fourier", "--function", "{d}/hex.boolfn"], 4),
    "content after the table": (
        lambda d: load_function(d / "extra.boolfn"),
        FormatError, "line 4: unexpected content after table",
        ["fourier", "--function", "{d}/extra.boolfn"], 4),
    "truncated matroid file": (
        lambda d: load_matroid(d / "cut.matroid"),
        FormatError, "line 1: truncated matroid file",
        ["circuits", "--matroid", "{d}/cut.matroid"], 4),
    "truncated graph file": (
        lambda d: load_graph(d / "cut.graph"),
        FormatError, "line 1: truncated graph file",
        ["graphic", "--graph", "{d}/cut.graph", "--out", "{d}/out.matroid"], 4),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("refusals")
    save_function(d / "f5.boolfn", random_function(5, np.random.default_rng(1)))
    save_matroid(d / "c3.matroid", C3)
    save_matroid(d / "k6.matroid", graphic_from_graph(complete_graph(6)))
    save_matroid(d / "k7.matroid", graphic_from_graph(complete_graph(7)))
    (d / "edgeless.graph").write_text("graph v1\nV=3\n")
    (d / "point.graph").write_text("graph v1\nV=1\n")
    (d / "split.graph").write_text("graph v1\nV=4\ne 0 1\ne 2 3\n")
    (d / "hex.boolfn").write_text("boolfn v1\nn=3\ntable=zz\n")
    (d / "extra.boolfn").write_text("boolfn v1\nn=3\ntable=0f\nmore\n")
    (d / "cut.matroid").write_text("matroid v1")
    (d / "cut.graph").write_text("graph v1")
    return d


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(files, capsys, name):
    call, error, fragment, argv, code = REFUSALS[name]
    with pytest.raises(error, match=re.escape(fragment)) as info:
        call(files)
    if argv is None:
        return
    assert main([a.format(d=files) for a in argv]) == code
    prefix = "budget exceeded: " if code == 3 else "error: "
    assert capsys.readouterr() == ("", f"{prefix}{info.value}\n")
