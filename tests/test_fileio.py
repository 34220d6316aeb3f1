import numpy as np
import pytest

from matroidlab.boolfn import random_function
from matroidlab.errors import FormatError
from matroidlab.fileio import (parse_function, parse_graph, parse_matroid,
                               serialize_function, serialize_graph, serialize_matroid)
from matroidlab.gf2 import GFVector
from matroidlab.matroid import (BinaryMatroid, complete_graph, cycle_graph,
                                graphic_from_graph, petersen_graph)


def test_function_format_example():
    f = parse_function("boolfn v1\nn=2\ntable=06\n")
    assert f.ones() == [1, 2]  # the points written "10" and "01"


def test_function_round_trip():
    rng = np.random.Generator(np.random.PCG64(83))
    for _ in range(50):
        n = int(rng.integers(1, 11))
        f = random_function(n, rng)
        assert parse_function(serialize_function(f)) == f


def test_function_errors():
    with pytest.raises(FormatError) as e:
        parse_function("boolfun v1\nn=2\ntable=06\n")
    assert e.value.line == 1
    with pytest.raises(FormatError) as e:
        parse_function("boolfn v1\nn=2\ntable=0600\n")
    assert e.value.line == 3
    with pytest.raises(FormatError):
        parse_function("boolfn v1\nn=x\ntable=06\n")
    with pytest.raises(FormatError):
        parse_function("boolfn v1\nn=2\ntable=0G\n")
    with pytest.raises(FormatError):
        parse_function("boolfn v1\nn=2\ntable=A6\n")  # uppercase hex
    with pytest.raises(FormatError):
        parse_function("boolfn v1\nn=1\ntable=06\n")  # padding bits set
    with pytest.raises(FormatError):
        parse_function("boolfn v1\nn=0\ntable=01\n")


def test_matroid_format_example():
    m = parse_matroid("matroid v1\nm=3 k=3\n110\n101\n011\n")
    assert m == graphic_from_graph(cycle_graph(3))


def test_matroid_round_trip():
    for m in (graphic_from_graph(complete_graph(5)),
              graphic_from_graph(petersen_graph()),
              BinaryMatroid([GFVector(4, 9), GFVector(4, 9), GFVector(4, 0)])):
        assert parse_matroid(serialize_matroid(m)) == m


def test_matroid_errors():
    with pytest.raises(FormatError) as e:
        parse_matroid("matroid v1\nm=3 k=2\n110\n101\n011\n")
    assert "expected 2 rows" in str(e.value)
    with pytest.raises(FormatError) as e:
        parse_matroid("matroid v1\nm=3 k=2\n110\n10\n")
    assert e.value.line == 4
    with pytest.raises(FormatError):
        parse_matroid("matroid v1\nm=3\n110\n")


def test_graph_format_example():
    g = parse_graph("graph v1\nV=3\ne 0 1\ne 1 2\ne 0 2\n")
    assert g == complete_graph(3)


def test_graph_round_trip():
    for g in (complete_graph(5), petersen_graph(), cycle_graph(7)):
        assert parse_graph(serialize_graph(g)) == g


def test_graph_errors():
    with pytest.raises(FormatError) as e:
        parse_graph("graph v1\nV=3\ne 0 0\n")
    assert "simple" in str(e.value)
    with pytest.raises(FormatError) as e:
        parse_graph("graph v1\nV=3\ne 0 1\ne 0 1\n")
    assert "simple" in str(e.value)
    with pytest.raises(FormatError) as e:
        parse_graph("graph v1\nV=3\nedge 0 1\n")
    assert e.value.line == 3
    with pytest.raises(FormatError):
        parse_graph("grap v1\nV=3\n")
    assert parse_graph("graph v1\nV=32\ne 0 31\n").V == 32
    with pytest.raises(FormatError) as e:
        parse_graph("graph v1\nV=33\ne 0 1\n")
    assert e.value.line == 2
