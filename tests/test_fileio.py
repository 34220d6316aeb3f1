import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidlab.boolfn import random_function
from matroidlab.errors import FormatError, MatroidLabError
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


# Text built from each format's tokens: its magic line, a size line,
# then body lines, each line swapped one time in four for junk (the
# other formats' tokens and characters that str methods treat
# specially: a non-ASCII digit, a letter whose lowercase form is
# longer). Sizes run past the caps or are not integers.
NUMS = st.one_of(st.integers(0, 3), st.integers(-1, 34), st.just(10 ** 20)).map(str) \
    | st.sampled_from(("x", "1.5", "\u0663"))
JUNK = st.lists(st.sampled_from(("boolfn v1", "matroid v1", "graph v1", "n=", "m=", "k=",
                                 "V=", "table=", "e", " ", "\t", "-", "0", "1", "24", "33",
                                 "ff", "A6", "G", "\u0663", "\u0130", "\x00")),
                max_size=5).map("".join)


def or_junk(lines):
    return st.tuples(st.booleans(), st.booleans(), lines, JUNK).map(
        lambda t: t[3] if t[0] and t[1] else t[2])


FORMATS = [
    (parse_function, "boolfn v1", st.builds("n={}".format, NUMS),
     st.builds("table={}".format, st.text("0136af", min_size=1, max_size=4))),
    (parse_matroid, "matroid v1", st.builds("m={} k={}".format, NUMS, NUMS),
     st.text("01", min_size=1, max_size=4)),
    (parse_graph, "graph v1", st.builds("V={}".format, NUMS),
     st.builds("e {} {}".format, NUMS, NUMS)),
]


@pytest.mark.parametrize("parse, magic, size, line", FORMATS,
                         ids=("function", "matroid", "graph"))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_parsers_refuse_only_with_package_errors(parse, magic, size, line, data):
    head = data.draw(or_junk(size))
    body = data.draw(st.lists(or_junk(line), max_size=6))
    try:
        parse("\n".join([magic, head, *body]) + data.draw(st.sampled_from(("", "\n"))))
    except MatroidLabError:
        pass
