"""Versioned line-oriented text formats for functions, matroids, and
graphs.

boolfn v1:   magic line, "n=<int>", "table=<hex>"; truth tables are
             lowercase hex, byte i holding points 8i..8i+7 LSB-first.
matroid v1:  magic line, "m=<int> k=<int>", then k rows of m-character
             0/1 strings (coordinate 0 first).
graph v1:    magic line, "V=<int>" (1 <= V <= 32, the cap graph names
             share), then one "e <u> <v>" line per edge.
"""

from __future__ import annotations

import numpy as np

from .boolfn import WHT_MAX_N, BooleanFunction
from .errors import FormatError, InvalidInputError
from .gf2 import GFVector
from .matroid import GRAPH_NAME_MAX_V, BinaryMatroid, Graph

FUNCTION_MAGIC = "boolfn v1"
MATROID_MAGIC = "matroid v1"
GRAPH_MAGIC = "graph v1"


def _lines(text: str) -> list[str]:
    return [ln.rstrip("\n") for ln in text.split("\n")]


def _require_magic(lines: list[str], magic: str) -> None:
    if not lines or lines[0].strip() != magic:
        raise FormatError(f"expected header {magic!r}", line=1)


def _kv(line: str, lineno: int, key: str) -> str:
    line = line.strip()
    if not line.startswith(key + "="):
        raise FormatError(f"expected {key}=<value>", line=lineno)
    return line[len(key) + 1:]


def _int_field(line: str, lineno: int, key: str) -> int:
    raw = _kv(line, lineno, key)
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"{key} is not an integer: {raw!r}", line=lineno) from None


def serialize_function(f: BooleanFunction) -> str:
    packed = np.packbits(f.table, bitorder="little").tobytes()
    return f"{FUNCTION_MAGIC}\nn={f.n}\ntable={packed.hex()}\n"


def parse_function(text: str) -> BooleanFunction:
    lines = _lines(text)
    _require_magic(lines, FUNCTION_MAGIC)
    if len(lines) < 3:
        raise FormatError("truncated function file", line=len(lines))
    n = _int_field(lines[1], 2, "n")
    if n < 1:
        raise FormatError(f"n must be positive, got {n}", line=2)
    if n > WHT_MAX_N:
        raise FormatError(f"n={n} exceeds the truth-table cap {WHT_MAX_N}", line=2)
    hex_str = _kv(lines[2], 3, "table")
    nbytes = ((1 << n) + 7) // 8
    if len(hex_str) != 2 * nbytes:
        raise FormatError(
            f"table length mismatch: expected {2 * nbytes} hex digits for n={n}, "
            f"got {len(hex_str)}", line=3)
    if hex_str != hex_str.lower():
        raise FormatError("table hex must be lowercase", line=3)
    try:
        raw = bytes.fromhex(hex_str)
    except ValueError:
        raise FormatError("table is not valid hex", line=3) from None
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    if bits[1 << n:].any():
        raise FormatError("padding bits beyond 2^n must be zero", line=3)
    for extra in range(3, len(lines)):
        if lines[extra].strip():
            raise FormatError("unexpected content after table", line=extra + 1)
    return BooleanFunction(n, bits[:1 << n])


def serialize_matroid(m: BinaryMatroid) -> str:
    rows = "\n".join(v.to_bits() for v in m.vectors)
    return f"{MATROID_MAGIC}\nm={m.m} k={m.k}\n{rows}\n"


def parse_matroid(text: str) -> BinaryMatroid:
    lines = _lines(text)
    _require_magic(lines, MATROID_MAGIC)
    if len(lines) < 2:
        raise FormatError("truncated matroid file", line=len(lines))
    dims = lines[1].strip().split()
    if len(dims) != 2:
        raise FormatError("expected 'm=<int> k=<int>'", line=2)
    m_dim = _int_field(dims[0], 2, "m")
    k = _int_field(dims[1], 2, "k")
    if m_dim < 1 or k < 1:
        raise FormatError("m and k must be positive", line=2)
    vectors = []
    lineno = 2
    for raw in lines[2:]:
        lineno += 1
        row = raw.strip()
        if not row:
            continue
        if len(row) != m_dim or set(row) - {"0", "1"}:
            raise FormatError(
                f"row must be {m_dim} characters of 0/1, got {row!r}", line=lineno)
        vectors.append(GFVector.from_bits(row))
    if len(vectors) != k:
        raise FormatError(f"expected {k} rows, found {len(vectors)}", line=lineno)
    return BinaryMatroid(vectors)


def serialize_graph(g: Graph) -> str:
    lines = [GRAPH_MAGIC, f"V={g.V}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = _lines(text)
    _require_magic(lines, GRAPH_MAGIC)
    if len(lines) < 2:
        raise FormatError("truncated graph file", line=len(lines))
    v_count = _int_field(lines[1], 2, "V")
    if v_count < 1:
        raise FormatError("V must be positive", line=2)
    if v_count > GRAPH_NAME_MAX_V:
        raise FormatError(f"V={v_count} exceeds the graph cap of {GRAPH_NAME_MAX_V} vertices",
                          line=2)
    edges = []
    lineno = 2
    for raw in lines[2:]:
        lineno += 1
        row = raw.strip()
        if not row:
            continue
        parts = row.split()
        if len(parts) != 3 or parts[0] != "e":
            raise FormatError(f"expected 'e <u> <v>', got {row!r}", line=lineno)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"non-integer endpoints in {row!r}", line=lineno) from None
        edges.append((u, v))
    try:
        return Graph.from_edges(v_count, edges)
    except InvalidInputError as exc:
        raise FormatError(f"not a simple graph: {exc}", line=lineno) from None


def _read_text(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ASCII byte 0x{exc.object[exc.start]:02x}") from None


def load_function(path: str) -> BooleanFunction:
    return parse_function(_read_text(path))


def save_function(path: str, f: BooleanFunction) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_function(f))


def load_matroid(path: str) -> BinaryMatroid:
    return parse_matroid(_read_text(path))


def save_matroid(path: str, m: BinaryMatroid) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_matroid(m))


def load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def save_graph(path: str, g: Graph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_graph(g))
