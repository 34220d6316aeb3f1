"""Report-corpus gate: a fixed list of CLI commands on tiny seeded inputs,
run in-process through `cli.main(argv)`, must reproduce the exit code,
stdout and written files recorded in `report_corpus.json`, byte for byte
apart from `runtime_ms`.

The list covers all 17 pipelines, each subcommand run on its argparse
defaults and through each of its mode branches, the
graphic/cographic/canonical file writers, an exit-2 `--assert-free` run
and an exit-3 budget run. A change
that alters a report on purpose regenerates the golden file with

    PYTHONPATH=src python tests/test_report_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from matroidlab.boolfn import BooleanFunction, random_function
from matroidlab.cli import main
from matroidlab.fileio import save_function, save_graph, save_matroid
from matroidlab.matroid import (canonical_function, cographic_from_graph,
                                graphic_from_graph, named_graph)

GOLDEN = Path(__file__).with_name("report_corpus.json")

# {d} is the input directory, {o} the output directory.
COMMANDS = [
    "graphic --graph {d}/c3.graph --out {o}/c3.matroid",
    "cographic --graph {d}/k4.graph --out {o}/k4co.matroid",
    "canonical --matroid {d}/c3.matroid -n 5 --out {o}/canon_c3.boolfn",
    "complexity --sweep --graphs c3 c5 k4",
    "complexity --matroid {d}/k4co.matroid --cap 2",
    "circuits --matroid {d}/k4.matroid",
    "oddgirth --matroid {d}/c5.matroid",
    "hom --source {d}/c5.matroid --target {d}/c3.matroid",
    "hom --source {d}/c3.matroid --target {d}/c5.matroid --out {o}/hom.json",
    "free --function {d}/canon_c3.boolfn --matroid {d}/c3.matroid --sigma 111",
    "free --function {d}/canon_c5.boolfn --matroid {d}/c3.matroid --sigma 111",
    "free --function {d}/r4.boolfn --matroid {d}/k4.matroid --sigma 101010",
    "free --function {d}/r4.boolfn --matroid {d}/zero.matroid --sigma 011",
    "free --function {d}/top11.boolfn --matroid {d}/c3.matroid --sigma 110",
    "free --function {d}/canon_c5_11.boolfn --matroid {d}/c3.matroid --sigma 111",
    "free --function {d}/canon_c3.boolfn --matroid {d}/c3.matroid --sigma 111 --assert-free",
    "free --function {d}/r4.boolfn --matroid {d}/k4.matroid --sigma 111111 --budget 8",
    "count --function {d}/canon_c3.boolfn --matroid {d}/c3.matroid --sigma 111",
    "count --function {d}/r4.boolfn --matroid {d}/k4.matroid --sigma 110100",
    "count --function {d}/r4.boolfn --matroid {d}/k4co.matroid --sigma 011011",
    "count --function {d}/r4.boolfn --matroid {d}/zero.matroid --sigma 111",
    "count --function {d}/r11.boolfn --matroid {d}/c3.matroid --sigma 101",
    "test --function {d}/r4.boolfn --matroid {d}/c3.matroid --sigma 101 --samples 20000 --seed 7",
    "test --function {d}/r4.boolfn --matroid {d}/zero.matroid --sigma 011 --samples 5000 --seed 8",
    "test --function {d}/r11.boolfn --matroid {d}/k4.matroid --sigma 111000 --samples 1100000 --seed 9",
    "test --calibrate -n 5 --samples 2000 --buckets 3 --seed 3 --plot-out {o}/cal.tsv",
    "distance --function {d}/r3.boolfn --matroid {d}/c3.matroid --sigma 111",
    "distance --function {d}/r3.boolfn --matroid {d}/c3.matroid --sigma 101",
    "fourier --function {d}/r5.boolfn",
    "fourier --function {d}/r5.boolfn --cycle-count 4",
    "fourier --check-von-neumann -n 3 --trials 4 --graph c3 --seed 2",
    "regularity --function {d}/r4.boolfn --eps 1/2",
    "regularity -n 3 --eps 1/4 --seed 5",
    "characterize -k 3 -n 2",
    "hierarchy --kind cycles -k 3 -n 6",
    "hierarchy --kind cliques -a 3 -b 4 -n 4",
    "test --calibrate --function {d}/r4.boolfn --matroid {d}/c3.matroid --sigma 110 --samples 2000 --buckets 2 --seed 4",
    "test --calibrate --samples 500 --seed 6",
    "test --function {d}/r4.boolfn --matroid {d}/c3.matroid --sigma 101",
    "regularity --function {d}/r4.boolfn --eps 1/2 --max-codim 1",
    "regularity --seed 5",
    "fourier --function {d}/r11.boolfn --cycle-count 4",
    "complexity --matroid {d}/c5.matroid",
    "hierarchy -n 6",
    "characterize",
    "fourier --check-von-neumann --trials 3",
    "complexity --sweep",
]


def write_inputs(d: Path) -> None:
    """The corpus inputs: named graphs, their matroids, a matroid with a
    zero ground vector, canonical functions and seeded random functions.
    The n=11 inputs make scans and samples span several chunks."""
    for name in ("c3", "c5", "k4"):
        g = named_graph(name)
        save_graph(d / f"{name}.graph", g)
        save_matroid(d / f"{name}.matroid", graphic_from_graph(g))
    save_matroid(d / "k4co.matroid", cographic_from_graph(named_graph("k4")))
    (d / "zero.matroid").write_text("matroid v1\nm=2 k=3\n00\n10\n10\n")
    for name, n, suffix in (("c3", 5, ""), ("c5", 5, ""), ("c5", 11, "_11")):
        m = graphic_from_graph(named_graph(name))
        save_function(d / f"canon_{name}{suffix}.boolfn", canonical_function(m, n))
    # ones exactly where x_10 = 1: the first 110 triangle lies in the
    # third chunk of the assignment scan
    save_function(d / "top11.boolfn", BooleanFunction(11, np.arange(1 << 11) >> 10))
    for n in (3, 4, 5, 11):
        rng = np.random.Generator(np.random.PCG64(100 + n))
        save_function(d / f"r{n}.boolfn", random_function(n, rng))


def _masked(text: str) -> str:
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)


def run_corpus(root: Path) -> list[dict]:
    """Run every command; record its exit code, masked stdout and the
    bytes (as text) of every file it wrote."""
    d, o = root / "in", root / "out"
    d.mkdir()
    o.mkdir()
    write_inputs(d)
    records = []
    for template in COMMANDS:
        argv = template.format(d=d, o=o).split()
        before = set(o.iterdir())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = sorted(set(o.iterdir()) - before)
        records.append({
            "command": template,
            "exit": code,
            "stdout": _masked(out.getvalue()),
            "files": {p.name: _masked(p.read_text(encoding="ascii")) for p in written},
        })
    return records


def test_report_corpus(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="ascii"))
    records = run_corpus(tmp_path)
    assert [r["command"] for r in records] == [g["command"] for g in golden]
    for got, want in zip(records, golden):
        assert got == want, want["command"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = run_corpus(Path(tmp))
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="ascii")
    sys.stdout.write(f"wrote {len(corpus)} records to {GOLDEN}\n")
