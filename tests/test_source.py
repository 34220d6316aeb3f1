"""Static checks over the package source, read with the stdlib ast."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matroidlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module
    never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_detector():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.x(e)\n") \
        == ["os", "c"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.f()\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_top_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
