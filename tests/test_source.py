"""Static checks over the package source, read with the stdlib ast."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "matroidlab"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_top_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read(node: ast.stmt) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private names (one leading underscore) defined at the top level of
    a module that no other top-level statement of any of the modules
    reads, by name or as an attribute."""
    stmts = [(module, node) for module, source in sources.items()
             for node in ast.parse(source).body]
    reads = [_read(node) for _, node in stmts]
    return [f"{module}.{name}" for i, (module, node) in enumerate(stmts)
            for name in _defined(node)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in r for j, r in enumerate(reads) if j != i)]


def test_unread_private_names_detector():
    sources = {"a": "_X = 1\ndef _f():\n    return _f()\ndef _g():\n    pass\n",
               "b": "from .a import _g\n_h: int = 2\nprint(_g(), m._h, __name__)\n"}
    assert unread_private_names(sources) == ["a._X", "a._f"]


def test_private_top_level_names_are_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []
