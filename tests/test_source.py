"""Static checks over the package source, read with the stdlib ast."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "matroidlab"
PERFBENCH = TESTS.parent / "perfbench"


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


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_access(source: str) -> list[str]:
    """The os names, as `os.<name>`, through which a module reads or
    writes the process environment: attributes of `os` (or of a name it
    is imported as) and names imported from it."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "os"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT \
                and isinstance(node.value, ast.Name) and node.value.id in aliases:
            found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name}" for a in node.names if a.name in ENVIRONMENT]
    return sorted(found)


def test_environment_access_detector():
    source = ("import os\nimport os as o\nfrom os import getenv, path\n"
              "os.environ['X']\no.putenv('A', 'b')\nos.path.join('a')\nx.environ\n")
    assert environment_access(source) == ["os.environ", "os.getenv", "os.putenv"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    """Behaviour, BLAS threading included, follows from arguments and
    input shapes alone, never from an environment variable."""
    assert environment_access(path.read_text(encoding="utf-8")) == []


PRODUCTS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum", "linalg", "matvec",
            "vecmat"}


def matrix_products(tree: ast.AST) -> list[str]:
    """The matrix products issued under `tree`: `@` and `@=`, attributes
    named in PRODUCTS (np.matmul, a.dot, np.linalg, ...) and those names
    imported from numpy."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [a.name for a in node.names if a.name in PRODUCTS]
    return sorted(found)


def test_matrix_products_detector():
    source = ("import numpy as np\nfrom numpy import einsum, sum\nx = a @ b\nx @= c\n"
              "np.matmul(a, b)\na.dot(b)\nnp.linalg.norm(a)\nnp.multiply(a, b)\nx = a * b\n")
    assert matrix_products(ast.parse(source)) == ["@", "@", "dot", "einsum", "linalg", "matmul"]


def test_matrix_products_only_in_the_hadamard_kernel():
    """Every matrix product goes through boolfn._hadamard, so the one
    function holds the per-call cap that keeps OpenBLAS on the calling
    thread."""
    issuers = [f"{path.stem}.{getattr(node, 'name', node.lineno)}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if matrix_products(node)]
    assert issuers == ["boolfn._hadamard"]


def private_imports(source: str) -> list[str]:
    """The `_`-prefixed names a module imports from the package, dunders
    such as `__version__` aside."""
    return [a.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "matroidlab")
            for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]


def test_private_imports_detector():
    source = ("from .tester import PatternSpec, _lookups\nfrom matroidlab.gf2 import _ref\n"
              "from numpy import _core\nfrom . import _x, __version__\n")
    assert private_imports(source) == ["_lookups", "_ref", "_x"]


def test_cli_imports_only_public_names():
    """The command line reaches the library through its public names."""
    assert private_imports((SRC / "cli.py").read_text(encoding="utf-8")) == []


def _reads(nodes) -> tuple[set[str], set[str]]:
    """The names loaded and the attributes accessed anywhere in nodes."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return names, attrs


def unreached(sources: dict[str, str], outside=()) -> list[str]:
    """Qualified names of the top-level functions, classes, methods and
    module constants of the package modules `sources` (module name ->
    source) that no root reaches.

    The roots are `cli.main`, the top-level statements of `cli` other
    than function and class definitions (constants, the parser table,
    the `__main__` guard), and what the programs `outside` read: the
    sources of code that uses the package from outside, such as the
    benchmark. A name or attribute they read reaches a top-level
    definition of that name in any module.

    From each reached definition the walk follows what its body reads:
    a name loaded resolves to the module's own top-level definition or,
    through its `from .x import`, to module x's. A method is reached by
    an attribute of its name, but only once its class is reached; a
    reached class brings its dunder methods, bases, decorators and
    non-method body with it.

    Attributes are matched by name alone, whatever object they are read
    from, so the walk can only over-count: a method of a reached class
    counts as reached once any reached code reads an attribute of that
    name, even on an object of another class.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs: dict[str, ast.AST] = {}     # qualified name -> its definition
    imports: dict[str, dict[str, str]] = {}
    roots = []
    for module, source in sources.items():
        imports[module] = {}
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    imports[module][a.asname or a.name] = f"{node.module or '__init__'}.{a.name}"
            elif isinstance(node, (*functions, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    defs.update((f"{module}.{node.name}.{s.name}", s)
                                for s in node.body if isinstance(s, functions))
            elif module == "cli":
                roots.append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update((f"{module}.{t.id}", node) for t in targets if isinstance(t, ast.Name))
    attrs: set[str] = set()
    used: set[str] = set()
    for source in outside:
        tree = ast.parse(source)
        names, read = _reads([tree])
        attrs |= read
        used |= names | read | {a.name for n in ast.walk(tree)
                                if isinstance(n, ast.ImportFrom) for a in n.names}
    todo = ["cli.main", *(q for q in defs if q.count(".") == 1 and q.split(".")[1] in used)]

    def visit(module: str, nodes) -> None:
        names, read = _reads(nodes)
        attrs.update(read)
        todo.extend(imports[module].get(name, f"{module}.{name}") for name in names)

    visit("cli", roots)
    reached: set[str] = set()
    while todo:
        q = todo.pop()
        node = defs.get(q)
        if q not in reached and node is not None:
            reached.add(q)
            body = [node]
            if isinstance(node, ast.ClassDef):
                body = [*node.decorator_list, *node.bases, *node.keywords,
                        *(s for s in node.body if not isinstance(s, functions))]
            visit(q.split(".")[0], body)
        if not todo:      # methods whose class is reached and whose name is read
            todo = [q for q in defs if q.count(".") == 2 and q not in reached
                    and q.rsplit(".", 1)[0] in reached
                    and (q.split(".")[2] in attrs or q.endswith("__"))]
    return sorted(q for q in defs if q not in reached)


def test_unreached_detector():
    chain = "def enumerate_span():\n    return _ref_basis()\n\ndef _ref_basis():\n    pass\n"
    cli = "from .gf2 import rank\n\ndef main():\n    rank()\n"
    gf2 = "def rank():\n    pass\n\n" + chain
    assert unreached({"cli": cli, "gf2": gf2}) == ["gf2._ref_basis", "gf2.enumerate_span"]
    read = cli.replace("rank", "enumerate_span")
    assert unreached({"cli": read, "gf2": gf2}) == ["gf2.rank"]
    assert unreached({"cli": cli, "gf2": gf2}, outside=["enumerate_span\n"]) == []


def test_unreached_detector_methods():
    cli = ("from .m import C\n\ndef main():\n    C().f\n\nLIMIT = 3\n\n"
           "if __name__ == '__main__':\n    main()\n")
    m = ("K = 2\n\nclass C:\n    size: int = K\n\n    def __init__(self):\n        pass\n\n"
         "    def f(self):\n        return self.g()\n\n    def g(self):\n        pass\n\n"
         "    def h(self):\n        pass\n\n"
         "class D:\n    def f(self):\n        pass\n")
    assert unreached({"cli": cli, "m": m}) == ["m.C.h", "m.D", "m.D.f"]


def test_library_is_reached_from_the_cli_and_the_benchmark():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    outside = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    assert unreached(sources, outside) == []


# Each public check of the package, with a test in which it says no:
# returns False, reports a disagreement, or raises.
NEGATIVE_TESTS = {
    "boolfn.check_regularity_n": "test_cli.py::test_regularity_refuses_n_before_the_draw",
    "families.verify_characterization":
        "test_families.py::test_verify_characterization_reports_disagreements",
    "matroid.check_canonical_args":
        "test_cli.py::test_size_refusals_before_the_canonical_table",
    "matroid.verify_homomorphism": "test_matroid.py::test_verify_homomorphism_says_no",
    "tester.check_instance_walk": "test_cli.py::test_size_refusals_before_the_canonical_table",
    "tester.check_pattern_args": "test_cli.py::test_size_refusals_before_the_canonical_table",
    "tester.check_tester_args": "test_cli.py::test_size_refusals_before_the_canonical_table",
    "tester.check_von_neumann_args": "test_cli.py::test_von_neumann_checks_before_drawing",
}


def public_checks(source: str) -> list[str]:
    """The module's top-level functions named verify_* or check_*."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith(("verify_", "check_"))]


def test_public_checks_detector():
    source = ("def check_a():\n    pass\n\ndef _check_b():\n    pass\n\n"
              "def verify_c():\n    def check_d():\n        pass\n\nclass E:\n"
              "    def verify_f(self):\n        pass\n\ndef rechecks():\n    pass\n")
    assert public_checks(source) == ["check_a", "verify_c"]


def test_every_public_check_has_a_test_that_sees_it_say_no():
    found = sorted(f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                   for name in public_checks(path.read_text(encoding="utf-8")))
    assert found == sorted(NEGATIVE_TESTS)
    for test in NEGATIVE_TESTS.values():
        file, name = test.split("::")
        tree = ast.parse((TESTS / file).read_text(encoding="utf-8"))
        assert name in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, test
