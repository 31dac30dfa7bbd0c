"""The runtime is stdlib-only: every module under src/tsalab imports only
tsalab itself or a module of the standard library, function-level imports
included."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tsalab"


def imported(tree: ast.AST) -> list[str]:
    """The top-level name of every module an import in the tree names; a
    relative import is tsalab's own."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append("tsalab" if node.level else node.module.split(".")[0])
    return out


def test_imported_sees_nested_and_relative_imports():
    tree = ast.parse("import os.path\ndef f():\n    from numpy import array\nfrom . import tsa\n")
    assert sorted(imported(tree)) == ["numpy", "os", "tsalab"]


def test_runtime_imports_only_tsalab_and_the_stdlib():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 5
    outside = [f"{path.name}: {name}" for path in modules
               for name in imported(ast.parse(path.read_text(), str(path)))
               if name != "tsalab" and name not in sys.stdlib_module_names]
    assert outside == []
