"""The runtime is stdlib-only: every module under src/tsalab imports only
tsalab itself or a module of the standard library, function-level imports
included.  Importing tsalab loads none of the modules that only a search
imports inside a function."""

import ast
import os
import subprocess
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


LOADED_BY_IMPORT = """
import sys
before = set(sys.modules)
import tsalab
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_neither_heapq_nor_graphlib():
    # `_summaries`, `_reopens` and `Dispatch._region_bound` import them inside
    # the function, so that importing tsalab stays as quick
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LOADED_BY_IMPORT], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = set(proc.stdout.split())
    assert "tsalab.tsa" in loaded
    assert not loaded & {"heapq", "graphlib"}, sorted(loaded)
