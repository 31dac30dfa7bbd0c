"""Every name `tsalab/__init__.py` exports is used by the library, the demos
or the benchmark, outside its own definition.  A public name that only
tests call is API nothing needs: delete it, or move it into the tests
that use it as a reference."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "tsalab" / "__init__.py"

# exports that only tests call today, each with the reason it stays
KEEP = {
    "check_U_switchable": "the switchability checks of ROADMAP item 7",
    "f2f2_T": "the grammar reductions of ROADMAP item 9",
    "parse_fsa": "the FSA file format the README documents",
    "pred_eval": "the tree-stack API the README documents; `_run` calls the field-level definitions they wrap",
    "substitution_bound": "the Substitution Lemma's constants: criterion 11, ROADMAP item 5",
    "ts_apply": "the tree-stack API the README documents; `_run` calls the field-level definitions they wrap",
}


def exported(tree: ast.AST) -> set[str]:
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


# the scopes whose own bindings hide a name from the rest of the module
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds: its arguments
    and every name it assigns or loops over, outside the scopes nested in
    it."""
    out: set[str] = set()
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def used(tree: ast.AST) -> set[str]:
    """Every name the tree loads, as a bare name or an attribute, except
    where it loads it inside the function or class that defines it, and
    except a bare name that the enclosing function, lambda or
    comprehension binds itself."""
    out: set[str] = set()

    def visit(node: ast.AST, defining: frozenset[str], local: frozenset[str]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, SCOPES):
            local = local | local_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in defining and node.id not in local:
                out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in defining:
                out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining, local)

    visit(tree, frozenset(), frozenset())
    return out


def test_used_skips_a_name_inside_its_own_definition():
    tree = ast.parse("g()\ndef f(n):\n    return f(n - 1)\nclass C:\n    x: C\n"
                     "def g():\n    return mod.h(C, g)\n"
                     "def k():\n    ys = [rank for rank in ranks]\n    return ys\n")
    assert used(tree) == {"g", "mod", "h", "C", "ranks"}


def test_every_export_is_used_outside_the_tests():
    files = [p for d in ("src/tsalab", "demos", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py")) if p != INIT]
    assert len(files) > 10
    seen = set().union(*(used(ast.parse(p.read_text(), str(p))) for p in files))
    names = exported(ast.parse(INIT.read_text()))
    assert sorted(names - seen - set(KEEP)) == []
    assert set(KEEP) <= names - seen  # no stale entry
