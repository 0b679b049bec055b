"""Every name a tritsp module imports is used there or exported, or
wrapped by the benchmark, every module-level definition is used or
exported, only the module that owns the format reads MultiGraph's
adjacency lists, and every name the benchmark wraps exists."""

import ast
from pathlib import Path

import tritsp
import tritsp.solver

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tritsp"
# the class itself and the per-ring stages, which walk and write its lists;
# every other module goes through MultiGraph's methods
ADJ_READERS = {"shortcut.py"}


def _benchmark_hooks():
    """(names, methods): the names perfbench/measure.py wraps on
    tritsp.solver (its TIMED keys and its `solver_module.<name>`
    attributes) and the MultiGraph methods it counts (COUNTED_METHODS),
    read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "measure.py").read_text())
    consts = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    names = set(ast.literal_eval(consts["TIMED"]))
    names |= {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "solver_module"
    }
    return names, set(ast.literal_eval(consts["COUNTED_METHODS"]))


def _unused_imports(path):
    """The names `path` imports (__future__ features aside) that it neither
    reads nor lists in __all__."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - _exported(tree)


def _exported(tree):
    """The names the module-level __all__ of `tree` lists."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def test_no_dead_imports():
    # solver.py may bind a name only for the benchmark, which wraps it there
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    unused = {(path.name, name) for path in modules for name in _unused_imports(path)}
    assert unused <= {("solver.py", name) for name in _benchmark_hooks()[0]}


def test_benchmark_hooks_exist():
    # a name the benchmark's traced pass wraps must stay where it looks
    names, methods = _benchmark_hooks()
    assert {"build_bad_cycle", "enumerate_layouts", "graph_cost"} <= names
    assert methods
    assert all(callable(getattr(tritsp.solver, name, None)) for name in names)
    assert all(callable(getattr(tritsp.MultiGraph, m, None)) for m in methods)


def test_no_dead_definitions():
    # a module-level def or class is alive if some other module-level
    # statement of the package names it (a name or an attribute), or an
    # __all__ lists it; a recursive call inside its own body does not count
    defs, statements, exported = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exported |= _exported(tree)
        for node in tree.body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node))
    dead = {
        (module, node.name)
        for module, node in defs
        if node.name not in exported
        and not any(node.name in names for other, names in statements if other is not node)
    }
    assert len(defs) > 50
    assert dead == set()


def test_adjacency_lists_read_only_by_their_owners():
    readers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_adj"
    }
    assert readers == ADJ_READERS
