"""Every name a tritsp module imports is used there or exported, every
module-level definition is used or exported, and only the modules that
own the format read MultiGraph's adjacency lists."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tritsp"
# solver.py binds these for perfbench/measure.py, which wraps them by name
KEEP_ALIVE = {
    ("solver.py", "build_bad_cycle"),
    ("solver.py", "enumerate_layouts"),
    ("solver.py", "graph_cost"),
}
# the class itself and the per-ring stages, which walk and write its lists;
# every other module goes through MultiGraph's methods
ADJ_READERS = {"multigraph.py", "shortcut.py"}


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
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    unused = {(path.name, name) for path in modules for name in _unused_imports(path)}
    assert unused == KEEP_ALIVE


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
