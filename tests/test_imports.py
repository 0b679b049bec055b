"""Every name a tritsp module imports is used there or exported, and only
the modules that own the format read MultiGraph's adjacency lists."""

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
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - exported


def test_no_dead_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    unused = {(path.name, name) for path in modules for name in _unused_imports(path)}
    assert unused == KEEP_ALIVE


def test_adjacency_lists_read_only_by_their_owners():
    readers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_adj"
    }
    assert readers == ADJ_READERS
