"""Code no caller can reach is deleted: a static check over the package source.

Every module-level private name in src/qpoisson (a function, class,
assignment or import whose name starts with one underscore) must be read
somewhere in the package outside the statement that defines it: as a name,
as an attribute (qc._name), or in a from-import.  Tests do not count as
callers.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qpoisson"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    return []


def _reads(node: ast.AST) -> Counter:
    """How often each name is read inside node."""
    reads: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            reads.update(alias.name for alias in sub.names)
    return reads


def test_every_module_level_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert "simulator.py" in trees
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined(node)
        if _private(name) and total[name] - _reads(node)[name] == 0
    ]
    assert unread == []
