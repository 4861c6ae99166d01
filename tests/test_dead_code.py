"""Code no caller can reach is deleted: a static check over the package source.

Every module-level private name in src/qpoisson (a function, class,
assignment or import whose name starts with one underscore) must be read
somewhere in the package outside the statement that defines it: as a name,
as an attribute (qc._name), or in a from-import.  Tests do not count as
callers.

Every module-level public function, class or assignment must be read the
same way (a re-export in __init__.py does not count), be in the package's
__all__, or be named as a word in README.md or in a perfbench/*.py file:
the documented API and what the benchmark wraps by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import qpoisson

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qpoisson"


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


def _reads(node: ast.AST, imports: bool = True) -> Counter:
    """How often each name is read inside node; from-imports count when imports is set."""
    reads: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom) and imports:
            reads.update(alias.name for alias in sub.names)
    return reads


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_module_level_private_name_is_read():
    trees = _trees()
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


def test_every_module_level_public_name_has_a_caller_or_is_documented():
    trees = _trees()
    total = sum((_reads(tree, imports=module != "__init__.py") for module, tree in trees.items()),
                Counter())
    named = "\n".join(path.read_text(encoding="utf-8")
                      for path in [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))])
    unused = [
        f"{module[:-3]}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _defined(node)
        if not name.startswith("_")
        and total[name] - _reads(node)[name] == 0
        and name not in qpoisson.__all__
        and not re.search(rf"\b{name}\b", named)
    ]
    assert unused == []
