"""Count the code lines of each module under src/qpoisson.

A code line holds at least one token that is not a comment, and is not part
of a docstring (the leading string of a module, class or function).  Blank
lines are not counted.  After the module table come the ten largest
top-level functions and classes, counted by the same rule over their lines,
decorators included.  Run from anywhere:

    python tools/code_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> tuple[int, dict[str, int]]:
    """The module's code lines, and those of each top-level function and class."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(path.read_bytes())
    lines -= docstring_lines(tree)
    definitions = {}
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            definitions[node.name] = len(lines.intersection(range(start, node.end_lineno + 1)))
    return len(lines), definitions


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qpoisson"
    counts, definitions = {}, {}
    for p in sorted(root.glob("*.py")):
        counts[p.name], per_definition = code_lines(p)
        definitions.update({f"{p.name}:{name}": n for name, n in per_definition.items()})
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:16} {n:6,}")
    print(f"{'total':16} {sum(counts.values()):6,}")
    print()
    for name, n in sorted(definitions.items(), key=lambda item: (-item[1], item[0]))[:10]:
        print(name, n)


if __name__ == "__main__":
    main(sys.argv[1:])
