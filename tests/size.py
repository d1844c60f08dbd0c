"""Total, code and docstring lines per file of a package, by the count the
north star of ``ROADMAP.md`` uses for ``src/stylemem``.

    python tests/size.py [PACKAGE_DIR]

The package defaults to ``src/stylemem``. Docstring lines are the lines of
module, class and function docstrings, found with ``ast``; code lines are
the other lines that are neither blank nor comments alone. One row per
file, then the sums, so two trees' tables can be compared with ``diff``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stylemem"
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the docstrings of ``source`` span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(total, code, docstring) lines of one module's source."""
    docs = docstring_lines(source)
    lines = source.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1) if i not in docs and line.strip()[:1] not in ("", "#"))
    return len(lines), code, len(docs)


def table(counts: dict[str, tuple[int, int, int]]) -> list[str]:
    """One line per file, then the sums."""
    lines = [f"{'file':<16} {'total':>6} {'code':>6} {'doc':>6}"]
    for name, row in counts.items():
        lines.append(f"{name:<16} " + " ".join(f"{n:>6}" for n in row))
    sums = [sum(row[k] for row in counts.values()) for k in range(3)]
    lines.append(f"{'all':<16} " + " ".join(f"{n:>6}" for n in sums))
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    if len(args) > 1 or not package.is_dir():
        print("usage: python tests/size.py [PACKAGE_DIR]", file=sys.stderr)
        return 2
    counts = {path.name: count(path.read_text()) for path in sorted(package.glob("*.py"))}
    print("\n".join(table(counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
