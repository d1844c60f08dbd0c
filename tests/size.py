"""Total, code and docstring lines per file of a package, by the count the
north star of ``ROADMAP.md`` uses for ``src/stylemem``.

    python tests/size.py [PACKAGE_DIR]
    python tests/size.py OLD_DIR NEW_DIR

The package defaults to ``src/stylemem``. Docstring lines are the lines of
module, class and function docstrings, found with ``ast``; code lines are
the other lines that are neither blank nor comments alone. One row per
file, then the sums. Given two package directories (say, a parent
commit's ``src/stylemem`` from ``git archive`` and this tree's), each
count is printed as ``before -> after``, and a file present in one tree
only counts 0 in the other.
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


def compare(old: dict[str, tuple], new: dict[str, tuple]) -> list[str]:
    """One line per file of either tree, then the sums, each count as
    ``before -> after``; a tree without the file counts 0."""
    zero = (0, 0, 0)
    rows = {name: (old.get(name, zero), new.get(name, zero)) for name in sorted(old.keys() | new.keys())}
    rows["all"] = tuple(tuple(sum(row[k] for row in tree.values()) for k in range(3)) for tree in (old, new))
    lines = [f"{'file':<16} " + " ".join(f"{name:>14}" for name in ("total", "code", "doc"))]
    for name, (before, after) in rows.items():
        lines.append(f"{name:<16} " + " ".join(f"{f'{b} -> {a}':>14}" for b, a in zip(before, after)))
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    packages = [Path(arg) for arg in args] or [PACKAGE]
    if len(packages) > 2 or not all(package.is_dir() for package in packages):
        print("usage: python tests/size.py [PACKAGE_DIR | OLD_DIR NEW_DIR]", file=sys.stderr)
        return 2
    counts = [{path.name: count(path.read_text()) for path in sorted(package.glob("*.py"))} for package in packages]
    print("\n".join(table(*counts) if len(counts) == 1 else compare(*counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
