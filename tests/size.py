"""Total, code and docstring lines per file of a package, by the count the
north star of ``ROADMAP.md`` uses for ``src/stylemem``.

    python tests/size.py [PACKAGE_DIR]
    python tests/size.py OLD_DIR NEW_DIR
    python tests/size.py REV

The package defaults to ``src/stylemem``. Docstring lines are the lines of
module, class and function docstrings, found with ``ast``; code lines are
the other lines that are neither blank nor comments alone. One row per
file, then the sums. Given two package directories, each count is printed
as ``before -> after``, and a file present in one tree only counts 0 in the
other. Given a git revision (``HEAD~1``, a commit hash) that is not a
directory, the package as that revision holds it, taken from the local
repository with ``git archive``, is the before and the working tree's
package the after.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tarfile
import tempfile
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


def package_at(rev: str, package: Path, into: Path) -> Path | None:
    """The directory ``package`` as git revision ``rev`` of its repository
    holds it, extracted into ``into``; None where ``rev`` names no tree
    that holds it."""
    git = lambda *args, cwd: subprocess.run(["git", *args], cwd=cwd, capture_output=True, check=False)
    where = git("rev-parse", "--show-toplevel", "--show-prefix", cwd=package)
    if where.returncode != 0:
        return None
    root, prefix = where.stdout.decode().splitlines()
    archive = git("archive", "--format=tar", f"{rev}:{prefix}", cwd=root)
    if archive.returncode != 0:
        return None
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def counts_of(package: Path) -> dict[str, tuple[int, int, int]]:
    return {path.name: count(path.read_text()) for path in sorted(package.glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    usage = "usage: python tests/size.py [PACKAGE_DIR | OLD_DIR NEW_DIR | REV]"
    if len(args) == 1 and not Path(args[0]).is_dir():
        with tempfile.TemporaryDirectory() as tmp:
            old = package_at(args[0], PACKAGE, Path(tmp))
            if old is None:
                print(usage, file=sys.stderr)
                return 2
            print("\n".join(compare(counts_of(old), counts_of(PACKAGE))))
        return 0
    packages = [Path(arg) for arg in args] or [PACKAGE]
    if len(packages) > 2 or not all(package.is_dir() for package in packages):
        print(usage, file=sys.stderr)
        return 2
    counts = [counts_of(package) for package in packages]
    print("\n".join(table(*counts) if len(counts) == 1 else compare(*counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
