"""The line counts of ``tests/size.py`` on made-up packages."""

import shutil
import subprocess

import pytest

import size
from size import compare, count, main, table

MODULE = '''"""Module docstring
on two lines."""

import os  # a comment after code counts as code

# a comment alone


def f():
    """One-line docstring."""
    text = """a string that is not a docstring"""
    return text


class C:
    """Class
    docstring."""

    def g(self):
        return 1
'''


def test_count_splits_code_and_docstring_lines():
    # 20 lines: docstrings span lines 1-2, 10 and 16-17; code is lines 4, 9, 11, 12, 15, 19
    # and 20; the blank lines and the lone comment are neither
    assert count(MODULE) == (20, 7, 5)


def test_table_prints_each_file_and_the_sums():
    lines = table({"a.py": (20, 7, 5), "b.py": (4, 2, 1)})
    assert [line.split() for line in lines] == [
        ["file", "total", "code", "doc"], ["a.py", "20", "7", "5"], ["b.py", "4", "2", "1"], ["all", "24", "9", "6"],
    ]


def test_main_reads_every_module_of_a_package(tmp_path, capsys):
    (tmp_path / "m.py").write_text(MODULE)
    (tmp_path / "empty.py").write_text("")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["empty.py", "0", "0", "0"], ["m.py", "20", "7", "5"], ["all", "20", "7", "5"]]


def test_a_missing_package_prints_the_usage(tmp_path, capsys):
    assert main([str(tmp_path / "missing")]) == 2
    assert main([str(tmp_path), "extra"]) == 2
    assert capsys.readouterr().err.count("usage:") == 2


def test_two_packages_print_each_count_as_before_and_after(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    (old / "m.py").write_text(MODULE)
    (old / "gone.py").write_text("x = 1\n")
    (new / "m.py").write_text(MODULE.replace("    return text\n", ""))  # one code line fewer
    (new / "added.py").write_text('"""Doc."""\n\ny = 2\n')
    assert main([str(old), str(new)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["file", "total", "code", "doc"],
        ["added.py", "0", "->", "3", "0", "->", "1", "0", "->", "1"],
        ["gone.py", "1", "->", "0", "1", "->", "0", "0", "->", "0"],
        ["m.py", "20", "->", "19", "7", "->", "6", "5", "->", "5"],
        ["all", "21", "->", "22", "8", "->", "7", "5", "->", "6"],
    ]
    assert compare({}, {})[1:] == [f"{'all':<16} " + " ".join([f"{'0 -> 0':>14}"] * 3)]


def test_three_packages_or_a_missing_one_print_the_usage(tmp_path, capsys):
    assert main([str(tmp_path)] * 3) == 2
    assert main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err.count("usage:") == 2


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_revision_is_compared_with_the_working_tree(tmp_path, capsys, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "m.py").write_text(MODULE)
    (tmp_path / "other.py").write_text("z = 3\n")  # outside the package: not counted
    git = lambda *args: subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path, check=True, capture_output=True
    )
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (package / "m.py").write_text(MODULE.replace("    return text\n", ""))  # uncommitted: one code line fewer
    (package / "added.py").write_text("y = 2\n")
    monkeypatch.setattr(size, "PACKAGE", package)
    assert main(["HEAD"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["file", "total", "code", "doc"],
        ["added.py", "0", "->", "1", "0", "->", "1", "0", "->", "0"],
        ["m.py", "20", "->", "19", "7", "->", "6", "5", "->", "5"],
        ["all", "20", "->", "20", "7", "->", "7", "5", "->", "5"],
    ]
    assert main(["no-such-revision"]) == 2
    assert "usage:" in capsys.readouterr().err
