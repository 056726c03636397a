"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mzvkit"


def test_no_assert_statements():
    # python -O strips assert statements, so a result check must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py"))
    assert found == []


def test_imports_only_stdlib_and_mpmath():
    # numpy and the other test extras stay out of the package: importing
    # one on a hot path would add its import time to every run
    allowed = set(sys.stdlib_module_names) | {"mpmath"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_only_combination_uses_the_accumulator():
    # every other module sums through Combination.combined
    private = {"_sum", "_Sum", "_NestedSum"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "combination.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in private:
                found.append("%s:%d %s" % (path.name, getattr(node, "lineno", 0), name))
    assert found == []
