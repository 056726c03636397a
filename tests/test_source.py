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


def _bool_tests(node, scope=()):
    """(scope, line) of every isinstance(..., bool) call under node, scope
    being the names of the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance" and len(child.args) == 2):
            kinds = child.args[1].elts if isinstance(child.args[1], ast.Tuple) else [child.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                yield ".".join(scope), child.lineno
        yield from _bool_tests(child, inner)


def test_one_integer_rule():
    # what counts as an integer argument is decided by indices.check_int
    # alone; the two exact-coefficient rules and the prime predicate answer
    # other questions
    allowed = {"indices.check_int", "combination.as_fraction", "groupring.GroupRingElem._scalar",
               "finite.is_prime"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, scope) for scope, line in _bool_tests(tree)
                  if "%s.%s" % (path.stem, scope) not in allowed]
    assert found == []


def test_one_relation_report_site():
    # verify_congruence builds every report at one site, so a field added
    # to RelationReport is filled in one place
    tree = ast.parse((SRC / "relations.py").read_text())
    sites = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "RelationReport"]
    assert len(sites) == 1, sites
