"""Every public name of the package serves the CLI, a suite, another route or
the benchmark.

A public top-level function or class, or a public method of a top-level
class, counts as used when a Name or Attribute node outside its own
definition refers to it, in ``src/cluekit`` or in a non-test module of
``perfbench``.  Imports, strings and docstrings do not count, and neither do
the tests: an oracle or fixture that only tests call belongs in ``tests/``.
perfbench counts for top-level names only, which it reaches as module
attributes; the method names it calls belong to its own objects
(``str.encode``), not to the package's.
"""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node, is_method) of every public top-level
    function and class and every public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, sub, True


def _references(tree: ast.AST):
    """(name, line) of every Name and Attribute node of ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unused_public_names(root: Path = ROOT) -> list[str]:
    src = {p.stem: ast.parse(p.read_text()) for p in sorted((root / "src" / "cluekit").glob("*.py"))}
    bench = {name for p in sorted((root / "perfbench").glob("*.py")) if not p.name.startswith("test_")
             for name, _ in _references(ast.parse(p.read_text()))}
    where = defaultdict(list)
    for module, tree in src.items():
        for name, line in _references(tree):
            where[name].append((module, line))
    unused = []
    for module, tree in src.items():
        for qualname, name, node, is_method in _public_definitions(tree):
            if not is_method and name in bench:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if all(m == module and line in body for m, line in where[name]):
                unused.append(f"{module}.{qualname}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []
