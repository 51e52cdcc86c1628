"""Every public name of the package serves the CLI, another route or the
benchmark; a name that only the verification suites reach is listed.

A public top-level function or class, or a public method of a top-level
class, counts as used when a Name or Attribute node outside its own
definition refers to it, in ``src/cluekit`` or in a non-test module of
``perfbench``.  Imports, strings and docstrings do not count, and neither do
the tests: an oracle or fixture that only tests call belongs in ``tests/``.
perfbench counts for top-level names only, which it reaches as module
attributes; the method names it calls belong to its own objects
(``str.encode``), not to the package's.

A name of another module whose every caller is in ``suites`` serves no user
route.  It must be named in :data:`SUITE_CHECKS` with the reason it stays,
so that each such name is a recorded decision; a check or oracle the suites
alone need belongs in ``suites`` as a private helper instead.  No module but
the CLI imports ``suites``, so such a helper cannot become a route.
"""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public names that only the suites reach, each with the reason it stays out
# of ``suites``.
SUITE_CHECKS = {
    "clue.tv_clue_all_subsets": "lattice route, waiting for a --metrics rider on clue --all-subsets",
    "core.conditional_expectation": "perfbench wraps it (core.conditional_expectation.ms)",
    "infotheory.kl_clue_all_subsets": "lattice route, waiting for a --metrics rider on clue --all-subsets",
    "perco.dual_crossing_batch": "perfbench wraps it (perco.crossing_batch.ms)",
    "spectral.StabilityProfile.variance": "perfbench/test_perfbench.py reads it",
    "spectral.efron_stein_components": "the inverse product-basis transform, which needs spectral._transform",
    "spectral.stability": "perfbench/test_perfbench.py calls it",
}


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


def _callers(root: Path):
    """(qualified name, module, calling modules) of every public name that
    perfbench does not reach; the calling modules are those of src with a
    reference outside the name's own definition."""
    src = {p.stem: ast.parse(p.read_text()) for p in sorted((root / "src" / "cluekit").glob("*.py"))}
    bench = {name for p in sorted((root / "perfbench").glob("*.py")) if not p.name.startswith("test_")
             for name, _ in _references(ast.parse(p.read_text()))}
    where = defaultdict(list)
    for module, tree in src.items():
        for name, line in _references(tree):
            where[name].append((module, line))
    for module, tree in src.items():
        for qualname, name, node, is_method in _public_definitions(tree):
            if not is_method and name in bench:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            callers = {m for m, line in where[name] if not (m == module and line in body)}
            yield f"{module}.{qualname}", module, callers


def unused_public_names(root: Path = ROOT) -> list[str]:
    return [qualname for qualname, _, callers in _callers(root) if not callers]


def suite_only_names(root: Path = ROOT) -> list[str]:
    return [qualname for qualname, module, callers in _callers(root)
            if module != "suites" and callers == {"suites"}]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []


def test_names_only_the_suites_reach_are_listed():
    found = set(suite_only_names())
    assert sorted(found - set(SUITE_CHECKS)) == [], "reached by the suites alone: list it or give it a route"
    assert sorted(set(SUITE_CHECKS) - found) == [], "listed but reached elsewhere too: unlist it"


def _imported(tree: ast.Module):
    """Every dotted name a module's imports may bind: a relative import is
    read as one of the package's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ["cluekit" if node.level else None, node.module]))
            yield package
            yield from (f"{package}.{alias.name}" for alias in node.names)


def test_only_the_cli_imports_the_suites():
    """A check kept in ``suites`` stays a check: no route can call it."""
    importers = [path.stem for path in sorted((ROOT / "src" / "cluekit").glob("*.py"))
                 if "cluekit.suites" in _imported(ast.parse(path.read_text()))]
    assert importers == ["cli"]
