"""Imports sit at the top of each module of the package.  A function-level
import is allowed only where a top-level one would close an import cycle,
and each such import is listed here with the cycle it avoids."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cluekit"

# (module, function, imported name): the cycle a top-level import would close
CYCLE_BREAKERS = {
    ("symmetry", "group_from_spec", "perco.TorusSpec"),  # perco imports symmetry
}


def function_level_imports() -> set[tuple[str, str, str]]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found.update((path.stem, fn.name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.update((path.stem, fn.name, f"{node.module}.{alias.name}") for alias in node.names)
    return found


def test_no_function_level_import_but_the_cycle_breakers():
    assert sorted(function_level_imports() - CYCLE_BREAKERS) == []
