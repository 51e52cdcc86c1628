"""No module of the package starts threads or processes.

Monte Carlo chunks run in order in the calling thread: chunk work holds the
GIL, so a pool made every estimator call slower.  Importing ``threading``,
``concurrent.futures`` or ``multiprocessing`` (or anything under them) in
``src/cluekit`` fails this test, so a pool cannot come back unmeasured.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cluekit"
FORBIDDEN = ("threading", "concurrent", "multiprocessing")


def _imported_modules(tree: ast.AST):
    """(module name, line) of every import under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def test_no_module_imports_a_pool():
    found = {
        f"{path.name}:{line}": name
        for path in sorted(SRC.rglob("*.py"))
        for name, line in _imported_modules(ast.parse(path.read_text()))
        if name.split(".")[0] in FORBIDDEN
    }
    assert found == {}

