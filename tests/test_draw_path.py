"""Every Monte Carlo draw of the estimators goes through one sampler.

In ``montecarlo.py`` and ``perco.py`` only the sampler's functions call a
drawing method: a public method of ``np.random.Generator`` or the bit
generator's ``random_raw``.  A call counts when its callee is an attribute
of that name on anything but the ``np`` module (``np.power`` is not a draw).
``.random(`` appears nowhere in them, the sampler included: digits come
from raw words, never from float draws.
"""
import ast
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src" / "cluekit"
MODULES = ("montecarlo.py", "perco.py")
SAMPLER = {"sample_digits", "_cut_digits"}
DRAWS = {name for name in dir(np.random.Generator) if not name.startswith("_")} | {"random_raw"}


def _draw_calls(tree: ast.AST):
    """(method name, line) of every call of a drawing method under ``tree``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if node.func.attr in DRAWS and not (isinstance(owner, ast.Name) and owner.id == "np"):
            yield node.func.attr, node.lineno


def _draws_by_function(path: Path) -> dict[str, list[tuple[str, int]]]:
    """Drawing calls keyed by the top-level definition that holds them
    ("<module>" for calls outside every definition)."""
    tree = ast.parse(path.read_text())
    found = {}
    for node in tree.body:
        holder = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        calls = list(_draw_calls(node))
        if calls:
            found.setdefault(holder, []).extend(calls)
    return found


def test_only_the_sampler_draws():
    outside = {f"{module}:{holder}": calls for module in MODULES
               for holder, calls in _draws_by_function(SRC / module).items() if holder not in SAMPLER}
    assert outside == {}


def test_the_sampler_draws_raw_words_only():
    inside = _draws_by_function(SRC / "montecarlo.py")
    assert set(inside) == SAMPLER
    assert {name for calls in inside.values() for name, _ in calls} == {"random_raw"}
