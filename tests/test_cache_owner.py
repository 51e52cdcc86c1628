"""Only ``core`` reads or writes the private caches of frozen objects.

Facts of a table, a space or a game are kept through one decorator,
``core.per_object``, so every cached array is frozen the same way and no
module invents its own cache key; a group is its generating set and keeps no
cache.  Any other module of ``src/cluekit`` that accesses an attribute named
``_cache``, or names it in a ``getattr``-style call, fails this test; a
constructor that creates the empty cache with
``object.__setattr__(self, "_cache", {})`` is allowed.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cluekit"
OWNER = "core.py"
BY_NAME = ("getattr", "setattr", "hasattr", "delattr", "__setattr__", "__getattribute__")


def _is_empty_cache_init(node: ast.Call) -> bool:
    """``object.__setattr__(self, "_cache", {})``."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
        and len(node.args) == 3
        and isinstance(node.args[2], ast.Dict)
        and not node.args[2].keys
    )


def _cache_accesses(tree: ast.AST):
    """Line of every access to an attribute named ``_cache`` under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_cache":
            yield node.lineno
        elif isinstance(node, ast.Call) and not _is_empty_cache_init(node):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BY_NAME and any(
                isinstance(arg, ast.Constant) and arg.value == "_cache" for arg in node.args
            ):
                yield node.lineno


def test_only_core_touches_object_caches():
    assert (SRC / OWNER).is_file()
    found = sorted(
        f"{path.name}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != OWNER
        for line in _cache_accesses(ast.parse(path.read_text()))
    )
    assert found == []


def test_the_guard_sees_every_form_of_access():
    source = (
        "object.__setattr__(self, '_cache', {})\n"  # allowed: the empty cache
        "x = space._cache.get('bases')\n"
        "space._cache['bases'] = x\n"
        "getattr(self, '_cache', None)\n"
        "object.__setattr__(self, '_cache', {'k': 1})\n"
    )
    assert sorted(_cache_accesses(ast.parse(source))) == [2, 3, 4, 5]
