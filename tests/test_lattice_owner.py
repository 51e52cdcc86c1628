"""Only ``transforms`` builds keep-or-sum-out lattices.

Every lattice route hands a per-entry map to ``transforms.lattice_sums``,
which runs the lattice in slabs and makes the one memory check for it, so
no module holds a whole lattice or guards one by its own rule.  Any other
module of ``src/cluekit`` that calls ``keep_or_sum``, ``kept_sums`` or
``kept_weights``, by name or as an attribute, fails this test.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cluekit"
OWNER = "transforms.py"
LATTICE = ("keep_or_sum", "kept_sums", "kept_weights")


def _lattice_calls(tree: ast.AST):
    """Line of every call to a lattice function under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in LATTICE:
                yield node.lineno


def test_only_transforms_builds_lattices():
    assert (SRC / OWNER).is_file()
    found = sorted(
        f"{path.name}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != OWNER
        for line in _lattice_calls(ast.parse(path.read_text()))
    )
    assert found == []


def test_the_guard_sees_every_form_of_call():
    source = (
        "lattice_sums(w, q, np.abs)\n"  # allowed: the slab driver
        "a = keep_or_sum(w, q)\n"
        "transforms.kept_sums(a, q)\n"
        "w = kept_weights(space.pi)\n"
    )
    assert sorted(_lattice_calls(ast.parse(source))) == [2, 3, 4]
