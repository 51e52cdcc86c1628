import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cluekit.core import FunctionTable, ProductSpace, mask_indices, validate_mask

SRC = str(Path(__file__).resolve().parents[1] / "src")

# zero atoms: coordinate 1 never takes digit 1, coordinate 4 never digit 2
ZERO_ATOM_Q3 = ProductSpace(5, 3, np.array([[0.2, 0.5, 0.3], [0.5, 0.0, 0.5], [0.1, 0.3, 0.6],
                                            [1 / 3, 1 / 3, 1 / 3], [0.6, 0.4, 0.0]]))


def biased_bits(n: int, p_plus) -> ProductSpace:
    """Binary space where coordinate v takes digit 1 (spin +1) with
    probability ``p_plus``, a scalar or one entry per coordinate."""
    p = np.broadcast_to(np.asarray(p_plus, dtype=float), (n,))
    return ProductSpace(n, 2, np.stack([1.0 - p, p], axis=1))


def spins(space: ProductSpace) -> np.ndarray:
    """(2^n, n) int8 matrix of the +-1 spins of a binary space's
    configurations, digit 0 as spin -1."""
    return space.digits().astype(np.int8) * 2 - 1


def upper_indicator(f: FunctionTable) -> FunctionTable:
    """The {0, 1} table of a Boolean table's upper level, built by hand:
    (f + 1) / 2 of a {-1, 1} table, and a {0, 1} table itself."""
    return FunctionTable(f.space, (f.values + 1.0) / 2.0) if f.value_range()[0] < 0.0 else f


def table_dict(f) -> dict:
    """A function table in the JSON format that ``fnio.load_function`` reads."""
    return {"n": f.space.n, "q": f.space.q, "measure": f.space.pi.tolist(), "values": f.values.tolist()}


def save_table(f, path):
    Path(path).write_text(json.dumps(table_dict(f)))


def group_elements(action) -> list[tuple[int, ...]]:
    """Every element of the group generated by ``action.generators``, sorted:
    a breadth-first closure from the identity, for groups small enough to
    list."""
    identity = tuple(range(action.n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for elem in frontier:
            for gen in action.generators:
                composed = tuple(gen[v] for v in elem)  # gen after elem
                if composed not in seen:
                    seen.add(composed)
                    nxt.append(composed)
        frontier = nxt
    return sorted(seen)


def subset_orbit_union(mask: int, group, n: int) -> int:
    """Union of the images of a coordinate subset under a group's elements."""
    validate_mask(mask, n)
    out = 0
    for perm in group_elements(group):
        for v in mask_indices(mask):
            out |= 1 << perm[v]
    return out


def _run_python(code: str, address_space: int | None = None, timeout: float = 300,
                unset: tuple[str, ...] = ()):
    """Run ``code`` in a fresh interpreter that imports cluekit from ``src``.
    ``address_space`` caps the child's virtual memory in bytes; the child sets
    the limit on itself, so the test process keeps its own.  The variables
    named in ``unset`` are left out of the child's environment."""
    if address_space is not None:
        code = (f"import resource; resource.setrlimit(resource.RLIMIT_AS, "
                f"({address_space}, {address_space}))\n{code}")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture
def run_python():
    return _run_python
