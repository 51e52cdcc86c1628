import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cluekit.core import mask_image, validate_mask

SRC = str(Path(__file__).resolve().parents[1] / "src")


def table_dict(f) -> dict:
    """A function table in the JSON format that ``fnio.load_function`` reads."""
    return {"n": f.space.n, "q": f.space.q, "measure": f.space.pi.tolist(), "values": f.values.tolist()}


def save_table(f, path):
    Path(path).write_text(json.dumps(table_dict(f)))


def subset_orbit_union(mask: int, group, n: int) -> int:
    """Union of the images of a coordinate subset under a group's elements."""
    validate_mask(mask, n)
    out = 0
    for perm in group.elements():
        out |= mask_image(mask, perm)
    return out


def _run_python(code: str, address_space: int | None = None, timeout: float = 300):
    """Run ``code`` in a fresh interpreter that imports cluekit from ``src``.
    ``address_space`` caps the child's virtual memory in bytes; the child sets
    the limit on itself, so the test process keeps its own."""
    if address_space is not None:
        code = (f"import resource; resource.setrlimit(resource.RLIMIT_AS, "
                f"({address_space}, {address_space}))\n{code}")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture
def run_python():
    return _run_python
