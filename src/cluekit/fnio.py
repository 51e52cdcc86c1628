"""Function tables read from JSON files.

Format: {"n": int, "q": int, "measure": [[p_0..p_{q-1}] x n], "values":
[q^n reals in configuration-index order]} with coordinate 0 as the least
significant mixed-radix digit.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import FunctionTable, ProductSpace
from .errors import ParseError


def _whole(data: dict, key: str) -> int:
    """An integer field: a JSON integer, or a float with no fractional part.
    Not ``int(x)``, which reads 2.9 as 2 and ``true`` as 1."""
    x = data[key]
    if isinstance(x, bool) or not (isinstance(x, int) or (isinstance(x, float) and x.is_integer())):
        raise ValueError(f"{key} = {x!r} is not an integer")
    return int(x)


def table_from_dict(data: dict) -> FunctionTable:
    try:
        n = _whole(data, "n")
        q = _whole(data, "q")
        pi = np.asarray(data["measure"], dtype=float)
        values = np.asarray(data["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed function file: {exc}") from exc
    try:
        space = ProductSpace(n, q, pi)
        return FunctionTable(space, values)
    except ValueError as exc:
        raise ParseError(f"invalid function file: {exc}") from exc


def load_function(path: str | Path) -> FunctionTable:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read function file {path}: {exc}") from exc
    return table_from_dict(data)
