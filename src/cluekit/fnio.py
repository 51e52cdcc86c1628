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


def table_from_dict(data: dict) -> FunctionTable:
    try:
        n = int(data["n"])
        q = int(data["q"])
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
